"""Fall colourings of (P3+P1)-free graphs, and fall-uniqueness reporting.

A fall colouring partitions the vertices into maximal independent sets.  For
a (P3+P1)-free graph every co-component is either 3P1-free or a disjoint
union of complete graphs, and distinct co-components never share colours, so
the problem splits:

* a 3P1-free co-component first sheds its dominating vertices (each is
  necessarily a singleton class); what remains has a fall colouring iff its
  complement has a perfect matching, every class being one matched pair;
* a union of cliques has a fall colouring iff all its components have one
  common size p, contributing exactly p colours.

Either way the spectrum of the co-component, and hence of the whole graph,
is a singleton or empty: graphs in this class are fall-unique whenever they
have a fall colouring at all.  The solver stacks the co-components' colours
and stops at the first one without a fall colouring; it returns the
``FallSpectrum`` that the exact oracle returns.  ``fall_uniqueness_report``
is the one place that chooses between this solver and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Colouring, Graph, PreconditionError, bits
from .matching import perfect_matching
from .oracles import FallSpectrum, fall_spectrum
from .patterns import CoComponentKind, p3p1_decomposition


def fall_p3p1_free(g: Graph) -> FallSpectrum:
    """Fall spectrum and witness of a (P3+P1)-free graph.

    The spectrum is {sum of per-co-component colour counts} when every
    co-component has a fall colouring, else empty.  Witness classes:
    dominating vertices as singletons, matched pairs as two-vertex classes,
    cliques coloured rainbow, with disjoint colour ranges across
    co-components.
    """
    parts = p3p1_decomposition(g)
    if parts is None:
        raise PreconditionError("input graph is not (P3+P1)-free")
    return _fall_p3p1(g, parts)


def _fall_3p1_free(sub: Graph) -> list[int] | None:
    full = sub.full_mask()
    dom = [v for v in range(sub.n) if sub.adj[v] | (1 << v) == full]
    keep = [v for v in range(sub.n) if sub.adj[v] | (1 << v) != full]
    matching = perfect_matching(sub.subgraph(keep).complement())
    if matching is None:
        return None
    colour = [0] * sub.n
    for c, v in enumerate(dom, start=1):
        colour[v] = c
    for c, (a, b) in enumerate(matching.edges, start=len(dom) + 1):
        colour[keep[a]] = colour[keep[b]] = c
    return colour


def _fall_clique_union(sub: Graph) -> list[int] | None:
    comps = sub.component_masks()
    if len({mask.bit_count() for mask in comps}) != 1:
        return None
    colour = [0] * sub.n
    for mask in comps:
        for c, v in enumerate(bits(mask), start=1):
            colour[v] = c
    return colour


def _fall_p3p1(g: Graph, parts) -> FallSpectrum:
    colour = [0] * g.n
    k = 0
    for vs, kind in parts:
        part = _fall_3p1_free if kind is CoComponentKind.THREE_P1_FREE else _fall_clique_union
        local = part(g.subgraph(vs))
        if local is None:
            return FallSpectrum(())
        for v, c in zip(vs, local):
            colour[v] = k + c
        k += max(local)
    if not k:  # the empty graph has no fall colouring
        return FallSpectrum(())
    return FallSpectrum((k,), {k: Colouring.from_values(colour)})


@dataclass(frozen=True)
class FallUniqueness:
    fall_unique: bool
    spectrum: FallSpectrum
    path: str  # "(P3+P1)-free" | "oracle"


def fall_uniqueness_report(g: Graph, *, budget: int | None = None,
                           force_oracle: bool = False) -> FallUniqueness:
    """Fall spectrum by class: the polynomial solver when the co-component
    decomposition shows ``g`` is (P3+P1)-free, else the oracle within the
    vertex ``budget``.  Flags graphs whose spectrum is a single value."""
    parts = None if force_oracle else p3p1_decomposition(g)
    if parts is not None:
        path, spectrum = "(P3+P1)-free", _fall_p3p1(g, parts)
    else:
        path, spectrum = "oracle", fall_spectrum(g, budget=budget)
    return FallUniqueness(len(spectrum.values) == 1, spectrum, path)
