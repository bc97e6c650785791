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
have a fall colouring at all.  ``fall_uniqueness_report`` is the one place
that chooses between this solver and the exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Colouring, Graph, bits
from .matching import perfect_matching
from .oracles import FallSpectrum, fall_spectrum
from .patterns import CoComponentKind, p3p1_decomposition
from .tight import PreconditionError


@dataclass(frozen=True)
class ComponentBreakdown:
    vertices: tuple[int, ...]
    kind: CoComponentKind
    dominating: tuple[int, ...]
    pair_count: int
    clique_size: int | None
    colours: int


@dataclass(frozen=True)
class FallResult:
    spectrum: FallSpectrum
    colouring: Colouring | None
    per_component: tuple[ComponentBreakdown, ...]


def _dominating_vertices(g: Graph) -> list[int]:
    full = g.full_mask()
    return [v for v in range(g.n) if g.adj[v] | (1 << v) == full]


def fall_p3p1_free(g: Graph) -> FallResult:
    """Fall spectrum and witness for a (P3+P1)-free graph.

    The spectrum is {sum of per-co-component colour counts} when every
    co-component succeeds, else empty.  Witness classes: dominating vertices
    as singletons, matched pairs as two-vertex classes, cliques coloured
    rainbow, with disjoint colour ranges across co-components.
    """
    parts = p3p1_decomposition(g)
    if parts is None:
        raise PreconditionError("input graph is not (P3+P1)-free")
    return _fall_p3p1(g, parts)


def _fall_p3p1(g: Graph, parts) -> FallResult:
    breakdown: list[ComponentBreakdown] = []
    colour = [0] * g.n
    offset = 0
    feasible = True

    for vs, kind in parts:
        sub = g.subgraph(vs)
        if kind is CoComponentKind.THREE_P1_FREE:
            dom = _dominating_vertices(sub)
            keep = [i for i in range(sub.n) if i not in set(dom)]
            pairs: list[tuple[int, int]] = []
            ok = len(keep) % 2 == 0
            if ok and keep:
                rest = sub.subgraph(keep)
                m = perfect_matching(rest.complement())
                if m is None:
                    ok = False
                else:
                    pairs = [(keep[a], keep[b]) for a, b in m.edges]
            used = len(dom) + len(pairs)
            breakdown.append(ComponentBreakdown(vs, kind, tuple(vs[i] for i in dom),
                                                len(pairs), None, used if ok else 0))
            if not ok:
                feasible = False
                continue
            c = offset
            for i in dom:
                c += 1
                colour[vs[i]] = c
            for a, b in pairs:
                c += 1
                colour[vs[a]] = c
                colour[vs[b]] = c
            offset = c
        else:
            comps = sub.component_masks()
            sizes = sorted({m.bit_count() for m in comps})
            ok = len(sizes) == 1
            p = sizes[0] if ok else None
            breakdown.append(ComponentBreakdown(vs, kind, (), 0, p, p if ok else 0))
            if not ok:
                feasible = False
                continue
            for mask in comps:
                for c, i in enumerate(bits(mask), start=1):
                    colour[vs[i]] = offset + c
            offset += p

    if not feasible or g.n == 0:  # the empty graph has no fall colouring
        return FallResult(FallSpectrum(()), None, tuple(breakdown))
    witness = Colouring.from_values(colour)
    return FallResult(FallSpectrum((offset,), {offset: witness}), witness, tuple(breakdown))


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
        path, spectrum = "(P3+P1)-free", _fall_p3p1(g, parts).spectrum
    else:
        path, spectrum = "oracle", fall_spectrum(g, budget=budget)
    return FallUniqueness(len(spectrum.values) == 1, spectrum, path)
