"""Fall colourings by one component/co-component split, and fall-uniqueness
reporting.

A fall colouring partitions the vertices into maximal independent sets.  A
maximal independent set meets every component of a graph and lies inside
one of its co-components (Dunbar et al. 2000).  The split therefore walks
vertex masks, and the first rule that applies handles each piece:

* no edges: one class;
* a disconnected complement (a join): each co-component is coloured on its
  own, in a range of colours of its own, in co-component order, so the
  spectrum is the sumset of theirs;
* co-connected with no independent triple: a co-connected piece on two or
  more vertices has no vertex adjacent to all the others, so every class is
  a non-adjacent pair, and a fall colouring is a perfect matching of the
  complement;
* disconnected (a union): class i is class i of every component, so the
  spectrum is the intersection of theirs;
* connected and co-connected with an independent triple: the piece is
  prime, and the whole graph goes to the exact oracle.

By induction every spectrum the split computes has at most one value, so a
piece carries the classes of its one fall colouring, or none.  Every P4-free
graph on two or more vertices is disconnected or has a disconnected
complement (Corneil, Lerchs & Stewart Burlingham 1981), so the split answers
every P4-free graph, and every graph whose connected, co-connected pieces
have no independent triple: the path "modular".  A (P3+P1)-free graph is one
of these: each co-component has no independent triple or is a union of
cliques (see ``p3p1_decomposition``).  Those graphs, and only those, keep
the path "(P3+P1)-free".  ``fall_uniqueness_report`` is the one place that
chooses between the split and the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Colouring, Graph, bits
from .matching import perfect_matching
from .oracles import FallSpectrum, fall_spectrum
from .patterns import has_independent_triple


def _join(g: Graph, mask: int) -> tuple[list[int], bool] | None:
    """The classes of the fall colouring of ``g[mask]``, empty when it has
    none, from the join of its co-components, and whether every union below
    is one of cliques; None when a piece is prime.  Every piece is visited,
    also after one without a fall colouring, so no prime piece is missed."""
    results = [_piece(g, part) for part in g.component_masks(mask, co=True)]
    if None in results:
        return None
    classes = [c for sub, _ in results for c in sub] if all(sub for sub, _ in results) else []
    return classes, all(ok for _, ok in results)


def _piece(g: Graph, mask: int) -> tuple[list[int], bool] | None:
    """``_join`` for a co-connected ``g[mask]``."""
    if not any(g.adj[v] & mask for v in bits(mask)):
        return [mask], True
    if not has_independent_triple(g, mask):
        vs = list(bits(mask))
        matching = perfect_matching(g.subgraph(vs).complement())
        pairs = [] if matching is None else [1 << vs[a] | 1 << vs[b] for a, b in matching.edges]
        return pairs, True
    parts = g.component_masks(mask)
    if len(parts) == 1:
        return None
    results = [_join(g, part) for part in parts]
    if None in results:
        return None
    # a connected graph on p vertices has a fall colouring with p colours
    # iff it is complete
    cliques = all(ok and len(sub) == part.bit_count() for part, (sub, ok) in zip(parts, results))
    if len({len(sub) for sub, _ in results}) > 1:
        return [], cliques
    # the classes of distinct components are disjoint, so their sum is their union
    return [sum(classes) for classes in zip(*(sub for sub, _ in results))], cliques


def _split(g: Graph) -> tuple[FallSpectrum, str] | None:
    """The spectrum of ``g`` from the split, and its path: "(P3+P1)-free"
    when ``g`` is, else "modular"; None when the split meets a prime
    piece."""
    res = _join(g, g.full_mask())
    if res is None:
        return None
    classes, cliques = res
    witnesses = {len(classes): Colouring.from_class_masks(g.n, classes)} if classes else {}
    return FallSpectrum(tuple(witnesses), witnesses), "(P3+P1)-free" if cliques else "modular"


@dataclass(frozen=True)
class FallUniqueness:
    fall_unique: bool
    spectrum: FallSpectrum
    path: str  # "(P3+P1)-free" | "modular" | "oracle"


def fall_uniqueness_report(g: Graph, *, budget: int | None = None) -> FallUniqueness:
    """Fall spectrum by class: the split when it meets no prime piece, else
    the oracle within the vertex ``budget``.  The path is "(P3+P1)-free"
    when ``g`` is, "modular" for the other graphs the split answers.  Flags
    graphs whose spectrum is a single value."""
    spectrum, path = _split(g) or (fall_spectrum(g, budget=budget), "oracle")
    return FallUniqueness(len(spectrum.values) == 1, spectrum, path)
