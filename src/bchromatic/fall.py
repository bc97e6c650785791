"""Fall colourings by one component/co-component split, and fall-uniqueness
reporting.

A fall colouring partitions the vertices into maximal independent sets.  A
maximal independent set meets every component of a graph and lies inside
one of its co-components (Dunbar et al. 2000).  The split therefore walks
vertex masks, and the first rule that applies handles each piece:

* no edges: one class;
* complete: one class per vertex;
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

The walk keeps one list of pieces, starting with the whole graph, and
appends the parts of a join or a union after it, so they take a contiguous
range of later places.  Leaves get their classes when they are visited; one
pass in reverse order then combines each join and union from its parts.
Nothing recurses, so the depth of the split is not bounded.

By induction every spectrum the split computes has at most one value, so a
piece carries the classes of its one fall colouring, or none.  Every P4-free
graph on two or more vertices is disconnected or has a disconnected
complement (Corneil, Lerchs & Stewart Burlingham 1981), so the split answers
every P4-free graph, and every graph whose connected, co-connected pieces
have no independent triple: the path "modular".  A (P3+P1)-free graph is one
of these: each co-component has no independent triple or is a union of
cliques (see ``p3p1_decomposition``).  Those graphs, and only those, keep
the path "(P3+P1)-free": every union met has only complete parts.
``fall_uniqueness_report`` is the one place that chooses between the split
and the oracle.
"""
from __future__ import annotations

from typing import NamedTuple

from .graphs import Colouring, FallSpectrum, Graph, bits
from .matching import perfect_matching
from .patterns import has_independent_triple


def _split(g: Graph) -> tuple[FallSpectrum, str] | None:
    """The spectrum of ``g`` from the split, and its path: "(P3+P1)-free"
    when ``g`` is, else "modular"; None when the split meets a prime
    piece."""
    adj = g.adj
    masks = [g.full_mask()]
    kinds, spans, classes = [], [], []
    # the loop also walks the parts it appends to ``masks``
    for mask in masks:
        parts, sub = [], None
        if not any(adj[v] & mask for v in bits(mask)):
            kind, sub = "edgeless", [mask]
        elif all(adj[v] & mask | 1 << v == mask for v in bits(mask)):
            kind, sub = "complete", [1 << v for v in bits(mask)]
        elif len(co := g.component_masks(mask, co=True)) > 1:
            kind, parts = "join", co
        elif not has_independent_triple(g, mask):
            vs = list(bits(mask))
            matching = perfect_matching(g.subgraph(vs).complement())
            kind = "pairs"
            sub = [] if matching is None else [1 << vs[a] | 1 << vs[b] for a, b in matching]
        elif len(parts := g.component_masks(mask)) > 1:
            kind = "union"
        else:
            return None
        kinds.append(kind)
        spans.append(range(len(masks), len(masks) + len(parts)))
        classes.append(sub)
        masks += parts
    for i in reversed(range(len(masks))):
        subs = [classes[j] for j in spans[i]]
        if kinds[i] == "join":
            classes[i] = [c for sub in subs for c in sub] if all(subs) else []
        elif kinds[i] == "union":
            # the classes of distinct components are disjoint, so their sum is their union
            classes[i] = [sum(cs) for cs in zip(*subs)] if len(set(map(len, subs))) == 1 else []
    cliques = all(kinds[j] in ("edgeless", "complete")
                  for kind, span in zip(kinds, spans) if kind == "union" for j in span)
    # the edgeless rule gives the graph on no vertices one empty class; it has none
    top = classes[0] if g.n else []
    witnesses = {len(top): Colouring.from_class_masks(g.n, top)} if top else {}
    return FallSpectrum(tuple(witnesses), witnesses), "(P3+P1)-free" if cliques else "modular"


class FallUniqueness(NamedTuple):
    fall_unique: bool
    spectrum: FallSpectrum
    path: str  # "(P3+P1)-free" | "modular" | "oracle"


def fall_uniqueness_report(g: Graph, *, budget: int | None = None) -> FallUniqueness:
    """Fall spectrum by class: the split when it meets no prime piece, else
    the oracle within the vertex ``budget``.  The path is "(P3+P1)-free"
    when ``g`` is, "modular" for the other graphs the split answers.  Flags
    graphs whose spectrum is a single value."""
    split = _split(g)
    if split is None:
        from .oracles import fall_spectrum
        split = fall_spectrum(g, budget=budget), "oracle"
    spectrum, path = split
    return FallUniqueness(len(spectrum.values) == 1, spectrum, path)
