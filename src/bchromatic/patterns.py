"""Induced-subgraph detection for small fixed patterns, and the complexity
classifiers for the three colouring problems on H-free graph classes.

Pattern names follow the usual additive notation: ``P4``, ``C5``, ``K4``,
``K1,3`` (= ``claw``), ``paw``, sums like ``P3+P1`` and multiplied terms like
``2P2`` or ``3P1``.  Expansion is table-driven: atoms come from a small
builder table and ``+``/multiplier syntax composes them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .graphs import Graph, bits, disjoint_union


class PatternError(ValueError):
    """Unknown or malformed pattern name."""


def path_graph(r: int) -> Graph:
    return Graph.from_edges(r, [(i, i + 1) for i in range(r - 1)])


def cycle_graph(r: int) -> Graph:
    if r < 3:
        raise PatternError(f"cycle needs at least 3 vertices, got {r}")
    return Graph.from_edges(r, [(i, (i + 1) % r) for i in range(r)])


def complete_graph(r: int) -> Graph:
    return Graph.from_edges(r, [(i, j) for i in range(r) for j in range(i + 1, r)])


def star_graph(r: int) -> Graph:
    """K_{1,r}: one centre adjacent to r leaves."""
    return Graph.from_edges(r + 1, [(0, i) for i in range(1, r + 1)])


_FIXED_ATOMS = {
    "claw": lambda: star_graph(3),
    "paw": lambda: Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
}

_ATOM_RE = re.compile(r"^(?:P(\d+)|C(\d+)|K1,(\d+)|K(\d+))$")


def _atom_graph(token: str) -> Graph:
    if token in _FIXED_ATOMS:
        return _FIXED_ATOMS[token]()
    m = _ATOM_RE.match(token)
    if not m:
        raise PatternError(f"unknown pattern atom {token!r}")
    p, c, s, k = m.groups()
    if p is not None:
        return path_graph(int(p))
    if c is not None:
        return cycle_graph(int(c))
    if s is not None:
        return star_graph(int(s))
    return complete_graph(int(k))


@lru_cache(maxsize=None)
def pattern_graph(name: str) -> Graph:
    """Expand a pattern name such as ``2P2+P1`` into a concrete graph."""
    g = Graph.empty(0)
    for term in name.replace(" ", "").split("+"):
        if not term:
            raise PatternError(f"empty term in pattern {name!r}")
        m = re.match(r"^(\d*)(.+)$", term)
        mult = int(m.group(1)) if m.group(1) else 1
        atom = _atom_graph(m.group(2))
        for _ in range(mult):
            g = disjoint_union(g, atom)
    return g


# -- induced-subgraph search ------------------------------------------------


def _component_embeddings(g: Graph, allowed: int, h: Graph, comp: tuple[int, ...]):
    """Yield induced embeddings of the connected pattern component ``comp``
    into ``g`` restricted to ``allowed``, as dicts pattern->host, in a fixed
    deterministic order."""
    # BFS order from the smallest pattern vertex: every later vertex has an
    # already-placed neighbour, which keeps candidate sets small.
    order = [comp[0]]
    seen = {comp[0]}
    i = 0
    while i < len(order):
        for w in bits(h.adj[order[i]]):
            if w in seen or w not in comp:
                continue
            seen.add(w)
            order.append(w)
        i += 1
    assignment: dict[int, int] = {}

    def rec(idx: int, used: int):
        if idx == len(order):
            yield dict(assignment)
            return
        pv = order[idx]
        cand = allowed & ~used
        for pu, hu in assignment.items():
            if h.has_edge(pv, pu):
                cand &= g.adj[hu]
            else:
                cand &= ~g.adj[hu]
        for hv in bits(cand):
            assignment[pv] = hv
            yield from rec(idx + 1, used | (1 << hv))
            del assignment[pv]

    yield from rec(0, 0)


def _search(g: Graph, h: Graph) -> dict[int, int] | None:
    comps = sorted(h.components(), key=lambda c: (-len(c), c))
    witness: dict[int, int] = {}

    def rec(ci: int, allowed: int) -> bool:
        if ci == len(comps):
            return True
        comp = comps[ci]
        for emb in _component_embeddings(g, allowed, h, comp):
            closed = 0
            for hv in emb.values():
                closed |= g.adj[hv] | (1 << hv)
            witness.update(emb)
            if rec(ci + 1, allowed & ~closed):
                return True
            for pv in comp:
                del witness[pv]
        return False

    return dict(witness) if rec(0, g.full_mask()) else None


def contains_induced(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Injective map preserving edges and non-edges, or None.

    The returned tuple maps pattern vertex i to host vertex witness[i].  On
    hosts that are denser than half the possible edges the search runs on the
    complements, which leaves the witness unchanged and keeps the dense
    hardness instances cheap to check.
    """
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    if g.n >= 2 and 2 * g.edge_count() > g.n * (g.n - 1) // 2:
        found = _search(g.complement(), h.complement())
    else:
        found = _search(g, h)
    if found is None:
        return None
    return tuple(found[i] for i in range(h.n))


def is_free(g: Graph, pattern: str) -> bool:
    """True iff ``g`` has no induced copy of the named pattern."""
    return contains_induced(g, pattern_graph(pattern)) is None


def is_induced_subgraph_of(h: Graph, pattern: str) -> bool:
    """True iff ``h`` embeds induced into the expanded pattern graph."""
    return contains_induced(pattern_graph(pattern), h) is not None


# -- structural helpers ------------------------------------------------------


def is_forest(g: Graph) -> bool:
    return g.edge_count() == g.n - len(g.component_masks())


def is_linear_forest(g: Graph) -> bool:
    """Disjoint union of paths: acyclic with maximum degree at most 2."""
    return (g.n == 0 or g.max_degree() <= 2) and is_forest(g)


def is_clique_mask(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if (g.adj[v] & mask) != mask & ~(1 << v):
            return False
    return True


def is_union_of_cliques(g: Graph) -> bool:
    return all(is_clique_mask(g, m) for m in g.component_masks())


def is_complete_multipartite(g: Graph) -> bool:
    return is_union_of_cliques(g.complement())


class CoComponentKind(Enum):
    THREE_P1_FREE = "3P1-free"
    CLIQUE_UNION = "clique-union"


def p3p1_decomposition(g: Graph) -> list[tuple[tuple[int, ...], CoComponentKind]] | None:
    """The co-components of ``g`` in ``co_components`` order, each with its
    kind, or None exactly when ``g`` has an induced P3+P1.

    The complement of P3+P1 is the paw, and a graph is paw-free iff each of
    its components is triangle-free or complete multipartite (Olariu 1988).
    Read in ``g``: each co-component has no independent triple, or is a
    disjoint union of complete graphs.  The first kind wins when both hold.
    """
    co = g.complement()
    parts = []
    for comp in co.component_masks():
        # an independent triple of g is a triangle of its complement; a union
        # of cliques has no induced P3, so every neighbourhood is a clique
        if not any(co.adj[u] & co.adj[v] for u in bits(comp) for v in bits(co.adj[u]) if v > u):
            kind = CoComponentKind.THREE_P1_FREE
        elif all(is_clique_mask(g, g.adj[v] & comp) for v in bits(comp)):
            kind = CoComponentKind.CLIQUE_UNION
        else:
            return None
        parts.append((tuple(bits(comp)), kind))
    return parts


# -- dichotomy classifiers ----------------------------------------------------


class Verdict(Enum):
    POLY = "polynomial"
    NP_HARD = "NP-hard"
    NP_COMPLETE = "NP-complete"
    OPEN = "open"


@dataclass(frozen=True)
class DichotomyVerdict:
    verdict: Verdict
    reason: str
    family: str | None = None


def _require_nonempty(h: Graph) -> None:
    if h.n == 0:
        raise PatternError("classifier needs a non-empty forbidden graph H")


def _cycle_trigger(h: Graph) -> str | None:
    if not is_free(h, "C3"):
        return "C3"
    if not is_forest(h):
        return "C4 or longer induced cycle"
    return None


def classify_b(h: Graph) -> DichotomyVerdict:
    """b-chromatic number on H-free graphs: polynomial iff H embeds in P4."""
    _require_nonempty(h)
    if is_induced_subgraph_of(h, "P4"):
        return DichotomyVerdict(Verdict.POLY, "H is an induced subgraph of P4")
    trigger = _cycle_trigger(h)
    if trigger is None:
        if not is_free(h, "2P2"):
            trigger = "2P2"
        elif not is_free(h, "3P1"):
            trigger = "3P1"
    if trigger is None:
        raise AssertionError(f"dichotomy gap for H with {h.n} vertices")
    return DichotomyVerdict(Verdict.NP_HARD, f"H contains an induced {trigger}")


_OPEN_FAMILIES = {
    (4, 2): "P4+P2+sP1",
    (4,): "P4+sP1",
    (3, 2): "P3+P2+sP1",
    (3,): "P3+sP1",
    (2, 2): "2P2+sP1",
    (2,): "P2+sP1",
    (): "sP1",
}


def _open_family(h: Graph) -> str:
    sizes = sorted((len(c) for c in h.components()), reverse=True)
    isolated = sizes.count(1)
    key = tuple(s for s in sizes if s > 1)
    if key not in _OPEN_FAMILIES:
        raise AssertionError(f"unexpected open linear forest with parts {sizes}")
    return f"{_OPEN_FAMILIES[key]} (s={isolated})"


def classify_tight(h: Graph) -> DichotomyVerdict:
    """Tight b-chromatic number on H-free graphs.

    Polynomial when H embeds in P4, P3+P1 or 2P2+P1; NP-complete when H is
    not a linear forest or contains an induced P5, 3P2 or 2P3; the remaining
    linear forests are the open families.
    """
    _require_nonempty(h)
    for host in ("P4", "P3+P1", "2P2+P1"):
        if is_induced_subgraph_of(h, host):
            return DichotomyVerdict(Verdict.POLY, f"H is an induced subgraph of {host}")
    if not is_linear_forest(h):
        trigger = _cycle_trigger(h) or "claw"
        return DichotomyVerdict(Verdict.NP_COMPLETE, f"H contains an induced {trigger}")
    for trigger in ("P5", "3P2", "2P3"):
        if not is_free(h, trigger):
            return DichotomyVerdict(Verdict.NP_COMPLETE, f"H contains an induced {trigger}")
    family = _open_family(h)
    return DichotomyVerdict(Verdict.OPEN, "complexity unresolved for this family", family)


def classify_fall(h: Graph) -> DichotomyVerdict:
    """Fall chromatic/achromatic number on H-free graphs: polynomial iff H
    embeds in P4 or in P3+P1."""
    _require_nonempty(h)
    for host in ("P4", "P3+P1"):
        if is_induced_subgraph_of(h, host):
            return DichotomyVerdict(Verdict.POLY, f"H is an induced subgraph of {host}")
    trigger = _cycle_trigger(h)
    if trigger is None and not is_free(h, "claw"):
        trigger = "claw"
    if trigger is None:
        # H is a linear forest; one of the four disconnected triggers applies.
        for t in ("2P2", "4P1", "P2+2P1"):
            if not is_free(h, t):
                trigger = t
                break
    if trigger is None:
        raise AssertionError(f"dichotomy gap for H with {h.n} vertices")
    return DichotomyVerdict(Verdict.NP_HARD, f"H contains an induced {trigger}")
