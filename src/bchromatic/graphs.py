"""Core graph type, combination operators and colouring validators.

Graphs are undirected, simple, and live on vertex set {0, ..., n-1}.
Adjacency is stored as one integer bitmask per vertex, which keeps the
exhaustive sweeps and the backtracking oracles fast without any third-party
dependency.

Colouring vocabulary used throughout the package:

* a *colouring* maps each vertex to a colour in {1, ..., k} so that adjacent
  vertices differ, and every colour in the range is used;
* a vertex is *b-chromatic* if it has a neighbour of every colour other than
  its own;
* a *b-colouring* has a b-chromatic vertex in every colour class;
* a *fall colouring* has every vertex b-chromatic (equivalently: every colour
  class is a maximal independent set);
* the *m-degree* m(G) is the largest k such that at least k vertices have
  degree >= k-1; vertices of degree >= m(G)-1 are *dense*;
* G is *tight* if it has exactly m(G) dense vertices, each of degree exactly
  m(G)-1, and a *tight b-colouring* is a b-colouring with m(G) colours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Invalid graph construction or graph-level precondition failure."""


class PreconditionError(GraphError):
    """Solver called outside its graph class."""


class ColouringError(ValueError):
    """Invalid colouring construction."""


class ImproperColouringError(ColouringError):
    """A validator was handed a colouring violating an edge."""

    def __init__(self, edge: tuple[int, int]):
        self.edge = edge
        super().__init__(f"colouring is improper on edge {edge}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitmask adjacency."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    # -- basic queries ----------------------------------------------------

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def max_degree(self) -> int:
        return max(self.degrees()) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if v > u]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    # -- derived graphs ---------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask()
        return Graph(self.n, tuple(full & ~(self.adj[v] | (1 << v)) for v in range(self.n)))

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; vertices are relabelled in increasing order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        adj = [0] * len(vs)
        for v in vs:
            for w in bits(self.adj[v]):
                if w in index:
                    adj[index[v]] |= 1 << index[w]
        return Graph(len(vs), tuple(adj))

    # -- connectivity -----------------------------------------------------

    def component_masks(self) -> list[int]:
        seen = 0
        out = []
        for v in range(self.n):
            if (seen >> v) & 1:
                continue
            comp = 1 << v
            frontier = 1 << v
            while frontier:
                nxt = 0
                for u in bits(frontier):
                    nxt |= self.adj[u]
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            out.append(comp)
        return out

    def components(self) -> list[tuple[int, ...]]:
        return [tuple(bits(m)) for m in self.component_masks()]

    def is_bipartite(self) -> bool:
        """Whether the graph has a proper 2-colouring."""
        colour = [-1] * self.n
        for s in range(self.n):
            if colour[s] != -1:
                continue
            colour[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for w in bits(self.adj[u]):
                    if colour[w] == -1:
                        colour[w] = colour[u] ^ 1
                        stack.append(w)
                    elif colour[w] == colour[u]:
                        return False
        return True


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; vertices of ``g2`` are shifted up by ``g1.n``."""
    adj = list(g1.adj) + [a << g1.n for a in g2.adj]
    return Graph(g1.n + g2.n, tuple(adj))


def complete_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    mask1 = g1.full_mask()
    mask2 = (g2.full_mask()) << g1.n
    adj = [a | mask2 for a in g1.adj] + [(a << g1.n) | mask1 for a in g2.adj]
    return Graph(g1.n + g2.n, tuple(adj))


def co_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components of the complement of ``g``.

    Distinct co-components are complete to each other in ``g``.
    """
    return [tuple(sorted(c)) for c in sorted(g.complement().components())]


# -- m-degree, dense vertices, tightness ----------------------------------


@dataclass(frozen=True)
class TightAnalysis:
    m: int
    dense: frozenset[int]
    boundary: frozenset[int]
    is_tight: bool


def m_degree(g: Graph) -> int:
    """Largest k such that at least k vertices have degree >= k-1 (0 if empty)."""
    degs = sorted(g.degrees(), reverse=True)
    m = 0
    for k in range(1, g.n + 1):
        if degs[k - 1] >= k - 1:
            m = k
    return m


def analyze_tight(g: Graph) -> TightAnalysis:
    m = m_degree(g)
    if g.n == 0:
        return TightAnalysis(0, frozenset(), frozenset(), False)
    degs = g.degrees()
    dense = frozenset(v for v in range(g.n) if degs[v] >= m - 1)
    tight = len(dense) == m and all(degs[v] == m - 1 for v in dense)
    bmask = 0
    for v in dense:
        bmask |= g.adj[v]
    for v in dense:
        bmask &= ~(1 << v)
    return TightAnalysis(m, dense, frozenset(bits(bmask)), tight)


# -- colourings ------------------------------------------------------------


@dataclass(frozen=True)
class Colouring:
    """Total colouring with colours 1..k, every colour used.

    Properness is relative to a graph and is checked by the validators, not
    by the constructor.
    """

    colours: tuple[int, ...]
    k: int

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Colouring":
        cols = tuple(values)
        if not cols:
            return cls((), 0)
        k = max(cols)
        used = set(cols)
        if min(cols) < 1 or used != set(range(1, k + 1)):
            raise ColouringError(f"colours must be exactly 1..k, got {sorted(used)}")
        return cls(cols, k)

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {c: [] for c in range(1, self.k + 1)}
        for v, c in enumerate(self.colours):
            out[c].append(v)
        return {c: tuple(vs) for c, vs in out.items()}

    def class_masks(self) -> dict[int, int]:
        out = {c: 0 for c in range(1, self.k + 1)}
        for v, c in enumerate(self.colours):
            out[c] |= 1 << v
        return out


def proper_violation(g: Graph, c: Colouring) -> tuple[int, int] | None:
    """Return a monochromatic edge, or None if the colouring is proper."""
    if len(c.colours) != g.n:
        raise ColouringError(f"colouring covers {len(c.colours)} vertices, graph has {g.n}")
    for u, v in g.edges():
        if c.colours[u] == c.colours[v]:
            return (u, v)
    return None


def _require_proper(g: Graph, c: Colouring) -> None:
    bad = proper_violation(g, c)
    if bad is not None:
        raise ImproperColouringError(bad)


def _neighbour_colours(g: Graph, c: Colouring, v: int) -> set[int]:
    return {c.colours[w] for w in bits(g.adj[v])}


def is_b_chromatic_vertex(g: Graph, c: Colouring, v: int) -> bool:
    need = set(range(1, c.k + 1)) - {c.colours[v]}
    return need <= _neighbour_colours(g, c, v)


def is_b_colouring(g: Graph, c: Colouring) -> bool:
    """Every colour class contains a vertex adjacent to all other colours."""
    _require_proper(g, c)
    for _, members in c.classes().items():
        if not any(is_b_chromatic_vertex(g, c, v) for v in members):
            return False
    return True


def is_fall_colouring(g: Graph, c: Colouring) -> bool:
    """Every vertex adjacent to all other colours: classes are maximal
    independent sets."""
    _require_proper(g, c)
    return all(is_b_chromatic_vertex(g, c, v) for v in range(g.n))


def is_tight_b_colouring(g: Graph, c: Colouring) -> bool:
    """b-colouring with m(G) colours on a tight graph."""
    info = analyze_tight(g)
    return info.is_tight and c.k == info.m and is_b_colouring(g, c)


def is_maximal_independent_set(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask:
            return False
    for v in range(g.n):
        if not (mask >> v) & 1 and not (g.adj[v] & mask):
            return False
    return True
