"""Core graph type, combination operators and colouring validators.

Graphs are undirected, simple, and live on vertex set {0, ..., n-1}.
Adjacency is stored as one integer bitmask per vertex, which keeps the
exhaustive sweeps and the backtracking oracles fast without any third-party
dependency.

Colouring vocabulary used throughout the package:

* a *colouring* maps each vertex to a colour in {1, ..., k} so that adjacent
  vertices differ, and every colour in the range is used;
* a vertex is *b-chromatic* if it has a neighbour of every colour other than
  its own.  With N(C) the vertices next to a class C, the b-chromatic
  vertices are B = the intersection over all classes C of C | N(C): each
  class holds the vertex or one of its neighbours;
* a *b-colouring* has a b-chromatic vertex in every colour class (the
  paper's condition (i): every class meets B);
* a *fall colouring* has every vertex b-chromatic (condition (iii): B = V;
  equivalently, every colour class is a maximal independent set);
* the *m-degree* m(G) is the largest k such that at least k vertices have
  degree >= k-1; vertices of degree >= m(G)-1 are *dense*;
* G is *tight* if it has exactly m(G) dense vertices, each of degree exactly
  m(G)-1, and a *tight b-colouring* is a b-colouring with m(G) colours.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class GraphError(ValueError):
    """Invalid graph construction or graph-level precondition failure."""


class PreconditionError(GraphError):
    """Solver called outside its graph class."""


class NotTightError(PreconditionError):
    pass


class NotCubicError(GraphError):
    pass


class ColouringError(ValueError):
    """Invalid colouring construction."""


class ImproperColouringError(ColouringError):
    """A validator was handed a colouring violating an edge."""

    def __init__(self, edge: tuple[int, int]):
        self.edge = edge
        super().__init__(f"colouring is improper on edge {edge}")


# the digits of bin() as the bytes 0 and 1
_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_set = object.__setattr__


class _Value:
    """The package's one record base (plain results are ``NamedTuple``s).
    Its fields are its ``__slots__``, set once by ``__init__`` through
    ``_set``: assigning or deleting a field raises AttributeError.  It
    equals a record of its own class with the same ``_key()`` (every field
    unless the class says otherwise) and hashes by that key, its repr names
    every field, and copy and pickle rebuild it through ``__init__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    _key = _fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__


class Graph(_Value):
    """Immutable simple graph on vertices 0..n-1 with bitmask adjacency."""

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]):
        _set(self, "n", n)
        _set(self, "adj", adj)

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

    def higher_flags(self, u: int) -> bytes:
        """Byte i is 1 if u + 1 + i is a neighbour of u and 0 if not, up to
        u's highest neighbour: selectors for ``itertools.compress``."""
        return bin(self.adj[u] >> (u + 1))[:1:-1].encode().translate(_FLAG_BYTES)

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, in increasing order."""
        n = self.n
        return [(u, v) for u in range(n) for v in compress(range(u + 1, n), self.higher_flags(u))]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    # -- derived graphs ---------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask()
        return Graph(self.n, tuple(full & ~(self.adj[v] | (1 << v)) for v in range(self.n)))

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; vertices are relabelled in increasing order.
        Every vertex gives the graph itself, which is frozen, not a copy."""
        vs = sorted(set(vertices))
        if vs and not (vs[0] >= 0 and vs[-1] < self.n):
            raise GraphError(f"subgraph vertices {vs[0]}..{vs[-1]} out of range for n={self.n}")
        if len(vs) == self.n and vs == list(range(self.n)):
            return self
        index = {v: i for i, v in enumerate(vs)}
        adj = [0] * len(vs)
        for v in vs:
            for w in bits(self.adj[v]):
                if w in index:
                    adj[index[v]] |= 1 << index[w]
        return Graph(len(vs), tuple(adj))

    # -- connectivity -----------------------------------------------------

    def component_masks(self, within: int | None = None, *, co: bool = False) -> list[int]:
        """The components of the subgraph induced by ``within`` (every
        vertex by default), in order of their least vertex.  With ``co`` the
        search walks non-edges, which gives the components of the
        complement without building it."""
        adj = self.adj
        left = self.full_mask() if within is None else within
        out = []
        while left:
            comp = frontier = left & -left
            while frontier:
                nxt = 0
                for u in bits(frontier):
                    nxt |= ~adj[u] if co else adj[u]
                frontier = nxt & left & ~comp
                comp |= frontier
            left ^= comp
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
    """Vertex sets of the connected components of the complement of ``g``,
    in order of their least vertex.

    Distinct co-components are complete to each other in ``g``.
    """
    return [tuple(bits(m)) for m in g.component_masks(co=True)]


# -- m-degree, dense vertices, tightness ----------------------------------


class TightAnalysis(NamedTuple):
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


def _require_tight(g: Graph) -> TightAnalysis:
    info = analyze_tight(g)
    if not info.is_tight:
        raise NotTightError("input graph is not tight")
    return info


def _require_cubic(g: Graph) -> None:
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise NotCubicError("input graph is not cubic")


# -- colourings ------------------------------------------------------------


class Colouring(_Value):
    """Total colouring with colours 1..k, every colour used, which the
    constructor checks.

    Properness is relative to a graph and is checked by the validators, not
    by the constructor.
    """

    __slots__ = ("colours", "k")
    colours: tuple[int, ...]
    k: int

    def __init__(self, colours: tuple[int, ...], k: int):
        used = set(colours)
        if used != set(range(1, k + 1)):
            raise ColouringError(f"colours must be exactly 1..k, got {sorted(used)}")
        _set(self, "colours", colours)
        _set(self, "k", k)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Colouring":
        cols = tuple(values)
        return cls(cols, max(cols, default=0))

    @classmethod
    def from_class_masks(cls, n: int, masks: Iterable[int]) -> "Colouring":
        """The colouring of n vertices that gives the members of the i-th
        mask colour i."""
        colour = [0] * n
        for c, mask in enumerate(masks, 1):
            for v in bits(mask):
                colour[v] = c
        return cls.from_values(colour)

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {c: [] for c in range(1, self.k + 1)}
        for v, c in enumerate(self.colours):
            out[c].append(v)
        return {c: tuple(vs) for c, vs in out.items()}

    def class_masks(self) -> dict[int, int]:
        return _class_masks(enumerate(self.colours), self.k)


class FallSpectrum(_Value):
    """Achievable fall-colouring sizes with one witness per size; equal
    spectra have the same values, whatever their witnesses."""

    __slots__ = ("values", "witnesses")
    values: tuple[int, ...]
    witnesses: dict[int, Colouring]

    def __init__(self, values: tuple[int, ...], witnesses: dict[int, Colouring] | None = None):
        _set(self, "values", values)
        _set(self, "witnesses", {} if witnesses is None else witnesses)

    def _key(self) -> tuple:
        return (self.values,)


def _class_masks(coloured: Iterable[tuple[int, int]], k: int) -> dict[int, int]:
    """{colour: bitmask of its vertices} for colours 1..k, from (vertex,
    colour) pairs."""
    out = dict.fromkeys(range(1, k + 1), 0)
    for v, c in coloured:
        out[c] |= 1 << v
    return out


def _monochromatic_edge(adj: Sequence[int], coloured: Iterable[tuple[int, int]],
                        classes: Mapping[int, int]) -> tuple[int, int] | None:
    """The least edge (u, v), u < v, whose ends share a class, or None;
    ``coloured`` gives the (vertex, colour) pairs in increasing vertex order
    and ``classes`` the mask of each colour."""
    for u, c in coloured:
        above = (adj[u] & classes[c]) >> (u + 1)
        if above:
            return (u, u + (above & -above).bit_length())
    return None


def _covering_classes(g: Graph, c: Colouring) -> dict[int, int]:
    """The class masks of ``c``, which must colour every vertex of ``g``."""
    if len(c.colours) != g.n:
        raise ColouringError(f"colouring covers {len(c.colours)} vertices, graph has {g.n}")
    return c.class_masks()


def proper_violation(g: Graph, c: Colouring) -> tuple[int, int] | None:
    """Return the least monochromatic edge, or None if the colouring is proper."""
    return _monochromatic_edge(g.adj, enumerate(c.colours), _covering_classes(g, c))


def _proper_classes(g: Graph, c: Colouring) -> dict[int, int]:
    """The class masks of ``c``; raises ImproperColouringError on the least
    monochromatic edge."""
    masks = _covering_classes(g, c)
    bad = _monochromatic_edge(g.adj, enumerate(c.colours), masks)
    if bad is not None:
        raise ImproperColouringError(bad)
    return masks


def _b_vertices(g: Graph, classes: Iterable[int]) -> int:
    """The b-chromatic vertices of a colouring with these class masks, as
    one mask: the vertices that every class holds or is next to."""
    out = g.full_mask()
    for mask in classes:
        reach = mask
        for v in bits(mask):
            reach |= g.adj[v]
        out &= reach
    return out


def is_b_chromatic_vertex(g: Graph, c: Colouring, v: int) -> bool:
    if v not in range(g.n):
        raise IndexError(f"vertex {v} out of range for a graph on {g.n} vertices")
    return bool(_b_vertices(g, _covering_classes(g, c).values()) >> v & 1)


def is_b_colouring(g: Graph, c: Colouring) -> bool:
    """Every colour class contains a vertex adjacent to all other colours."""
    classes = _proper_classes(g, c).values()
    b = _b_vertices(g, classes)
    return all(mask & b for mask in classes)


def is_fall_colouring(g: Graph, c: Colouring) -> bool:
    """Every vertex adjacent to all other colours: classes are maximal
    independent sets."""
    return _b_vertices(g, _proper_classes(g, c).values()) == g.full_mask()


def is_tight_b_colouring(g: Graph, c: Colouring) -> bool:
    """b-colouring with m(G) colours on a tight graph."""
    info = analyze_tight(g)
    return info.is_tight and c.k == info.m and is_b_colouring(g, c)


def is_maximal_independent_set(g: Graph, mask: int) -> bool:
    """No edge inside ``mask``, and every vertex in it or next to it."""
    seen = 0
    for v in bits(mask):
        seen |= g.adj[v]
    return not (seen & mask) and (seen | mask) == g.full_mask()
