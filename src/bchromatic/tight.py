"""Tight b-colourings via partial colourings and precolouring extension.

For a tight graph G with dense set T (|T| = m, all of degree m-1) the solver
machinery works with *partial b-colourings*: a colouring c' of G[T + S'] for
some subset S' of the outer boundary of T such that

1. the vertices of T get pairwise distinct colours, and
2. whenever a boundary vertex s in S' shares its colour with u in T, every
   other vertex of T has exactly one neighbour in that colour.

A *b-precolouring extension* of c' is a b-colouring of G that extends c' and
in which no colour class holding two or more boundary vertices contains a
vertex of the untouched boundary.  Such an extension is automatically a
tight b-colouring (it can use no new colours beyond the m on T).

Whether an extension exists is decidable in polynomial time: split T into
the dominating vertices T1 of G[T], the vertices T' that share a colour with
S', and the rest T2.  If T2 is empty, an extension exists iff S' already
covers the whole boundary, and then a greedy completion works.  Otherwise
pair T2 against the uncoloured boundary S with an auxiliary bipartite graph
(u and s are pairable iff non-adjacent with no common neighbour inside
(T2 + T') - u) and test for a perfect matching.

On top of the extension test sits the (2P2+P1)-free algorithm, which
forces boundary colours through the T(u,s) completeness rule.  A tight
graph that is the join of two or more co-components has a tight
b-colouring only when it is complete (see ``solve_tight``), so on a
(P3+P1)-free graph the same core runs on the whole graph or the answer is
no outright.  ``solve_tight`` is the one place that chooses between the two
classes and the exact oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (Colouring, Graph, GraphError, PreconditionError, TightAnalysis,
                     _class_masks, _monochromatic_edge, _require_tight, bits)
from .matching import perfect_matching
from .patterns import is_free, p3p1_decomposition


class PartialBColouring(NamedTuple):
    host: Graph
    s_prime: frozenset[int]
    colours: dict[int, int]
    analysis: TightAnalysis

    @property
    def m(self) -> int:
        return self.analysis.m


class PartialViolation(NamedTuple):
    clause: str  # "properness" | "t-distinct" | "colour-range" | "unique-neighbour"
    detail: str


class DensePartition(NamedTuple):
    t1: frozenset[int]
    t2: frozenset[int]
    t_prime: frozenset[int]
    s: frozenset[int]


def validate_partial(g: Graph, s_prime, colours: dict[int, int]) -> PartialBColouring | PartialViolation:
    """Check the two partial-b-colouring conditions.

    Returns the validated value, or the violated clause.  Domain errors
    (host not tight, S' outside the boundary, colours not covering T + S')
    raise instead: they are misuse, not "no" answers.
    """
    return _validate_partial(g, _require_tight(g), s_prime, colours)


def _validate_partial(g: Graph, info: TightAnalysis, s_prime,
                      colours: dict[int, int]) -> PartialBColouring | PartialViolation:
    s_prime = frozenset(s_prime)
    if not s_prime <= info.boundary:
        raise GraphError(f"S' must lie inside the dense boundary {sorted(info.boundary)}")
    domain = info.dense | s_prime
    if set(colours) != domain:
        raise GraphError("colours must be defined on exactly T and S'")

    m = info.m
    if any(not 1 <= colours[v] <= m for v in domain):
        return PartialViolation("colour-range", f"colours must lie in 1..{m}")
    t_cols = [colours[u] for u in sorted(info.dense)]
    if len(set(t_cols)) != m:
        return PartialViolation("t-distinct", "dense vertices must get pairwise distinct colours")
    classes = _class_masks(colours.items(), m)
    bad = _monochromatic_edge(g.adj, sorted(colours.items()), classes)
    if bad is not None:
        return PartialViolation("properness", f"edge {bad} is monochromatic")

    shared = {colours[s] for s in s_prime}
    for u in sorted(info.dense):
        if colours[u] not in shared:
            continue
        for w in sorted(info.dense - {u}):
            hits = (g.adj[w] & classes[colours[u]]).bit_count()
            if hits != 1:
                return PartialViolation(
                    "unique-neighbour",
                    f"dense vertex {w} has {hits} neighbours of colour {colours[u]}, needs exactly 1",
                )
    return PartialBColouring(g, s_prime, dict(colours), info)


def dense_partition(p: PartialBColouring) -> DensePartition:
    """Split T into dominating vertices, colour-shared vertices and the rest."""
    g, info = p.host, p.analysis
    dense = info.dense
    dense_mask = sum(1 << v for v in dense)
    t1 = frozenset(u for u in dense if g.adj[u] & dense_mask == dense_mask & ~(1 << u))
    shared_cols = {p.colours[s] for s in p.s_prime}
    t_prime = frozenset(u for u in dense if p.colours[u] in shared_cols)
    if t1 & t_prime:
        raise AssertionError("dominating dense vertices can never share a colour with the boundary")
    t2 = dense - t1 - t_prime
    return DensePartition(t1, t2, t_prime, info.boundary - p.s_prime)


def _greedy_complete(g: Graph, colour: list[int], m: int) -> None:
    # every uncoloured vertex is non-dense, hence has degree <= m-2
    members = [0] * (m + 1)  # members[c]: the vertices coloured c so far
    for v, c in enumerate(colour):
        members[c] |= 1 << v
    for v in bits(members[0]):
        a = g.adj[v]
        for c in range(1, m + 1):
            if not members[c] & a:
                colour[v] = c
                members[c] |= 1 << v
                break
        else:
            raise AssertionError("a non-dense vertex always has a free colour")


def extend_partial(p: PartialBColouring) -> Colouring | None:
    """Decide and construct a b-precolouring extension of ``p``.

    Returns a tight b-colouring extending the partial colouring, or None if
    no extension in the sense above exists.
    """
    g, info = p.host, p.analysis
    m = info.m
    part = dense_partition(p)
    colour = [0] * g.n
    for v, c in p.colours.items():
        colour[v] = c

    if not part.t2:
        if part.s:
            return None
        _greedy_complete(g, colour, m)
        return Colouring.from_values(colour)

    t2 = sorted(part.t2)
    s = sorted(part.s)
    if len(t2) != len(s):
        return None

    # Pairing graph: u in T2 may share its class with s iff they are
    # non-adjacent and no vertex of (T2 + T') - u sees both.
    t2t_mask = 0
    for v in part.t2 | part.t_prime:
        t2t_mask |= 1 << v
    aux_edges = []
    for i, u in enumerate(t2):
        for j, w in enumerate(s):
            if g.has_edge(u, w):
                continue
            if g.adj[u] & g.adj[w] & (t2t_mask & ~(1 << u)):
                continue
            aux_edges.append((i, len(t2) + j))
    matching = perfect_matching(Graph.from_edges(len(t2) + len(s), aux_edges))
    if matching is None:
        return None
    for a, b in matching:  # a < b: a indexes T2, b the boundary
        colour[s[b - len(t2)]] = colour[t2[a]]
    _greedy_complete(g, colour, m)
    return Colouring.from_values(colour)


# -- (2P2+P1)-free tight graphs ---------------------------------------------


def boundary_forcings(g: Graph, info: TightAnalysis) -> dict[int, int] | None:
    """Colour forcings implied by the T(u,s) completeness rule.

    For non-adjacent u in T and s in the boundary, T(u,s) holds the
    neighbours of s in T avoiding u.  When that set is non-empty and complete
    to the rest of T (minus u), s can only ever take u's colour.  Returns
    {boundary vertex: colour}, or None when two forcings clash, which already
    refutes the existence of a tight b-colouring.
    """
    dense = sorted(info.dense)
    dense_mask = sum(1 << v for v in dense)
    col_of = {u: i + 1 for i, u in enumerate(dense)}
    forced: dict[int, int] = {}
    for u in dense:
        for s in sorted(info.boundary):
            if g.has_edge(u, s):
                continue
            t_us = g.adj[s] & dense_mask & ~g.adj[u] & ~(1 << u)
            if not t_us:
                continue
            rest = dense_mask & ~t_us & ~(1 << u)
            if all(g.adj[v] & rest == rest for v in bits(t_us)):
                if s in forced and forced[s] != col_of[u]:
                    return None
                forced[s] = col_of[u]
    return forced


def tight_b_2p2p1_free(g: Graph) -> Colouring | None:
    """Tight b-colouring of a tight (2P2+P1)-free graph, or None.

    Colour T by 1..m, force boundary colours via the completeness rule,
    validate the resulting partial colouring, then run the extension test.
    """
    info = _require_tight(g)
    if not is_free(g, "2P2+P1"):
        raise PreconditionError("input graph is not (2P2+P1)-free")
    return _tight_2p2p1(g, info)


def _tight_2p2p1(g: Graph, info: TightAnalysis) -> Colouring | None:
    forced = boundary_forcings(g, info)
    if forced is None:
        return None
    colours = {u: i + 1 for i, u in enumerate(sorted(info.dense))}
    colours.update(forced)
    partial = _validate_partial(g, info, forced, colours)
    if isinstance(partial, PartialViolation):
        return None
    return extend_partial(partial)


# -- dispatch --------------------------------------------------------------------


class TightSolve(NamedTuple):
    path: str  # "(2P2+P1)-free" | "(P3+P1)-free" | "oracle"
    status: str  # "found" | "absent" | "inconclusive"
    colouring: Colouring | None
    m: int
    nodes: int | None  # oracle search nodes; None on the polynomial paths


def solve_tight(g: Graph, *, node_budget: int | None = None) -> TightSolve:
    """Tight b-colouring by class: the (2P2+P1)-free solver, else the
    (P3+P1)-free rule, else the exact oracle within ``node_budget``.

    Each class is recognised once: one induced 2P2+P1 search, then the
    co-component decomposition, which recognises (P3+P1)-freeness and
    counts the co-components.  Distinct co-components are complete to each
    other, and a tight graph with two or more co-components has a tight
    b-colouring only when it is complete.  Let T be the m dense vertices,
    each of degree m-1, V_i a co-component and p_i the largest degree
    inside G[V_i]:

    * each vertex of V_i sees all n - |V_i| vertices outside V_i, so a V_i
      without dense vertices would see all of T and its vertices would be
      dense; hence every V_i meets T;
    * a dense u in V_i has m - 1 - (n - |V_i|) neighbours inside V_i, the
      largest inner degree p_i, so |T & V_i| = p_i + 1 + (number of
      non-dense vertices outside V_i);
    * in a tight b-colouring each class holds exactly one dense vertex (its
      b-chromatic vertex) and lies inside one co-component, so |T & V_i|
      classes meet V_i, and a dense u in V_i sees the other |T & V_i| - 1
      of them among its p_i inner neighbours: |T & V_i| <= p_i + 1.

    With two or more co-components every vertex lies outside some V_i, so
    the bound holds for all i only when every vertex is dense, that is when
    G = K_n.  Any other such join is refuted.  Otherwise a (P3+P1)-free G
    is K_n or one co-component, and the (2P2+P1)-free core colours it: a
    graph without an independent triple is (2P2+P1)-free, and in a union of
    cliques the dense set is the unique largest clique with an empty
    boundary, so the core forces nothing and its greedy completion colours
    each clique 1, 2, ... in vertex order.

    Raises NotTightError, a PreconditionError, when ``g`` is not tight.
    """
    info = _require_tight(g)
    if is_free(g, "2P2+P1"):
        path, c = "(2P2+P1)-free", _tight_2p2p1(g, info)
    elif (parts := p3p1_decomposition(g)) is not None:
        refuted = len(parts) > 1 and info.m < g.n
        path, c = "(P3+P1)-free", None if refuted else _tight_2p2p1(g, info)
    else:
        from .oracles import tight_b_exact
        res = tight_b_exact(g, node_budget=node_budget)
        return TightSolve("oracle", res.status, res.colouring, info.m, res.nodes)
    return TightSolve(path, "absent" if c is None else "found", c, info.m, None)
