"""Exact exponential-time solvers used as ground truth at desk scale.

Everything here is exhaustive search with pruning: partition backtracking
for chromatic and b-chromatic numbers, maximal-independent-set enumeration
plus exact cover for fall spectra, rainbow-neighbourhood backtracking for
tight b-colourings, plain DFS for 3-edge-colourings and 1-in-3
satisfiability, and minimal-vertex-cover enumeration plus blossom matching
for minimum maximal matchings.

Vertex budgets guard the calls that are exponential in n (for 1-in-3
satisfiability, n counts the formula's variables).  Every oracle's
``budget`` (``node_budget`` for ``tight_b_exact``) defaults to None, meaning
the oracle's own limit; this module is the only one that knows those limits.
Graphs whose independence number is at most 3 get a raised budget: their
colour classes have at most three vertices, so the chromatic number reduces
to an exact packing of edges and triangles in the complement, and their
maximal independent sets are the maximal cliques of the (sparse) complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (Colouring, Graph, GraphError, analyze_tight, bits,
                     is_maximal_independent_set, m_degree)
from .matching import maximum_matching

DEFAULT_NP_BUDGET = 16
DEFAULT_FALL_BUDGET = 14
# variables, not vertices: the 1-in-3 search time about doubles every 3 of them
DEFAULT_SAT_BUDGET = 30
RAISED_BUDGET = 32
DEFAULT_NODE_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Input too large for the requested oracle."""


def _past_limit(n: int, budget: int | None, default: int, oracle: str, *,
                raised: Graph | None = None) -> bool:
    """Raise BudgetExceededError when the input has more than ``budget``
    vertices or variables, ``n`` of them (``default`` when None).  A graph
    ``raised`` of independence number at most 3 is admitted up to
    RAISED_BUDGET instead, and True says so."""
    limit = default if budget is None else budget
    if n <= limit:
        return False
    if raised is not None and n <= RAISED_BUDGET and independence_number(raised) <= 3:
        return True
    raise BudgetExceededError(f"{oracle} oracle limited to n<={limit}, got n={n}")


class NotTightError(GraphError):
    pass


class NotCubicError(GraphError):
    pass


class FormulaError(ValueError):
    pass


# -- cliques and independent sets -------------------------------------------


def clique_number(g: Graph) -> int:
    best = 0

    def rec(cand: int, size: int) -> None:
        # only the include branch recurses; the exclude branch loops, so the
        # depth is at most the clique size + 1
        nonlocal best
        while size + cand.bit_count() > best:
            if not cand:
                best = size
                return
            v = (cand & -cand).bit_length() - 1
            rec(cand & g.adj[v], size + 1)
            cand &= ~(1 << v)

    rec(g.full_mask(), 0)
    return best


def independence_number(g: Graph) -> int:
    return clique_number(g.complement())


def maximal_cliques(g: Graph) -> list[int]:
    """All maximal cliques as bitmasks (Bron-Kerbosch with pivoting)."""
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot_pool = p | x
        u = (pivot_pool & -pivot_pool).bit_length() - 1
        best_u, best_cnt = u, (p & g.adj[u]).bit_count()
        for w in bits(pivot_pool):
            cnt = (p & g.adj[w]).bit_count()
            if cnt > best_cnt:
                best_u, best_cnt = w, cnt
        for v in bits(p & ~g.adj[best_u]):
            bk(r | (1 << v), p & g.adj[v], x & g.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if g.n:
        bk(0, g.full_mask(), 0)
    return sorted(out)


def maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets; each is also an independent dominating
    set, which is checked during enumeration."""
    sets = maximal_cliques(g.complement())
    if not all(is_maximal_independent_set(g, m) for m in sets):
        raise AssertionError("an enumerated set is not a maximal independent set")
    return sets


# -- chromatic number --------------------------------------------------------


def _exists_colouring(g: Graph, k: int) -> list[int] | None:
    """Proper colouring with at most k colours, canonical colour order."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    colour = [0] * n

    def rec(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        limit = min(used + 1, k)
        for c in range(1, limit + 1):
            if any(colour[w] == c for w in bits(g.adj[v])):
                continue
            colour[v] = c
            if rec(i + 1, max(used, c)):
                return True
            colour[v] = 0
        return False

    return colour[:] if rec(0, 0) else None


def _small_independence_chromatic(g: Graph) -> tuple[int, Colouring]:
    """Exact chromatic number when no four vertices are pairwise
    non-adjacent: colour classes have size <= 3, so chi(g) equals n minus the
    best disjoint packing of edges and triangles in the complement."""
    co = g.complement()
    tri_lowest: dict[int, list[int]] = {v: [] for v in range(co.n)}
    for u in range(co.n):
        for v in bits(co.adj[u]):
            if v <= u:
                continue
            for w in bits(co.adj[u] & co.adj[v]):
                if w > v:
                    tri_lowest[u].append((1 << u) | (1 << v) | (1 << w))

    best_gain = -1
    best_parts: list[int] = []

    def matching_parts(avoid: int) -> list[int]:
        rest = [v for v in range(co.n) if not (avoid >> v) & 1]
        sub = co.subgraph(rest)
        return [(1 << rest[a]) | (1 << rest[b]) for a, b in maximum_matching(sub).edges]

    def rec(v: int, used: int, tris: list[int]) -> None:
        nonlocal best_gain, best_parts
        while v < co.n and (used >> v) & 1:
            v += 1
        # vertices before v are reserved for the matching stage (gain 1/2
        # each); vertices from v on can at best sit in triangles (gain 2/3)
        behind = v - (used & ((1 << v) - 1)).bit_count()
        ahead = co.n - v - (used >> v).bit_count()
        if 2 * len(tris) + (2 * ahead) // 3 + behind // 2 <= best_gain:
            return
        if v == co.n:
            pairs = matching_parts(used)
            gain = 2 * len(tris) + len(pairs)
            if gain > best_gain:
                best_gain = gain
                best_parts = tris + pairs
            return
        for tri in tri_lowest[v]:
            if not tri & used:
                rec(v + 1, used | tri, tris + [tri])
        rec(v + 1, used, tris)

    rec(0, 0, [])
    colour = [0] * g.n
    c = 0
    for part in best_parts:
        c += 1
        for v in bits(part):
            colour[v] = c
    for v in range(g.n):
        if colour[v] == 0:
            c += 1
            colour[v] = c
    return c, Colouring.from_values(colour)


def chromatic_number(g: Graph, *, budget: int | None = None) -> tuple[int, Colouring]:
    if g.n == 0:
        return 0, Colouring((), 0)
    if _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "chromatic", raised=g):
        return _small_independence_chromatic(g)
    lower = clique_number(g)
    for k in range(lower, g.n + 1):
        found = _exists_colouring(g, k)
        if found is not None:
            return k, Colouring.from_values(found)
    raise AssertionError("unreachable: n colours always suffice")


# -- b-chromatic number -------------------------------------------------------


def _has_b_vertex_everywhere(g: Graph, class_masks: list[int]) -> bool:
    k = len(class_masks)
    for i, mask in enumerate(class_masks):
        ok = False
        for v in bits(mask):
            seen = 0
            for j, other in enumerate(class_masks):
                if j != i and g.adj[v] & other:
                    seen += 1
            if seen == k - 1:
                ok = True
                break
        if not ok:
            return False
    return True


def b_colouring_with(g: Graph, k: int, *, budget: int | None = None) -> Colouring | None:
    """A b-colouring using exactly k colours, or None."""
    _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "b-colouring")
    if k < 1 or k > g.n:
        return None
    colour = [0] * g.n
    classes: list[int] = []

    def rec(v: int) -> bool:
        if len(classes) + (g.n - v) < k or len(classes) > k:
            return False
        if v == g.n:
            return len(classes) == k and _has_b_vertex_everywhere(g, classes)
        for i in range(len(classes)):
            if not g.adj[v] & classes[i]:
                classes[i] |= 1 << v
                colour[v] = i + 1
                if rec(v + 1):
                    return True
                classes[i] &= ~(1 << v)
        if len(classes) < k:
            classes.append(1 << v)
            colour[v] = len(classes)
            if rec(v + 1):
                return True
            classes.pop()
        colour[v] = 0
        return False

    return Colouring.from_values(colour) if rec(0) else None


def b_chromatic_number(g: Graph, *, budget: int | None = None) -> tuple[int, Colouring]:
    """Largest k admitting a b-colouring with exactly k colours, searched
    top-down from the m-degree."""
    if g.n == 0:
        return 0, Colouring((), 0)
    for k in range(m_degree(g), 0, -1):
        c = b_colouring_with(g, k, budget=budget)
        if c is not None:
            return k, c
    raise AssertionError("unreachable: every graph has a b-colouring")


# -- tight b-colouring search --------------------------------------------------


@dataclass(frozen=True)
class TightSearch:
    status: str  # "found" | "absent" | "inconclusive"
    colouring: Colouring | None
    nodes: int


def tight_b_exact(g: Graph, *, node_budget: int | None = None) -> TightSearch:
    """Decide whether a tight graph has a b-colouring with m(G) colours.

    The dense vertices get the colours 1..m in index order (any tight
    b-colouring assigns them distinct colours, so this only breaks colour
    symmetry).  A dense vertex of degree m-1 is b-chromatic iff its closed
    neighbourhood carries all m colours exactly once, so the search maintains
    the set of colours already present around each dense vertex and extends
    the most constrained vertex first.  "inconclusive" is reported when the
    node budget runs out and is distinct from "absent".
    """
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    info = analyze_tight(g)
    if not info.is_tight:
        raise NotTightError("tight b-colouring search needs a tight input graph")
    m = info.m
    dense = sorted(info.dense)
    colour = [0] * g.n
    full_cols = (1 << m) - 1  # colour c occupies bit c-1

    closed = {u: g.adj[u] | (1 << u) for u in dense}
    watchers: list[list[int]] = [[] for _ in range(g.n)]
    for u in dense:
        for v in bits(closed[u]):
            watchers[v].append(u)

    used_around = {u: 0 for u in dense}
    for i, u in enumerate(dense):
        colour[u] = i + 1
    for u in dense:
        for v in bits(closed[u]):
            if colour[v]:
                bit = 1 << (colour[v] - 1)
                if used_around[u] & bit:
                    return TightSearch("absent", None, 0)
                used_around[u] |= bit

    uncoloured = [v for v in range(g.n) if colour[v] == 0]
    nodes = 0

    def allowed_mask(v: int) -> int:
        mask = full_cols
        for u in watchers[v]:
            mask &= ~used_around[u]
        for w in bits(g.adj[v]):
            if colour[w]:
                mask &= ~(1 << (colour[w] - 1))
        return mask

    def rec(remaining: list[int]) -> str:
        nonlocal nodes
        if not remaining:
            return "found"
        best_i, best_mask, best_cnt = -1, 0, m + 1
        for i, v in enumerate(remaining):
            mask = allowed_mask(v)
            cnt = mask.bit_count()
            if cnt == 0:
                return "absent"
            if cnt < best_cnt:
                best_i, best_mask, best_cnt = i, mask, cnt
        v = remaining[best_i]
        rest = remaining[:best_i] + remaining[best_i + 1:]
        for c in bits(best_mask):
            nodes += 1
            if nodes > node_budget:
                return "inconclusive"
            colour[v] = c + 1
            touched = []
            for u in watchers[v]:
                used_around[u] |= 1 << c
                touched.append(u)
            sub = rec(rest)
            if sub == "found":
                return "found"
            colour[v] = 0
            for u in touched:
                used_around[u] &= ~(1 << c)
            if sub == "inconclusive":
                return "inconclusive"
        return "absent"

    status = rec(uncoloured)
    if status == "found":
        return TightSearch("found", Colouring.from_values(colour), nodes)
    return TightSearch(status, None, nodes)


# -- fall spectrum --------------------------------------------------------------


@dataclass(frozen=True)
class FallSpectrum:
    """Achievable fall-colouring sizes with one witness per size."""

    values: tuple[int, ...]
    witnesses: dict[int, Colouring] = field(default_factory=dict, compare=False)

    def __contains__(self, k: int) -> bool:
        return k in self.values


def fall_spectrum(g: Graph, *, budget: int | None = None) -> FallSpectrum:
    """All k admitting a partition of V into k maximal independent sets."""
    if g.n == 0:
        return FallSpectrum(())
    _past_limit(g.n, budget, DEFAULT_FALL_BUDGET, "fall", raised=g)
    sets = maximal_independent_sets(g)
    by_lowest: dict[int, list[int]] = {}
    for s in sets:
        by_lowest.setdefault((s & -s).bit_length() - 1, []).append(s)

    full = g.full_mask()
    witnesses: dict[int, Colouring] = {}
    chosen: list[int] = []

    def rec(cov: int) -> None:
        if cov == full:
            k = len(chosen)
            if k not in witnesses:
                colour = [0] * g.n
                for i, s in enumerate(chosen):
                    for v in bits(s):
                        colour[v] = i + 1
                witnesses[k] = Colouring.from_values(colour)
            return
        low = (~cov & full)
        low = (low & -low).bit_length() - 1
        for s in by_lowest.get(low, ()):
            if not s & cov:
                chosen.append(s)
                rec(cov | s)
                chosen.pop()

    rec(0)
    return FallSpectrum(tuple(sorted(witnesses)), witnesses)


# -- 3-edge-colouring ------------------------------------------------------------


def three_edge_colouring(g: Graph, *, budget: int | None = None) -> dict[tuple[int, int], int] | None:
    """Proper 3-edge-colouring of a cubic graph, or None."""
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise NotCubicError("3-edge-colouring oracle expects a cubic graph")
    _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "edge-colouring")
    edges = g.edges()
    at_vertex: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, (u, v) in enumerate(edges):
        at_vertex[u].append(i)
        at_vertex[v].append(i)
    col = [0] * len(edges)

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        banned = {col[j] for j in at_vertex[u] + at_vertex[v] if col[j]}
        for c in (1, 2, 3):
            if c not in banned:
                col[i] = c
                if rec(i + 1):
                    return True
                col[i] = 0
        return False

    if not rec(0):
        return None
    return {edges[i]: col[i] for i in range(len(edges))}


# -- (3,3)-monotone formulas and 1-in-3 satisfiability -----------------------------


@dataclass(frozen=True)
class Formula33:
    """Positive 3-literal clauses, every variable in exactly three clauses,
    and as many clauses as variables."""

    variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.clauses) != self.variables:
            raise FormulaError("a (3,3)-formula has as many clauses as variables")
        occ = [0] * self.variables
        for cl in self.clauses:
            if len(set(cl)) != 3:
                raise FormulaError(f"clause {cl} must have three distinct variables")
            for x in cl:
                if not 0 <= x < self.variables:
                    raise FormulaError(f"variable {x} out of range")
                occ[x] += 1
        if any(o != 3 for o in occ):
            raise FormulaError("every variable must occur in exactly three clauses")


def one_in_three_sat(f: Formula33, *, budget: int | None = None) -> tuple[bool, ...] | None:
    """Assignment making exactly one variable per clause true, or None."""
    n = f.variables
    _past_limit(n, budget, DEFAULT_SAT_BUDGET, "1-in-3")
    value: list[bool | None] = [None] * n
    occurs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for cl in f.clauses:
        for x in cl:
            occurs[x].append(cl)

    def clause_state(cl) -> tuple[int, int]:
        true = sum(1 for x in cl if value[x] is True)
        undecided = sum(1 for x in cl if value[x] is None)
        return true, undecided

    def consistent(i: int) -> bool:
        # the other clauses are as they were when the last check passed
        for cl in occurs[i]:
            true, undecided = clause_state(cl)
            if true > 1 or true + undecided < 1:
                return False
        return True

    def rec(i: int) -> bool:
        if i == n:
            return all(clause_state(cl)[0] == 1 for cl in f.clauses)
        for choice in (False, True):
            value[i] = choice
            if consistent(i) and rec(i + 1):
                return True
        value[i] = None
        return False

    if rec(0):
        return tuple(bool(v) for v in value)
    return None


# -- minimum maximal matching -------------------------------------------------------


def min_maximal_matching_size(g: Graph, *, budget: int | None = None) -> int:
    """Smallest cardinality of a maximal matching.

    It equals the smallest edge dominating set (Yannakakis & Gavril 1980),
    which is the least cost |C| - nu(G[C]) over the minimal vertex covers C,
    nu being the maximum matching size (Fernau 2006):
    - for an edge dominating set D, the endpoints V(D) form a vertex cover
      and D is an edge cover of G[V(D)], so |D| >= |V(D)| - nu(G[V(D)])
      (Gallai); conversely a maximum matching of G[C] plus one edge from each
      unmatched vertex of a minimal cover C to a neighbour outside C
      dominates every edge;
    - adding a vertex to C adds 1 to |C| and at most 1 to nu, so the cost
      only grows on supersets and the least is reached at a minimal cover.
    The minimal covers are the complements of the maximal independent sets
    (at most 3^(n/3) of them, Moon & Moser).  They are taken by increasing
    size, and the loop stops once ceil(|C|/2), a lower bound on the cost of
    a cover, reaches the best cost found.
    """
    _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "matching")
    if not g.edge_count():
        return 0
    full = g.full_mask()
    covers = sorted((full & ~s for s in maximal_independent_sets(g)), key=int.bit_count)
    best = g.n
    for cover in covers:
        size = cover.bit_count()
        if (size + 1) // 2 >= best:
            break
        best = min(best, size - len(maximum_matching(g.subgraph(bits(cover)))))
    return best
