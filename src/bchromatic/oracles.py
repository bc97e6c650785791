"""Exact exponential-time solvers used as ground truth at desk scale.

Everything here is exhaustive search with pruning.  One canonical partition
search, ``_colour_search``, finds the first colouring with exactly k
colour classes, each with a b-vertex if asked; it serves the chromatic
number (degree order, k from the clique number up), the b-chromatic number
and 3-edge-colourings (3-colourings of the line graph, edges in index
order).  For b-colourings it keeps, as it places vertices, the live set:
the vertices whose seen classes plus uncoloured neighbours still reach
k-1.  That count only falls, so every b-vertex of a colouring below a node
is live there, and a node is cut once some class has no live member and
no uncoloured live vertex left to join it.  The cut keeps every
b-colouring, and at a leaf, where the live vertices are exactly those that
see the other k-1 classes, it accepts the b-colourings and nothing else,
so it is the search's only b-vertex test.  The b-chromatic number runs one
search per k, from the m-degree down, each in order of decreasing degree:
the searches above b(G) fail, and the one that succeeds at b(G) gives the
witness.  One exact-cover search, ``_exact_covers``, serves fall spectra
(partitions of V into maximal independent sets) and 1-in-3 satisfiability
(partitions of the clauses into the clause sets of the true variables).
The rest: rainbow-neighbourhood backtracking on an explicit stack, most
constrained vertex first, for tight b-colourings, and minimal-vertex-cover
enumeration plus blossom matching for minimum maximal matchings.

Vertex budgets guard the calls that are exponential in n (for 1-in-3
satisfiability, n counts the formula's variables).  Every oracle's
``budget`` (``node_budget`` for ``tight_b_exact``) defaults to None, meaning
the oracle's own limit; this module is the only one that knows those limits.
With no explicit budget, the chromatic and fall oracles admit graphs of
independence number at most 3 up to RAISED_BUDGET vertices: their colour
classes have at most three vertices, so the chromatic search starts at
max(omega, ceil(n/alpha)) colours instead of omega, and their
maximal independent sets are the maximal cliques of the (sparse) complement.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

# NotCubicError, NotTightError and FormulaError, which these oracles raise,
# stay importable from here
from .graphs import (Colouring, FallSpectrum, Graph, NotCubicError,  # noqa: F401
                     NotTightError, _require_cubic, _require_tight, bits,
                     is_maximal_independent_set, m_degree)
from .io import Formula33, FormulaError  # noqa: F401
from .matching import maximum_matching

DEFAULT_NP_BUDGET = 16
DEFAULT_FALL_BUDGET = 14
# variables, not vertices: on random (3,3)-formulas the median 1-in-3 search
# took 0.1, 1.1, 3.7 and 190 ms at 30, 45, 60 and 90 of them (2-CPU host)
DEFAULT_SAT_BUDGET = 30
RAISED_BUDGET = 32
DEFAULT_NODE_BUDGET = 10**7


class BudgetExceededError(ValueError):
    """Input too large for the requested oracle."""


def _past_limit(n: int, budget: int | None, default: int, oracle: str, *,
                raised: Graph | None = None) -> bool:
    """Raise BudgetExceededError when the input has more than ``budget``
    vertices or variables, ``n`` of them (``default`` when None).  With no
    explicit budget, a graph ``raised`` of independence number at most 3 is
    admitted up to RAISED_BUDGET instead, and True says so."""
    limit = default if budget is None else budget
    if n <= limit:
        return False
    if (budget is None and raised is not None and n <= RAISED_BUDGET
            and independence_number(raised) <= 3):
        return True
    raise BudgetExceededError(f"{oracle} oracle limited to n<={limit}, got n={n}")


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
    set, which is checked once all are enumerated."""
    sets = maximal_cliques(g.complement())
    if not all(is_maximal_independent_set(g, m) for m in sets):
        raise AssertionError("an enumerated set is not a maximal independent set")
    return sets


# -- the colouring search ----------------------------------------------------


def _b_vertices_possible(classes: list[int], near: list[int], live: int, left: int,
                         k: int) -> bool:
    """The node test of a b-colouring search with k colours, at a node
    with open ``classes``, their neighbourhoods ``near``, uncoloured
    vertices ``left`` and the ``live`` vertices of ``_colour_search``:
    False once some class can no longer get a b-vertex.

    A class with no live member needs an uncoloured live vertex with no
    neighbour in it, to join it later as its b-vertex, and so does each
    class not opened yet; the uncoloured live vertices must number at
    least the classes that need one.  Every b-colouring below the node
    takes the b-vertex of each class from those, a different one for each
    class, so a failed test cuts no b-colouring.  At a leaf nothing is
    uncoloured and the live vertices are exactly those that see the k-1
    other classes, so the test holds iff every class has one: it accepts
    the b-colourings and nothing else.  At the root it fails unless k
    vertices have degree k-1 or more, which rules out every k above m(G).
    """
    pool = live & left
    spare = pool.bit_count() - (k - len(classes))
    if spare < 0:
        return False
    for j, c in enumerate(classes):
        if c & live:
            continue
        if not spare or not pool & ~near[j]:
            return False
        spare -= 1
    return True


def _colour_search(adj: Sequence[int], k: int, order: list[int],
                   b_vertices: bool = False) -> list[int] | None:
    """The first colouring, in lexicographic order along ``order``, that
    splits the vertices of ``order`` into exactly k independent classes,
    each with a b-vertex if ``b_vertices``, returned as its k class masks:
    the i-th holds the vertices of colour i + 1.

    The search is canonical: each vertex joins an existing class it has no
    neighbour in, lowest first, or else opens the next class while fewer
    than k are open, and a subtree is cut when the open classes plus the
    vertices left cannot reach k.  The first leaf is the lexicographically
    first colouring, since renaming the colours of any other in order of
    first appearance gives a smaller canonical one.

    With ``b_vertices`` the search also carries, as it places vertices,
    ``near[j]``, the vertices with a neighbour in class j, and
    ``slack[u]``: the classes u sees plus its uncoloured neighbours, minus
    k-1.  Slack only falls.  When a neighbour of u joins a class u sees
    already, u loses an uncoloured neighbour and gains no class, so its
    slack drops by 1; when the neighbour joins or opens a class u does not
    see yet, u trades it for the class and its slack stays.  Slack bounds
    what u will see beyond k-1 colours, so ``live``, the vertices with
    slack at least 0 (at the root, those of degree k-1 or more), holds
    every b-vertex of every colouring below the node.  Placing v in class
    j changes the slack of ``adj[v] & live & near[j]`` alone (no slack is
    kept outside ``live``), on a copy of ``slack`` that undoing the step
    drops, so backtracking restores exactly those.
    ``_b_vertices_possible`` then tests every node, leaves included.
    """
    n = len(order)
    classes: list[int] = []
    left = [0] * (n + 1)  # left[i]: the vertices order[i:]
    for i in range(n - 1, -1, -1):
        left[i] = left[i + 1] | 1 << order[i]
    near: list[int] = []
    slack = [a.bit_count() - (k - 1) for a in adj] if b_vertices else []
    live = sum(1 << u for u, s in enumerate(slack) if s >= 0)

    # the bit loops are written out: they run at every node
    def rec(i: int) -> bool:
        nonlocal live, slack
        opened = len(classes)
        if opened + (n - i) < k:
            return False
        if b_vertices and not _b_vertices_possible(classes, near, live, left[i], k):
            return False
        if i == n:
            return True
        v = order[i]
        a = adj[v]
        bit = 1 << v
        for j in range(opened):
            if a & classes[j]:
                continue
            classes[j] |= bit
            if b_vertices:
                was = near[j]
                near[j] = was | a
                saved = slack
                hit = rest = a & live & was
                if hit:
                    slack = slack[:]
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    slack[u] -= 1
                    if slack[u] < 0:
                        live ^= low
                    rest ^= low
            if rec(i + 1):
                return True
            classes[j] ^= bit
            if b_vertices:
                near[j] = was
                live |= hit
                slack = saved
        if opened < k:
            classes.append(bit)
            if b_vertices:
                near.append(a)
            if rec(i + 1):
                return True
            classes.pop()
            if b_vertices:
                near.pop()
        return False

    return classes if rec(0) else None


# -- chromatic number --------------------------------------------------------


def chromatic_number(g: Graph, *, budget: int | None = None) -> tuple[int, Colouring]:
    # fewer than omega colours are impossible, nor fewer than n/alpha, since
    # a class holds at most alpha vertices; k-1 has failed before k is tried,
    # so a colouring with at most k colours uses exactly k
    raised = _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "chromatic", raised=g)
    low = -(-g.n // independence_number(g)) if raised else 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for k in range(max(low, clique_number(g)), g.n + 1):
        found = _colour_search(g.adj, k, order)
        if found is not None:
            return k, Colouring.from_class_masks(g.n, found)
    raise AssertionError("unreachable: n colours always suffice")


# -- b-chromatic number -------------------------------------------------------


def b_colouring_with(g: Graph, k: int, *, budget: int | None = None) -> Colouring | None:
    """A b-colouring using exactly k colours, or None."""
    _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "b-colouring")
    if not 0 <= k <= g.n:
        return None
    found = _colour_search(g.adj, k, list(range(g.n)), b_vertices=True)
    return None if found is None else Colouring.from_class_masks(g.n, found)


def b_chromatic_number(g: Graph, *, budget: int | None = None) -> tuple[int, Colouring]:
    """Largest k admitting a b-colouring with exactly k colours, and a
    b-colouring with k colours as witness.

    k runs down from the m-degree, each searched once in order of
    decreasing degree (lowest index on ties), which refutes a k above the
    b-chromatic number far sooner than index order.  The search's live-set
    cut keeps every b-colouring, and at a leaf it accepts exactly the
    b-colourings, so the first k found is b(G) and its witness is the
    first b-colouring along that order.
    ``b_colouring_with(g, k)`` gives the first one in index order instead.
    k = 0 is reached only on the empty graph."""
    _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "b-colouring")
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for k in range(m_degree(g), -1, -1):
        found = _colour_search(g.adj, k, by_degree, b_vertices=True)
        if found is not None:
            return k, Colouring.from_class_masks(g.n, found)
    raise AssertionError("unreachable: every graph has a b-colouring")


# -- tight b-colouring search --------------------------------------------------


class TightSearch(NamedTuple):
    status: str  # "found" | "absent" | "inconclusive"
    colouring: Colouring | None
    nodes: int


def tight_b_exact(g: Graph, *, node_budget: int | None = None) -> TightSearch:
    """Decide whether a tight graph has a b-colouring with m(G) colours.

    The dense vertices get the colours 1..m in index order (any tight
    b-colouring assigns them distinct colours, so this only breaks colour
    symmetry).  A dense vertex of degree m-1 is b-chromatic iff its closed
    neighbourhood carries all m colours exactly once.  So a vertex v
    coloured c takes c from the domain of every uncoloured vertex of
    ``hit[v]``: its neighbours and each dense closed neighbourhood that
    holds v.  The search never puts a colour twice into a dense vertex's
    closed neighbourhood, so at a leaf each of those m vertices has its
    own colour: a leaf is a tight b-colouring, and every tight
    b-colouring with the dense vertices on 1..m is a leaf.

    The domains ``allowed[w]`` of the uncoloured vertices are updated on
    each assignment instead of recomputed at every node, and ``by_size[k]``
    holds the uncoloured vertices with k colours left.  Each node colours
    the vertex with the fewest colours left (the most constrained first,
    as in Brelaz's DSATUR), lowest index on ties, with its colours in
    increasing order; a node where some vertex has no colour left is a
    dead end and counts no node.  Colouring v with c takes c from the
    uncoloured vertices of ``hit[v]`` that still have it (``has[c]``), and
    v's frame keeps exactly that set as its trail; undoing puts c back
    into those vertices only, last frame first.  The restore is exact.
    Within a dense closed neighbourhood no colour is placed twice, so c
    leaves and re-enters the domains there with v alone.  Elsewhere two
    non-adjacent neighbours of w may both hold c, and only the first of
    them to be coloured took c from w, so w gets c back only when that
    one is undone.  The frames ``[v, colours left, trail]`` sit on one
    explicit stack, so the depth is bounded by memory, not by a recursion
    limit.

    Each colour tried counts one node; "inconclusive" is reported once the
    count passes ``node_budget`` and is distinct from "absent".
    """
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    info = _require_tight(g)
    m = info.m
    adj = g.adj
    hit = list(adj)
    for u in info.dense:
        closed = adj[u] | 1 << u
        for v in bits(closed):
            hit[v] |= closed
    dense = sorted(info.dense)
    colour = [0] * g.n
    uncoloured = g.full_mask()
    for i, u in enumerate(dense):
        colour[u] = i + 1
        uncoloured ^= 1 << u
    # has[c]: the uncoloured vertices whose domain holds colour c+1 (bit c
    # of allowed[w]); hit is symmetric, so at the start that is everything
    # outside hit of the dense vertex coloured c+1
    has = [uncoloured & ~hit[u] for u in dense]
    # allowed[w] is column w of the rows has[m-1], ..., has[0]: write each
    # row's bits as text, least vertex first, and transpose with one zip
    rows = [bin(mask | 1 << g.n)[:2:-1] for mask in reversed(has)]
    allowed = [int("".join(col), 2) for col in zip(*rows)]
    by_size = [0] * (m + 1)
    for w in bits(uncoloured):
        by_size[allowed[w].bit_count()] |= 1 << w

    nodes = 0
    stack: list[list[int]] = []
    # the bit loops are written out: they run at every node
    while True:
        if not uncoloured:
            return TightSearch("found", Colouring.from_values(colour), nodes)
        if not by_size[0]:
            k = 1
            while not by_size[k]:
                k += 1
            low = by_size[k] & -by_size[k]
            by_size[k] ^= low
            uncoloured ^= low
            v = low.bit_length() - 1
            stack.append([v, allowed[v], 0])
        # undo the deepest assignment until a vertex has a colour left
        while True:
            if not stack:
                return TightSearch("absent", None, nodes)
            frame = stack[-1]
            v, left, trail = frame
            if colour[v]:
                c = colour[v] - 1
                cbit = 1 << c
                has[c] |= trail
                while trail:
                    low = trail & -trail
                    w = low.bit_length() - 1
                    a = allowed[w]
                    k = a.bit_count()
                    by_size[k] ^= low
                    by_size[k + 1] |= low
                    allowed[w] = a | cbit
                    trail ^= low
                colour[v] = 0
            if left:
                break
            stack.pop()
            uncoloured |= 1 << v
            by_size[allowed[v].bit_count()] |= 1 << v
        nodes += 1
        if nodes > node_budget:
            return TightSearch("inconclusive", None, nodes)
        cbit = left & -left
        c = cbit.bit_length() - 1
        frame[1] = left ^ cbit
        colour[v] = c + 1
        trail = frame[2] = hit[v] & uncoloured & has[c]
        has[c] ^= trail
        while trail:
            low = trail & -trail
            w = low.bit_length() - 1
            a = allowed[w]
            k = a.bit_count()
            by_size[k] ^= low
            by_size[k - 1] |= low
            allowed[w] = a ^ cbit
            trail ^= low


# -- exact cover --------------------------------------------------------------


def _exact_covers(full: int, sets: Sequence[int]) -> Iterator[list[int]]:
    """Every partition of the bitmask ``full`` into members of ``sets``, as
    a list of indices into ``sets`` in the order they were chosen.

    Each step covers the least uncovered element e, trying in list order
    the sets whose least element is e: every smaller element is covered
    already, so no other set can cover e without overlapping.  (This is
    the exact-cover problem of Knuth's "Dancing Links", 2000, searched on
    bitmasks.)  The frames, one candidate iterator per depth, sit on one
    explicit stack, so the depth is bounded by memory, not by a recursion
    limit.  The yielded list is the search's own and changes as the search
    goes on: copy it to keep it.
    """
    if not full:
        yield []
        return
    by_lowest: dict[int, list[tuple[int, int]]] = {}
    for i, s in enumerate(sets):
        by_lowest.setdefault(s & -s, []).append((s, i))
    chosen: list[int] = []
    cov = 0
    stack = [iter(by_lowest.get(full & -full, ()))]
    while stack:
        for s, i in stack[-1]:
            if not s & cov:
                break
        else:
            # no candidate left at this depth: undo the set that led here
            stack.pop()
            if chosen:
                cov ^= sets[chosen.pop()]
            continue
        chosen.append(i)
        cov |= s
        if cov == full:
            yield chosen
            cov ^= sets[chosen.pop()]
        else:
            rest = full & ~cov
            stack.append(iter(by_lowest.get(rest & -rest, ())))


# -- fall spectrum --------------------------------------------------------------


def fall_spectrum(g: Graph, *, budget: int | None = None) -> FallSpectrum:
    """All k admitting a partition of V into k maximal independent sets,
    each with the first such partition the exact-cover search meets."""
    if g.n == 0:
        return FallSpectrum(())
    _past_limit(g.n, budget, DEFAULT_FALL_BUDGET, "fall", raised=g)
    sets = maximal_independent_sets(g)
    witnesses: dict[int, Colouring] = {}
    for cover in _exact_covers(g.full_mask(), sets):
        if len(cover) not in witnesses:
            witnesses[len(cover)] = Colouring.from_class_masks(g.n, [sets[i] for i in cover])
    return FallSpectrum(tuple(sorted(witnesses)), witnesses)


# -- 3-edge-colouring ------------------------------------------------------------


def three_edge_colouring(g: Graph, *, budget: int | None = None) -> dict[tuple[int, int], int] | None:
    """Proper 3-edge-colouring of a cubic graph, or None."""
    _require_cubic(g)
    _past_limit(g.n, budget, DEFAULT_NP_BUDGET, "edge-colouring")
    # a proper 3-edge-colouring is a 3-colouring of the line graph
    edges = g.edges()
    at_vertex = [0] * g.n
    for i, (u, v) in enumerate(edges):
        at_vertex[u] |= 1 << i
        at_vertex[v] |= 1 << i
    line = [(at_vertex[u] | at_vertex[v]) & ~(1 << i) for i, (u, v) in enumerate(edges)]
    classes = _colour_search(line, 3 if edges else 0, list(range(len(edges))))
    if classes is None:
        return None
    return dict(zip(edges, Colouring.from_class_masks(len(edges), classes).colours))


# -- (3,3)-monotone formulas and 1-in-3 satisfiability -----------------------------


def one_in_three_sat(f: Formula33, *, budget: int | None = None) -> tuple[bool, ...] | None:
    """Assignment making exactly one variable per clause true, or None.

    The true variables of such an assignment are those whose clause sets
    partition the clauses, so the first exact cover of the clauses by the
    variables' clause sets is the answer."""
    n = f.variables
    _past_limit(n, budget, DEFAULT_SAT_BUDGET, "1-in-3")
    occurs = [0] * n  # occurs[x]: the clauses holding x, as a bitmask
    for j, cl in enumerate(f.clauses):
        for x in cl:
            occurs[x] |= 1 << j
    cover = next(_exact_covers((1 << len(f.clauses)) - 1, occurs), None)
    if cover is None:
        return None
    true = set(cover)
    return tuple(x in true for x in range(n))


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
    full = g.full_mask()
    covers = sorted((full & ~s for s in maximal_independent_sets(g)), key=int.bit_count)
    best = g.n
    for cover in covers:
        size = cover.bit_count()
        if (size + 1) // 2 >= best:
            break
        best = min(best, size - len(maximum_matching(g.subgraph(bits(cover)))))
    return best
