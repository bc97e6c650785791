"""The benchmark's own answer checker.

Nothing here imports ``bchromatic``: every witness the CLI returns is
re-checked against the benchmark's copy of the instance with the small
routines below, and every "no", minimum or maximum is compared with an
expected answer that the generator knew by construction or that a reference
search in this file computes.  Graphs are ``(n, adj)`` pairs, ``adj`` being
one neighbour bitmask per vertex.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from itertools import combinations

TIMING_FIELDS = ("timing_ms",)


# -- graphs ------------------------------------------------------------------


def from_edges(n: int, edges) -> tuple[int, tuple[int, ...]]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, tuple(adj)


def edges_of(g) -> list[tuple[int, int]]:
    n, adj = g
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def complement(g):
    n, adj = g
    full = (1 << n) - 1
    return n, tuple(full & ~(adj[v] | 1 << v) for v in range(n))


def ones(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def m_degree(g) -> int:
    degs = sorted((a.bit_count() for a in g[1]), reverse=True)
    return max([k for k in range(1, g[0] + 1) if degs[k - 1] >= k - 1], default=0)


def tight_facts(g) -> dict:
    """m-degree, dense set, boundary and tightness, computed independently."""
    n, adj = g
    m = m_degree(g)
    dense = [v for v in range(n) if adj[v].bit_count() >= m - 1] if n else []
    tight = n > 0 and len(dense) == m and all(adj[v].bit_count() == m - 1 for v in dense)
    around = 0
    for v in dense:
        around |= adj[v]
    boundary = [v for v in ones(around) if v not in dense]
    return {"m": m, "dense": dense, "boundary": boundary, "tight": tight}


def co_components(g) -> list[list[int]]:
    n, cadj = complement(g)
    seen, out = 0, []
    for s in range(n):
        if seen >> s & 1:
            continue
        comp, frontier = 1 << s, 1 << s
        while frontier:
            nxt = 0
            for v in ones(frontier):
                nxt |= cadj[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(ones(comp))
    return sorted(out)


# -- witness checks: each returns None when the witness is good ---------------


def colouring_problem(g, colours, k) -> str | None:
    n, adj = g
    if not isinstance(colours, list) or len(colours) != n:
        return "colouring does not cover the vertex set"
    if set(colours) != set(range(1, k + 1)):
        return f"colours are not exactly 1..{k}"
    for u, v in edges_of(g):
        if colours[u] == colours[v]:
            return f"edge ({u}, {v}) is monochromatic"
    return None


def _sees_all(g, colours, k, v) -> bool:
    seen = {colours[w] for w in ones(g[1][v])}
    return seen >= set(range(1, k + 1)) - {colours[v]}


def b_colouring_problem(g, colours, k) -> str | None:
    bad = colouring_problem(g, colours, k)
    if bad:
        return bad
    for c in range(1, k + 1):
        if not any(colours[v] == c and _sees_all(g, colours, k, v) for v in range(g[0])):
            return f"colour class {c} has no b-chromatic vertex"
    return None


def fall_colouring_problem(g, colours, k) -> str | None:
    bad = colouring_problem(g, colours, k)
    if bad:
        return bad
    for v in range(g[0]):
        if not _sees_all(g, colours, k, v):
            return f"vertex {v} is not b-chromatic"
    return None


def tight_b_colouring_problem(g, colours, k) -> str | None:
    facts = tight_facts(g)
    if not facts["tight"] or k != facts["m"]:
        return f"a tight b-colouring needs a tight graph and m={facts['m']} colours, got k={k}"
    return b_colouring_problem(g, colours, k)


def induced_copy_problem(g, h, image) -> str | None:
    """``image[i]`` is the host vertex of pattern vertex i."""
    n, adj = g
    if not isinstance(image, list) or len(image) != h[0] or len(set(image)) != h[0]:
        return "witness is not an injective map of the pattern"
    if any(not 0 <= x < n for x in image):
        return "witness vertex out of range"
    for a, b in combinations(range(h[0]), 2):
        if (h[1][a] >> b & 1) != (adj[image[a]] >> image[b] & 1):
            return f"pattern pair ({a}, {b}) is not preserved"
    return None


def edge_colouring_problem(g, colouring: dict) -> str | None:
    want = {f"{u},{v}" for u, v in edges_of(g)}
    if set(colouring) != want:
        return "edge colouring does not cover exactly the edges"
    at: dict[int, set] = {v: set() for v in range(g[0])}
    for key, c in colouring.items():
        u, v = map(int, key.split(","))
        if c not in (1, 2, 3) or c in at[u] or c in at[v]:
            return f"edge {key} breaks the 3-edge-colouring"
        at[u].add(c)
        at[v].add(c)
    return None


def one_in_three_problem(clauses, assignment) -> str | None:
    for cl in clauses:
        if sum(1 for x in cl if assignment[x]) != 1:
            return f"clause {cl} does not have exactly one true variable"
    return None


# -- reference searches for answers no witness can prove ----------------------


def chromatic_reference(g) -> int:
    n, adj = g
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())

    def colourable(k: int) -> bool:
        classes = [0] * k

        def rec(i: int, used: int) -> bool:
            if i == n:
                return True
            v = order[i]
            for c in range(min(used + 1, k)):
                if not classes[c] & adj[v]:
                    classes[c] |= 1 << v
                    if rec(i + 1, max(used, c + 1)):
                        return True
                    classes[c] &= ~(1 << v)
            return False

        return rec(0, 0)

    return next((k for k in range(1, n + 1) if colourable(k)), 0)


def maximal_independent_sets(g) -> list[int]:
    n, adj = g
    out = []

    def rec(v: int, chosen: int, blocked: int) -> None:
        if v == n:
            if all(chosen >> w & 1 or adj[w] & chosen for w in range(n)):
                out.append(chosen)
            return
        if not blocked >> v & 1:
            rec(v + 1, chosen | 1 << v, blocked | adj[v])
        rec(v + 1, chosen, blocked)

    rec(0, 0, 0)
    return out


def fall_spectrum_reference(g) -> list[int]:
    """Sizes of all partitions of V into maximal independent sets."""
    n = g[0]
    full = (1 << n) - 1
    by_low: dict[int, list[int]] = {}
    for s in maximal_independent_sets(g):
        by_low.setdefault((s & -s).bit_length() - 1, []).append(s)
    sizes: set[int] = set()

    @lru_cache(maxsize=None)
    def reachable(cov: int) -> frozenset:
        if cov == full:
            return frozenset((0,))
        low = ((~cov & full) & -(~cov & full)).bit_length() - 1
        out = set()
        for s in by_low.get(low, ()):
            if not s & cov:
                out |= {k + 1 for k in reachable(cov | s)}
        return frozenset(out)

    if n:
        sizes = set(reachable(0))
    return sorted(sizes)


def min_maximal_matching_reference(g) -> int:
    """Smallest maximal matching via its vertex set: a set C is the vertex
    set of a maximal matching iff C covers every edge and G[C] has a
    perfect matching."""
    n, adj = g
    edges = edges_of(g)
    if not edges:
        return 0

    @lru_cache(maxsize=None)
    def perfectly_matchable(mask: int) -> bool:
        if not mask:
            return True
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        return any(perfectly_matchable(rest & ~(1 << w)) for w in ones(adj[v] & rest))

    best = None
    for size in range(2, n + 1, 2):
        for chosen in combinations(range(n), size):
            mask = sum(1 << v for v in chosen)
            if all(mask >> u & 1 or mask >> v & 1 for u, v in edges) and perfectly_matchable(mask):
                best = size // 2
                break
        if best is not None:
            return best
    raise AssertionError("the vertex set of a maximum matching always qualifies")


def one_in_three_reference(variables: int, clauses) -> bool:
    for mask in range(1 << variables):
        if all(sum(mask >> x & 1 for x in cl) == 1 for cl in clauses):
            return True
    return False


def three_edge_colourable_reference(g) -> bool:
    edges = edges_of(g)
    col = [0] * len(edges)

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        banned = {col[j] for j in range(i) if set(edges[j]) & {u, v}}
        for c in (1, 2, 3):
            if c not in banned:
                col[i] = c
                if rec(i + 1):
                    return True
        col[i] = 0
        return False

    return rec(0)


def tight_b_colourable_reference(g) -> bool:
    """Exhaustive search over colourings that put colours 1..m on the dense
    vertices.  Only dense vertices can be b-chromatic with m colours, and a
    dense vertex has exactly m-1 neighbours, so each closed dense
    neighbourhood must carry every colour once."""
    n, adj = g
    facts = tight_facts(g)
    m, dense = facts["m"], facts["dense"]
    colour = [0] * n
    watchers = [[u for u in dense if v == u or adj[u] >> v & 1] for v in range(n)]
    around = {u: 0 for u in dense}
    for i, u in enumerate(dense):
        colour[u] = i + 1
    for u in dense:
        for v in ones(adj[u] | 1 << u):
            if colour[v]:
                if around[u] >> colour[v] & 1:
                    return False
                around[u] |= 1 << colour[v]
    rest = [v for v in range(n) if not colour[v]]

    def rec(i: int) -> bool:
        if i == len(rest):
            return True
        v = rest[i]
        for c in range(1, m + 1):
            if any(colour[w] == c for w in ones(adj[v])):
                continue
            if any(around[u] >> c & 1 for u in watchers[v]):
                continue
            colour[v] = c
            for u in watchers[v]:
                around[u] |= 1 << c
            if rec(i + 1):
                return True
            for u in watchers[v]:
                around[u] &= ~(1 << c)
        colour[v] = 0
        return False

    return rec(0)


def b_colourable_reference(g, k: int) -> bool:
    """Is there a b-colouring with exactly k colours?  Chooses the
    b-vertices first (one per class, in increasing index order, which only
    breaks colour symmetry), then colours the rest while every b-vertex can
    still collect its missing colours from its uncoloured neighbours."""
    n, adj = g
    if k == 0 or k > n:
        return k == 0 and n == 0
    cand = [v for v in range(n) if adj[v].bit_count() >= k - 1]
    colour = [0] * n

    def missing(b: int) -> int:
        need = ((1 << k) - 1) & ~(1 << (colour[b] - 1))
        for w in ones(adj[b]):
            if colour[w]:
                need &= ~(1 << (colour[w] - 1))
        return need

    def allowed(v: int) -> int:
        mask = (1 << k) - 1
        for w in ones(adj[v]):
            if colour[w]:
                mask &= ~(1 << (colour[w] - 1))
        return mask

    def feasible(bs) -> bool:
        """Every b-vertex can still get each missing colour from a distinct
        uncoloured neighbour that may take it."""
        for b in bs:
            need = missing(b)
            if not need:
                continue
            free = [w for w in ones(adj[b]) if not colour[w]]
            if need.bit_count() > len(free):
                return False
            reach = 0
            for w in free:
                reach |= allowed(w)
            if need & ~reach:
                return False
        return True

    def fill(bs, rest, i: int) -> bool:
        if i == len(rest):
            return all(not missing(b) for b in bs)
        v = rest[i]
        for c in range(1, k + 1):
            if all(colour[w] != c for w in ones(adj[v])):
                colour[v] = c
                if feasible(bs) and fill(bs, rest, i + 1):
                    return True
        colour[v] = 0
        return False

    def choose(start: int, bs: list) -> bool:
        if len(bs) == k:
            near = 0
            for b in bs:
                near |= adj[b]
            rest = sorted((v for v in range(n) if not colour[v]), key=lambda v: not near >> v & 1)
            return fill(bs, rest, 0)
        for idx in range(start, len(cand)):
            v = cand[idx]
            c = len(bs) + 1
            if any(colour[w] == c for w in ones(adj[v])):
                continue
            colour[v] = c
            bs.append(v)
            if feasible(bs) and choose(idx + 1, bs):
                return True
            bs.pop()
            colour[v] = 0
        return False

    return choose(0, [])


def b_colouring_refuted_above(g, k: int) -> bool:
    """No b-colouring uses more than k colours.  A b-colouring with j colours
    needs j vertices of degree >= j-1, so j never exceeds the m-degree."""
    return not any(b_colourable_reference(g, j) for j in range(k + 1, m_degree(g) + 1))


# -- report normalisation ------------------------------------------------------


def normalised(report) -> object:
    """The report with timing fields removed, for digest comparison."""
    if isinstance(report, dict):
        return {k: normalised(v) for k, v in report.items() if k not in TIMING_FIELDS}
    if isinstance(report, list):
        return [normalised(v) for v in report]
    return report


def graph_digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    text = json.dumps(normalised(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
