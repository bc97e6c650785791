"""Maximum matching by Edmonds' blossom contraction.

One matcher serves every caller: the precolouring-extension test asks it
for a perfect matching of its (bipartite) auxiliary graph, and the fall
solver and the chromatic and matching oracles need matchings in complements
and vertex covers, which are usually not bipartite.  It scans vertices in
index order so results are reproducible.  A matching is the frozenset of
its pairs (u, v), u < v.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph, GraphError, bits

Matching = frozenset[tuple[int, int]]


def check_matching(g: Graph, m: Matching) -> None:
    seen: set[int] = set()
    for u, v in m:
        if not g.has_edge(u, v):
            raise GraphError(f"matching pair ({u}, {v}) is not an edge")
        if u in seen or v in seen:
            raise GraphError(f"matching pair ({u}, {v}) shares a vertex")
        seen.update((u, v))


def maximum_matching(g: Graph) -> Matching:
    """Maximum matching in an arbitrary graph (blossom contraction)."""
    n = g.n
    match = [-1] * n
    # Greedy seed keeps the number of augmenting phases small.
    for u in range(n):
        if match[u] == -1:
            for w in bits(g.adj[u]):
                if match[w] == -1:
                    match[u] = w
                    match[w] = u
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        v = a
        while True:
            v = base[v]
            on_path[v] = True
            if match[v] == -1:
                break
            v = p[match[v]]
        v = b
        while True:
            v = base[v]
            if on_path[v]:
                return v
            v = p[match[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            p[i] = -1
            base[i] = i
            used[i] = False
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in bits(g.adj[v]):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # Odd cycle through the root of the tree: contract it.
                    curbase = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        to = find_augmenting(v)
        while to != -1:
            pv = p[to]
            ppv = match[pv]
            match[to] = pv
            match[pv] = to
            to = ppv

    return frozenset((u, match[u]) for u in range(n) if match[u] > u)


def perfect_matching(g: Graph) -> Matching | None:
    """A perfect matching if one exists, else None (odd order included)."""
    if g.n % 2 == 1:
        return None
    m = maximum_matching(g)
    return m if 2 * len(m) == g.n else None
