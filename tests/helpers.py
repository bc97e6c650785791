"""Shared test utilities: exhaustive enumerators, independent brute-force
oracles, and seeded random generators for the class sweeps.

Everything here is deliberately naive; these are the second routes that the
package code is checked against."""

from __future__ import annotations

import itertools
import random

from bchromatic.graphs import (Colouring, Graph, GraphError, NotTightError, analyze_tight,
                               bits, complete_join, disjoint_union, is_fall_colouring,
                               proper_violation)
from bchromatic.io import Formula33
from bchromatic.matching import Matching
from bchromatic.oracles import DEFAULT_NODE_BUDGET, TightSearch, maximal_independent_sets
from bchromatic.patterns import (_ClosedNeighbourhoods, _closed_non_neighbourhoods, _partitioned,
                                 is_forest, is_free, pattern_graph)


# -- writers and structure checks that the package itself never calls ---------


def write_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def write_formula(f: Formula33) -> str:
    lines = [f"p 13sat {f.variables}"]
    lines += [" ".join(str(x + 1) for x in cl) for cl in f.clauses]
    return "\n".join(lines) + "\n"


def check_matching(g: Graph, m: Matching) -> None:
    seen: set[int] = set()
    for u, v in m:
        if not g.has_edge(u, v):
            raise GraphError(f"matching pair ({u}, {v}) is not an edge")
        if u in seen or v in seen:
            raise GraphError(f"matching pair ({u}, {v}) shares a vertex")
        seen.update((u, v))


def is_linear_forest(g: Graph) -> bool:
    """Disjoint union of paths: acyclic with maximum degree at most 2."""
    return (g.n == 0 or g.max_degree() <= 2) and is_forest(g)


def is_union_of_cliques(g: Graph) -> bool:
    return _partitioned(_ClosedNeighbourhoods(g), g.full_mask())


def is_complete_multipartite(g: Graph) -> bool:
    return _partitioned(_closed_non_neighbourhoods(g), g.full_mask())


# -- enumerators and brute-force oracles --------------------------------------


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def all_graphs_up_to(n: int):
    for k in range(1, n + 1):
        yield from all_graphs(k)


def brute_max_matching_size(g: Graph) -> int:
    edges = g.edges()
    best = 0

    def rec(i: int, used: int, k: int) -> None:
        nonlocal best
        best = max(best, k)
        if i >= len(edges) or k + (len(edges) - i) <= best:
            return
        u, v = edges[i]
        if not ((used >> u) & 1) and not ((used >> v) & 1):
            rec(i + 1, used | (1 << u) | (1 << v), k + 1)
        rec(i + 1, used, k)

    rec(0, 0, 0)
    return best


def brute_independence_number(g: Graph) -> int:
    """The size of a largest independent set, by trying ever larger subsets."""
    size = 0
    while any(all(not g.has_edge(u, v) for u, v in itertools.combinations(s, 2))
              for s in itertools.combinations(range(g.n), size + 1)):
        size += 1
    return size


def find_clique(g: Graph, k: int) -> list[int] | None:
    """Some k pairwise adjacent vertices in increasing order, or None."""

    def rec(chosen: list[int], cand: int) -> list[int] | None:
        if len(chosen) == k:
            return chosen
        while len(chosen) + cand.bit_count() >= k:
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            found = rec(chosen + [v], cand & g.adj[v])
            if found is not None:
                return found
        return None

    return rec([], g.full_mask())


def brute_min_maximal_matching_size(g: Graph) -> int:
    """Every matching, grown edge by edge in index order; the smallest one
    that leaves no edge with both ends free."""
    edges = g.edges()
    best = len(edges)

    def rec(i: int, used: int, k: int) -> None:
        nonlocal best
        if i == len(edges):
            if all((used >> u) & 1 or (used >> v) & 1 for u, v in edges):
                best = min(best, k)
            return
        u, v = edges[i]
        if not ((used >> u) & 1) and not ((used >> v) & 1):
            rec(i + 1, used | (1 << u) | (1 << v), k + 1)
        rec(i + 1, used, k)

    rec(0, 0, 0)
    return best


def is_isomorphic(a: Graph, b: Graph) -> bool:
    from bchromatic.patterns import contains_induced
    return a.n == b.n and a.edge_count() == b.edge_count() \
        and contains_induced(a, b) is not None


def naive_contains_induced(g: Graph, h: Graph) -> bool:
    """All-subsets, all-bijections induced subgraph check."""
    if h.n > g.n:
        return False
    for subset in itertools.combinations(range(g.n), h.n):
        for perm in itertools.permutations(subset):
            if all(g.has_edge(perm[a], perm[b]) == h.has_edge(a, b)
                   for a in range(h.n) for b in range(a + 1, h.n)):
                return True
    return False


def search_order(h: Graph) -> list[int]:
    """The order the induced-pattern search places pattern vertices in:
    components by decreasing size (ties by smallest vertex), each in BFS
    order from its smallest vertex."""
    order: list[int] = []
    for comp in sorted(h.components(), key=lambda c: (-len(c), c)):
        i = len(order)
        order.append(comp[0])
        while i < len(order):
            order += [w for w in bits(h.adj[order[i]]) if w not in order]
            i += 1
    return order


def _is_dense(edges: int, n: int) -> bool:
    return n >= 2 and 2 * edges > n * (n - 1) // 2


def reference_contains_induced(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """The unpruned induced-pattern search: pattern vertices placed in
    ``search_order``, host candidates in increasing order, the first
    embedding wins; on hosts denser than half the pairs the order is that of
    the complement of ``h``.  The package's search must return exactly this
    witness."""
    if h.n > g.n:
        return None
    order = search_order(h.complement() if _is_dense(g.edge_count(), g.n) else h)
    image: dict[int, int] = {}

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for x in range(g.n):
            if x not in image.values() and all(
                    g.has_edge(x, y) == h.has_edge(v, u) for u, y in image.items()):
                image[v] = x
                if rec(i + 1):
                    return True
                del image[v]
        return False

    return tuple(image[v] for v in range(h.n)) if rec(0) else None


def reference_witness_table(n: int, h: Graph) -> dict[int, tuple[int, ...]]:
    """``reference_contains_induced`` for every labelled host on n vertices
    at once, keyed by the host's edge mask over combinations(range(n), 2)
    (the order ``all_graphs`` enumerates in); hosts without a copy are
    absent.  Maps are tried in lexicographic order of their images along the
    search order, and each claims every host that agrees with it on its
    image pairs and has not been claimed yet."""
    pairs = list(itertools.combinations(range(n), 2))
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    everything = (1 << len(pairs)) - 1
    table: dict[int, tuple[int, ...]] = {}
    for dense in (False, True):
        order = search_order(h.complement() if dense else h)
        for images in itertools.permutations(range(n), h.n):
            phi = dict(zip(order, images))
            span = edges = 0
            for a, b in itertools.combinations(range(h.n), 2):
                pair = bit[min(phi[a], phi[b]), max(phi[a], phi[b])]
                span |= pair
                if h.has_edge(a, b):
                    edges |= pair
            witness = tuple(phi[v] for v in range(h.n))
            free = everything & ~span
            sub = free
            while True:
                host = edges | sub
                if host not in table and _is_dense(host.bit_count(), n) == dense:
                    table[host] = witness
                if not sub:
                    break
                sub = (sub - 1) & free
    return table


def naive_edges(g: Graph) -> list[tuple[int, int]]:
    """Every edge (u, v) with u < v, read off ``bits`` vertex by vertex."""
    return [(u, v) for u in range(g.n) for v in bits(g.adj[u]) if v > u]


def naive_write_dimacs(g: Graph) -> str:
    """The canonical DIMACS text, one f-string per edge."""
    lines = [f"p edge {g.n} {g.edge_count()}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in naive_edges(g)]
    return "\n".join(lines) + "\n"


def independent_set_partitions(g: Graph):
    """All partitions of V into non-empty independent sets, as lists of
    masks (canonical enumeration: each vertex joins an existing class or
    opens the next one)."""
    classes: list[int] = []

    def rec(v: int):
        if v == g.n:
            yield list(classes)
            return
        for i in range(len(classes)):
            if not g.adj[v] & classes[i]:
                classes[i] |= 1 << v
                yield from rec(v + 1)
                classes[i] &= ~(1 << v)
        classes.append(1 << v)
        yield from rec(v + 1)
        classes.pop()

    yield from rec(0)


def masks_to_colouring(g: Graph, masks: list[int]) -> Colouring:
    colour = [0] * g.n
    for i, m in enumerate(masks, start=1):
        for v in bits(m):
            colour[v] = i
    return Colouring.from_values(colour)


def naive_fall_spectrum(g: Graph) -> set[int]:
    """Fall-colouring sizes via enumeration of all independent-set
    partitions (independent of the maximal-set exact-cover route)."""
    out = set()
    for masks in independent_set_partitions(g):
        c = masks_to_colouring(g, masks)
        if is_fall_colouring(g, c):
            out.add(len(masks))
    return out


def reference_fall_spectrum(g: Graph) -> dict[int, Colouring]:
    """For each k admitting a partition of V into k maximal independent
    sets, the first such partition as a colouring: the recursive exact
    cover that ``oracles.fall_spectrum`` replaced, kept as its reference
    (same values, same witnesses)."""
    sets = maximal_independent_sets(g)
    by_lowest: dict[int, list[int]] = {}
    for s in sets:
        by_lowest.setdefault((s & -s).bit_length() - 1, []).append(s)
    full = g.full_mask()
    witnesses: dict[int, Colouring] = {}
    chosen: list[int] = []

    def rec(cov: int) -> None:
        if cov == full:
            if len(chosen) not in witnesses:
                witnesses[len(chosen)] = masks_to_colouring(g, chosen)
            return
        low = ~cov & full
        for s in by_lowest.get((low & -low).bit_length() - 1, ()):
            if not s & cov:
                chosen.append(s)
                rec(cov | s)
                chosen.pop()

    if g.n:
        rec(0)
    return witnesses


def naive_tight_b_colourings(g: Graph):
    """All tight b-colourings via unpruned partition enumeration."""
    from bchromatic.graphs import is_tight_b_colouring
    info = analyze_tight(g)
    assert info.is_tight
    for masks in independent_set_partitions(g):
        if len(masks) != info.m:
            continue
        c = masks_to_colouring(g, masks)
        if is_tight_b_colouring(g, c):
            yield c


def reference_tight_b_exact(g: Graph, *, node_budget: int | None = None) -> TightSearch:
    """Decide whether a tight graph has a b-colouring with m(G) colours:
    the recursive search that ``oracles.tight_b_exact`` replaced, kept as
    its reference (same status, witness and node count at every budget).

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
    # only the dense vertices are coloured yet, each with its own colour
    for u in dense:
        for v in bits(closed[u]):
            if colour[v]:
                used_around[u] |= 1 << (colour[v] - 1)

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
            for u in watchers[v]:
                used_around[u] |= 1 << c
            sub = rec(rest)
            if sub == "found":
                return "found"
            colour[v] = 0
            for u in watchers[v]:
                used_around[u] &= ~(1 << c)
            if sub == "inconclusive":
                return "inconclusive"
        return "absent"

    status = rec(uncoloured)
    if status == "found":
        return TightSearch("found", Colouring.from_values(colour), nodes)
    return TightSearch(status, None, nodes)


def check_dense_structure(g: Graph, c: Colouring) -> None:
    """Invariants every tight b-colouring must satisfy: the dense vertices
    are exactly the b-chromatic ones, each class holds exactly one of them
    with one neighbour per other class, and no dominating dense vertex
    shares a class with a boundary vertex."""
    from bchromatic.graphs import is_b_chromatic_vertex
    info = analyze_tight(g)
    assert proper_violation(g, c) is None
    bchrom = {v for v in range(g.n) if is_b_chromatic_vertex(g, c, v)}
    assert bchrom == info.dense
    dense_mask = sum(1 << v for v in info.dense)
    t1 = {u for u in info.dense if g.adj[u] & dense_mask == dense_mask & ~(1 << u)}
    for members in c.classes().values():
        inside = [v for v in members if v in info.dense]
        assert len(inside) == 1
        u = inside[0]
        for col, mask in c.class_masks().items():
            if col != c.colours[u]:
                assert (g.adj[u] & mask).bit_count() == 1
        if any(v in t1 for v in members):
            assert not any(v in info.boundary for v in members)


# -- seeded random generators -------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def k4_free_complement(rng: random.Random, n: int, *, shuffle: bool = True) -> Graph:
    """The complement of a random K4-free graph, so of independence number
    at most 3: the vertex pairs are visited in an order shuffled by ``rng``
    (index order if not ``shuffle``), and each is added with probability
    0.8 unless it closes a K4."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if shuffle:
        rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        common = adj[u] & adj[v]
        closes_k4 = any(adj[w] & common for w in bits(common))
        if rng.random() < 0.8 and not closes_k4:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj)).complement()


def random_3p1_free(rng: random.Random, n: int, p: float) -> Graph:
    """Complement of a random triangle-free graph."""
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < p and not (adj[u] & adj[v]):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj)).complement()


def random_clique_union(rng: random.Random, n: int) -> Graph:
    g = Graph.empty(0)
    left = n
    while left:
        s = rng.randint(1, left)
        left -= s
        g = disjoint_union(g, pattern_graph(f"K{s}") if s > 1 else Graph.empty(1))
    return g


def random_cograph(rng: random.Random, n: int) -> Graph:
    """A random P4-free graph on at most ``n`` vertices: one vertex, the
    join of two to four random cographs, the disjoint union of copies of one
    (whose spectra agree, so fall colourings survive the union), or the
    disjoint union of distinct ones.  Vertex names are shuffled."""
    def sizes(n: int, k: int) -> list[int]:
        cuts = sorted(rng.sample(range(1, n), k - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [n])]

    def build(n: int) -> Graph:
        if n == 1:
            return Graph.empty(1)
        k = rng.randint(2, min(n, 4))
        kind = rng.random()
        if kind < 0.45:
            parts, op = [build(m) for m in sizes(n, k)], complete_join
        elif kind < 0.8:
            parts, op = [build(n // k)] * k, disjoint_union
        else:
            parts, op = [build(m) for m in sizes(n, k)], disjoint_union
        g = parts[0]
        for part in parts[1:]:
            g = op(g, part)
        return g
    g = build(n)
    name = list(range(g.n))
    rng.shuffle(name)
    return Graph.from_edges(g.n, [(name[u], name[v]) for u, v in g.edges()])


def random_p3p1_free(rng: random.Random, n: int) -> Graph:
    """Complete join of co-components that are 3P1-free or clique unions;
    such graphs are exactly the (P3+P1)-free ones."""
    parts = []
    left = n
    while left:
        k = rng.randint(1, left)
        left -= k
        if rng.random() < 0.5:
            parts.append(random_3p1_free(rng, k, rng.uniform(0.2, 0.8)))
        else:
            parts.append(random_clique_union(rng, k))
    g = parts[0]
    for part in parts[1:]:
        g = complete_join(g, part)
    return g


def sample_tight_in_class(rng: random.Random, count: int, pattern: str,
                          n_range=(7, 10)) -> list[Graph]:
    """Seeded rejection sampling of tight graphs in the given H-free class,
    mixing unconstrained and structured generators for coverage."""
    out: list[Graph] = []
    while len(out) < count:
        n = rng.randint(*n_range)
        style = rng.random()
        if pattern == "P3+P1":
            g = random_p3p1_free(rng, n)
        elif style < 0.5:
            g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        else:
            g = random_3p1_free(rng, n, rng.uniform(0.2, 0.8))
        if not analyze_tight(g).is_tight:
            continue
        if is_free(g, pattern):
            out.append(g)
    return out


def sample_in_class_p3p1(rng: random.Random, count: int, n_range=(7, 10)) -> list[Graph]:
    return [random_p3p1_free(rng, rng.randint(*n_range)) for _ in range(count)]


def sample_tight(rng: random.Random, count: int, n: int) -> list[Graph]:
    out: list[Graph] = []
    while len(out) < count:
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        if analyze_tight(g).is_tight:
            out.append(g)
    return out


# -- named fixtures --------------------------------------------------------------


def footnote_graph() -> Graph:
    """Join of an edgeless pair with (K3 + isolated vertex): tight with
    m = 5 but no b-colouring with five colours."""
    return complete_join(Graph.empty(2), disjoint_union(pattern_graph("K3"), Graph.empty(1)))


def tight_2p2p1_family(m: int) -> Graph:
    """Tight and (2P2+P1)-free, for even m: the dense set is K_m minus the
    perfect matching {2i, 2i+1}, and boundary vertex m+i sees both ends of
    pair i and every other boundary vertex."""
    half = m // 2
    edges = [(u, v) for u, v in itertools.combinations(range(m), 2) if u // 2 != v // 2]
    edges += [(m + i, 2 * i + d) for i in range(half) for d in (0, 1)]
    edges += [(m + i, m + j) for i, j in itertools.combinations(range(half), 2)]
    return Graph.from_edges(m + half, edges)


def circular_ladder(rungs: int) -> Graph:
    """The prism over the cycle C_rungs: a cubic graph on 2*rungs vertices."""
    return Graph.from_edges(2 * rungs, [e for i in range(rungs) for e in (
        (i, (i + 1) % rungs), (rungs + i, rungs + (i + 1) % rungs), (i, rungs + i))])


def moebius_ladder(rungs: int) -> Graph:
    """The cycle C_(2*rungs) plus its long diagonals: a cubic graph on
    2*rungs vertices."""
    n = 2 * rungs
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                            + [(i, i + rungs) for i in range(rungs)])


def random_formula(rng: random.Random, variables: int) -> Formula33:
    """A random (3,3)-formula: three slots per variable, shuffled into
    clauses until no clause repeats a variable (``variables`` >= 3)."""
    while True:
        slots = [x for x in range(variables) for _ in range(3)]
        rng.shuffle(slots)
        clauses = [tuple(slots[i:i + 3]) for i in range(0, len(slots), 3)]
        if all(len(set(cl)) == 3 for cl in clauses):
            return Formula33(variables, tuple(clauses))


def brute_one_in_three_satisfiable(f: Formula33) -> bool:
    """Whether some of the 2^n assignments makes exactly one variable of
    each clause true."""
    clauses = [sum(1 << x for x in cl) for cl in f.clauses]
    return any(all((true & cl).bit_count() == 1 for cl in clauses)
               for true in range(1 << f.variables))


def cyclic_formula(variables: int) -> Formula33:
    """The (3,3)-formula with clauses (i, i+1, i+2) mod ``variables``."""
    return Formula33(variables, tuple((i, (i + 1) % variables, (i + 2) % variables)
                                      for i in range(variables)))
