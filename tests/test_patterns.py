"""Pattern expansion, induced-subgraph search, and the dichotomy classifier."""

import hashlib
import itertools
import random
import tracemalloc

import pytest

from bchromatic.graphs import Graph, bits, co_components
from bchromatic.patterns import (_FREENESS_PROOFS, PatternError, Verdict, _ClosedNeighbourhoods,
                                 _closed_non_neighbourhoods, _peel, classify, contains_induced,
                                 has_independent_triple, is_free, is_induced_subgraph_of,
                                 is_split, p3p1_decomposition, pattern_graph)

from helpers import (all_graphs, all_graphs_up_to, circular_ladder, is_complete_multipartite,
                     is_linear_forest, is_union_of_cliques, moebius_ladder,
                     naive_contains_induced, random_graph, reference_contains_induced,
                     reference_witness_table, tight_2p2p1_family)


def test_pattern_expansion():
    assert pattern_graph("P4").n == 4 and pattern_graph("P4").edge_count() == 3
    assert pattern_graph("2P2") == pattern_graph("P2+P2")
    assert pattern_graph("claw") == pattern_graph("K1,3")
    assert pattern_graph("3P1").edge_count() == 0
    assert pattern_graph("2P2+P1").n == 5
    assert pattern_graph("C5").degrees() == [2] * 5
    for name in ("Q7", "C2", "P2++P1"):
        with pytest.raises(PatternError):
            pattern_graph(name)
    for name in ("P0", "K0", "0P1"):
        with pytest.raises(PatternError, match=f"^pattern '{name}' has no vertices$"):
            pattern_graph(name)


def test_contains_induced_examples():
    assert contains_induced(pattern_graph("C4"), pattern_graph("2P2")) is None
    assert contains_induced(pattern_graph("paw"), pattern_graph("P3+P1")) is None
    w = contains_induced(pattern_graph("paw").complement(), pattern_graph("P3+P1"))
    assert w is not None
    assert contains_induced(pattern_graph("P5"), pattern_graph("2P2")) == (0, 1, 3, 4)


def test_contains_induced_witness_is_valid():
    rng = random.Random(10)
    patterns = [pattern_graph(p) for p in
                ("P3", "P4", "2P2", "P3+P1", "claw", "paw", "C4", "C5", "3P1", "2P2+P1")]
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        for h in patterns:
            w = contains_induced(g, h)
            if w is not None:
                assert len(set(w)) == h.n
                for a in range(h.n):
                    for b in range(a + 1, h.n):
                        assert g.has_edge(w[a], w[b]) == h.has_edge(a, b)


def test_contains_induced_agrees_with_naive():
    rng = random.Random(11)
    patterns = [pattern_graph(p) for p in
                ("P2", "P3", "P4", "P5", "2P2", "3P1", "P3+P1", "claw", "paw",
                 "C4", "C5", "2P2+P1", "K3", "2P3", "3P2", "4P1")]
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        for h in patterns:
            assert (contains_induced(g, h) is not None) == naive_contains_induced(g, h)


def test_witnesses_match_the_unpruned_search():
    """The symmetry conditions and the failure memo prune only what cannot
    hold the first embedding: every witness equals the unpruned search's, on
    every graph with at most 6 vertices and on seeded 7-8-vertex graphs.  On
    dense hosts the search runs on complements (2P2+P1 becomes W4); in P3+P2
    the P2's ends have the degree of the P3's ends but another orbit."""
    patterns = [pattern_graph(p) for p in
                ("3P2", "2P3", "2P2+P1", "C5", "claw", "4P1", "P3+P1", "P3+P2")]
    for n in range(1, 7):
        tables = [reference_witness_table(n, h) for h in patterns]
        for mask, g in enumerate(all_graphs(n)):
            for h, table in zip(patterns, tables):
                assert contains_induced(g, h) == table.get(mask), (g.adj, h.adj)
    rng = random.Random(14)
    for _ in range(60):
        g = random_graph(rng, rng.randint(7, 8), rng.random())
        for h in patterns:
            assert contains_induced(g, h) == reference_contains_induced(g, h), (g.adj, h.adj)


def test_witnesses_on_hosts_with_isolated_vertices():
    """A pattern with no isolated vertex is searched on the host without its
    isolated vertices; mapped back, every witness equals the unpruned
    search's on the whole host, dense hosts included, whose search order
    is that of the pattern's complement."""
    patterns = [pattern_graph(p) for p in ("2P3", "3P2", "2P2", "C5", "claw", "P3+P2", "K3")]
    rng = random.Random(27)
    found = dense = 0
    for _ in range(300):
        core = random_graph(rng, rng.randint(3, 6), rng.random())
        n = core.n + rng.randint(1, 3)
        place = sorted(rng.sample(range(n), core.n))
        g = Graph.from_edges(n, [(place[u], place[v]) for u, v in core.edges()])
        dense += 2 * g.edge_count() > n * (n - 1) // 2
        for h in patterns:
            got = contains_induced(g, h)
            assert got == reference_contains_induced(g, h), (g.adj, h.adj)
            found += got is not None
    assert found > 100 and dense > 10


def test_search_plan_never_lists_the_automorphism_group():
    """12P1 has 12! automorphisms and P1100 is 1100 levels deep; their plans
    come from pinned searches narrowed by vertex labels."""
    import time
    from bchromatic.patterns import _plan
    start = time.perf_counter()
    wide = _plan.__wrapped__(pattern_graph("12P1"))
    deep = _plan.__wrapped__(pattern_graph("P1100"))
    assert time.perf_counter() - start < 2.0
    # each isolated vertex goes below the next; the path's ends are ordered
    assert [s.below for s in wide.steps] == [()] + [(i,) for i in range(11)]
    assert [j for j, s in enumerate(deep.steps) if s.below] == [1099]


def test_is_induced_subgraph_of():
    assert is_induced_subgraph_of(pattern_graph("2P1"), "P4")
    assert not is_induced_subgraph_of(pattern_graph("P3+P1"), "P4")
    assert is_induced_subgraph_of(pattern_graph("3P1"), "P3+P1")


def test_cocomponent_kind():
    """Each input here is co-connected, so it is its own only part, and
    (P3+P1)-free: it has no independent triple or is a union of cliques."""
    from bchromatic.graphs import disjoint_union

    # two triangles still have independence number 2; three need the
    # clique-union side; C5 and P4 have independence number 2 and are no
    # union of cliques
    k3k3 = disjoint_union(pattern_graph("K3"), pattern_graph("K3"))
    for g, triple, cliques in [(k3k3, False, True), (pattern_graph("3K3"), True, True),
                               (pattern_graph("3P2"), True, True),
                               (pattern_graph("K2+K4"), False, True),
                               (pattern_graph("C5"), False, False),
                               (pattern_graph("P4"), False, False)]:
        assert p3p1_decomposition(g) == co_components(g) == [tuple(range(g.n))]
        assert has_independent_triple(g, g.full_mask()) is triple
        assert is_union_of_cliques(g) is cliques
    # C6 has an induced P3+P1
    assert p3p1_decomposition(pattern_graph("C6")) is None


def test_p3p1_decomposition_matches_generic_search():
    # is_free(g, "P3+P1") now goes through the decomposition itself, so the
    # unpruned reference search is the second route
    p3p1, p3, p1x3 = pattern_graph("P3+P1"), pattern_graph("P3"), pattern_graph("3P1")
    for g in all_graphs_up_to(6):
        parts = p3p1_decomposition(g)
        assert (parts is None) == (reference_contains_induced(g, p3p1) is not None), g.adj
        if parts is None:
            continue
        assert parts == co_components(g)
        for vs in parts:
            sub = g.subgraph(vs)
            triple = reference_contains_induced(sub, p1x3) is not None
            mask = sum(1 << v for v in vs)
            assert has_independent_triple(g, mask) is triple, g.adj
            # 3P1-free, or a union of cliques, which is P3-free
            assert not triple or reference_contains_induced(sub, p3) is None, g.adj


def test_partition_tests_match_the_reference_search():
    """A graph is a union of cliques iff it is P3-free, and complete
    multipartite iff it is (P2+P1)-free; both tests, and the freeness
    proofs, rest on the one partition check."""
    p3, p2p1 = pattern_graph("P3"), pattern_graph("P2+P1")
    for n in range(1, 7):
        with_p3, with_p2p1 = reference_witness_table(n, p3), reference_witness_table(n, p2p1)
        for mask, g in enumerate(all_graphs(n)):
            assert is_union_of_cliques(g) == (mask not in with_p3), g.adj
            assert is_complete_multipartite(g) == (mask not in with_p2p1), g.adj


def test_peeled_vertices_lie_in_no_pattern():
    """Every vertex the freeness proof deletes lies in no induced 2P2+P1
    (respectively 2P3) of the whole graph, on every graph with at most 6
    vertices; the unpruned reference search decides each vertex subset."""
    rows = [(pattern_graph("2P2+P1"), _closed_non_neighbourhoods),
            (pattern_graph("2P3"), _ClosedNeighbourhoods)]
    for h, classes in rows:
        has_copy: dict[Graph, bool] = {}
        for g in all_graphs_up_to(6):
            if g.n < h.n:
                continue
            peeled = g.full_mask() & ~_peel(g, classes(g))
            if not peeled:
                continue
            covered = 0  # the vertices of some induced copy of h
            for vs in itertools.combinations(range(g.n), h.n):
                sub = g.subgraph(vs)
                if sub not in has_copy:
                    has_copy[sub] = reference_contains_induced(sub, h) is not None
                if has_copy[sub]:
                    covered |= sum(1 << v for v in vs)
            assert not peeled & covered, (g.adj, peeled, covered)


def test_freeness_proofs_need_no_search(monkeypatch):
    """The peel alone proves the n=321 tight family member (2P2+P1)-free and
    the Petersen edge3col-2p3 gadget 2P3-free; the far-edge test proves the
    edge3col-3p2 gadget of each cubic source the reductions benchmark
    verifies 3P2-free; and a perfect matching on 2,000 vertices, a union of
    cliques, is 2P3-free without the peel: the search never runs."""
    from bchromatic import patterns
    from bchromatic.gadgets import edge3col_instance, petersen_graph

    def no_search(*args, **kwargs):
        raise AssertionError("the induced-pattern search or the peel ran")

    family = tight_2p2p1_family(214)
    gadget = edge3col_instance(petersen_graph(), "edge3col-2p3").graph
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    sources = [pattern_graph("K4"), k33, circular_ladder(3), petersen_graph(), moebius_ladder(4)]
    gadgets_3p2 = [edge3col_instance(src, "edge3col-3p2").graph for src in sources]
    matching = Graph.from_edges(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
    monkeypatch.setattr(patterns, "_embed", no_search)
    assert family.n == 321
    assert is_free(family, "2P2+P1")
    assert is_free(gadget, "2P3")
    assert all(is_free(g, "3P2") for g in gadgets_3p2)
    monkeypatch.setattr(patterns, "_peel", no_search)
    assert is_free(matching, "2P3")


def _split_and_random_hosts(count: int) -> list[Graph]:
    """Seeded hosts on 7-10 vertices: random graphs, half of them sparse
    enough to hold an induced 3P2 often, and split graphs with one pair
    possibly toggled, so that both answers of each test are common."""
    rng = random.Random(30)
    hosts = []
    for i in range(count):
        n = rng.randint(7, 10)
        if i % 2:
            hosts.append(random_graph(rng, n, rng.uniform(0.05, 0.5)))
            continue
        k = rng.randint(1, n - 1)
        edges = {(u, v) for u in range(k) for v in range(u + 1, n) if v < k or rng.random() < 0.5}
        u, v = sorted(rng.sample(range(n), 2))
        if rng.random() < 0.5:
            edges ^= {(u, v)}
        hosts.append(Graph.from_edges(n, edges))
    return hosts


def test_3p2_proof_is_exact_on_sparse_hosts():
    """The 3P2 row never claims a host that holds an induced 3P2 free, and
    on a host with at most as many edges as non-edges it proves freeness
    exactly when the reference search finds no copy: on every graph with at
    most 6 vertices and on 1,000 seeded hosts with 7-10 vertices."""
    h = pattern_graph("3P2")
    proof = _FREENESS_PROOFS[h]
    seen = {True: 0, False: 0}
    for n in range(1, 7):
        with_copy = reference_witness_table(n, h)
        for mask, g in enumerate(all_graphs(n)):
            proved = proof(g)
            assert not (proved and mask in with_copy), g.adj
            if 4 * g.edge_count() <= n * (n - 1):
                assert proved == (mask not in with_copy), g.adj
    for g in _split_and_random_hosts(1000):
        proved = proof(g)
        sparse = 4 * g.edge_count() <= g.n * (g.n - 1)
        if proved or sparse:
            has_copy = reference_contains_induced(g, h) is not None
            assert not (proved and has_copy), g.adj
            assert not sparse or proved != has_copy, g.adj
            seen[has_copy] += 1
    assert min(seen.values()) >= 50, seen


def test_split_test_matches_the_searches():
    """The degree test of ``is_split`` agrees with 2P2-, C4- and C5-freeness
    on every graph with at most 6 vertices (the reference tables) and on
    1,000 seeded hosts with 7-10 vertices (``is_free``)."""
    holds = {True: 0, False: 0}
    for n in range(1, 7):
        tables = [reference_witness_table(n, pattern_graph(name)) for name in ("2P2", "C4", "C5")]
        for mask, g in enumerate(all_graphs(n)):
            assert is_split(g) == all(mask not in t for t in tables), g.adj
    for g in _split_and_random_hosts(1000):
        split = is_free(g, "2P2") and is_free(g, "C4") and is_free(g, "C5")
        assert is_split(g) == split, g.adj
        holds[split] += 1
    assert min(holds.values()) >= 100, holds


def test_too_few_edges_or_non_edges_need_no_proof(monkeypatch):
    """A host with fewer edges, or fewer non-edges, than the pattern holds
    no copy of it, and is answered before the peel or the search runs."""
    from bchromatic import patterns

    def refuse(*args, **kwargs):
        raise AssertionError("the peel or the search ran")

    monkeypatch.setattr(patterns, "_peel", refuse)
    monkeypatch.setattr(patterns, "_embed", refuse)
    assert is_free(Graph.empty(2000), "2P3")
    assert is_free(pattern_graph("K40"), "2P2+P1")
    assert is_free(pattern_graph("3P2"), "2P3")


def test_clique_partition_stores_no_mask_per_vertex():
    """A list of the closed neighbourhoods of a graph with no edges holds
    about n²/16 bytes; P3+P1 recognition and the union-of-cliques test make
    each mask when they read it, so their peak stays far below that."""
    n = 10000
    g = Graph.empty(n)
    for check in (p3p1_decomposition, is_union_of_cliques):
        tracemalloc.start()
        try:
            check(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 64, (check.__name__, peak)


def test_paw_free_decomposition_cross_check():
    # paw-free iff every component is triangle-free or complete multipartite
    rng = random.Random(12)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        paw_free = is_free(g, "paw")
        decomposed = all(
            is_free(g.subgraph(comp), "C3") or is_complete_multipartite(g.subgraph(comp))
            for comp in g.components())
        assert paw_free == decomposed


def test_linear_forest():
    assert is_linear_forest(pattern_graph("P5"))
    assert is_linear_forest(pattern_graph("2P2+P1"))
    assert not is_linear_forest(pattern_graph("claw"))
    assert not is_linear_forest(pattern_graph("C4"))


def test_classifier_known_cases():
    two_p2 = pattern_graph("2P2")
    assert classify(two_p2, "b").verdict is Verdict.NP_HARD
    assert classify(two_p2, "tightb").verdict is Verdict.POLY
    assert classify(two_p2, "fall").verdict is Verdict.NP_HARD

    p4p1 = pattern_graph("P4+P1")
    v = classify(p4p1, "tightb")
    assert v.verdict is Verdict.OPEN and v.family == "P4+sP1 (s=1)"

    claw = pattern_graph("claw")
    assert classify(claw, "b").verdict is Verdict.NP_HARD
    assert classify(claw, "tightb").verdict is Verdict.NP_COMPLETE
    assert classify(claw, "fall").verdict is Verdict.NP_HARD
    with pytest.raises(PatternError, match="non-empty forbidden graph"):
        classify(Graph.empty(0), "b")


def test_tightb_open_families_exactly():
    """The open verdict appears exactly on the seven linear-forest families."""
    def lf(*sizes):
        name = "+".join(f"P{s}" for s in sizes)
        return pattern_graph(name)

    for s in range(0, 4):
        cases = {
            "P4+P2+sP1": lf(4, 2, *([1] * s)),
            "P3+P2+sP1": lf(3, 2, *([1] * s)),
        }
        if s >= 1:
            cases["P4+sP1"] = lf(4, *([1] * s))
        if s >= 2:
            cases["P3+sP1"] = lf(3, *([1] * s))
            cases["2P2+sP1"] = lf(2, 2, *([1] * s))
        if s >= 3:
            cases["P2+sP1"] = lf(2, *([1] * s))
        if s >= 4:
            cases["sP1"] = lf(*([1] * s))
        for family, h in cases.items():
            v = classify(h, "tightb")
            assert v.verdict is Verdict.OPEN, (family, s)
            assert v.family == f"{family} (s={s})"
    # sP1 family starts at s = 4
    v = classify(pattern_graph("4P1"), "tightb")
    assert v.verdict is Verdict.OPEN and v.family == "sP1 (s=4)"


def test_classify_exhaustive_consistency_small():
    """On every graph H with up to 5 vertices the classifiers match the
    bare containment statements of the three dichotomies."""
    for n in range(1, 6):
        for h in all_graphs(n):
            b = classify(h, "b")
            assert (b.verdict is Verdict.POLY) == is_induced_subgraph_of(h, "P4")
            f = classify(h, "fall")
            assert (f.verdict is Verdict.POLY) == (
                is_induced_subgraph_of(h, "P4") or is_induced_subgraph_of(h, "P3+P1"))
            t = classify(h, "tightb")
            poly = (is_induced_subgraph_of(h, "P4")
                    or is_induced_subgraph_of(h, "P3+P1")
                    or is_induced_subgraph_of(h, "2P2+P1"))
            hard = (not is_linear_forest(h) or not is_free(h, "P5")
                    or not is_free(h, "3P2") or not is_free(h, "2P3"))
            if poly:
                assert t.verdict is Verdict.POLY
            elif hard:
                assert t.verdict is Verdict.NP_COMPLETE
            else:
                assert t.verdict is Verdict.OPEN


def test_classifier_output_pinned():
    """Verdict, reason and family of all three problems on every H with at
    most 6 vertices (101,601 classifications), against a recorded digest:
    the reason strings reach the ``classify`` command's JSON, so any change
    to them must be deliberate."""
    digest = hashlib.sha256()
    for h in all_graphs_up_to(6):
        for problem in ("b", "tightb", "fall"):
            v = classify(h, problem)
            digest.update(f"{v.verdict.value}|{v.reason}|{v.family}\n".encode())
    assert digest.hexdigest() == "546889d5cd79d1ac33513ec83382524e143108ac4bccf60e3fa19d95c569a4b0"
