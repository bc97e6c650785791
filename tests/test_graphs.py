"""Core graph type, operators, m-degree analysis and colouring validators."""

import random
import re

import pytest

from bchromatic.graphs import (Colouring, ColouringError, Graph, GraphError,
                               ImproperColouringError, _b_vertices, analyze_tight,
                               co_components, complete_join, disjoint_union,
                               is_b_chromatic_vertex, is_b_colouring, is_fall_colouring,
                               is_maximal_independent_set, is_tight_b_colouring,
                               m_degree, proper_violation)
from bchromatic.gadgets import crown_graph, odd_crown_graph
from bchromatic.patterns import pattern_graph

from helpers import is_isomorphic, random_graph


def test_build_graph_examples():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert k3.edge_count() == 3 and all(k3.degree(v) == 2 for v in range(3))
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.edge_count() == 4 and all(c4.degree(v) == 2 for v in range(4))
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert sorted(paw.degrees()) == [1, 2, 2, 3]
    # duplicates collapse
    assert Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)]).edge_count() == 1


def test_build_graph_errors():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphError, match="^vertex count must be non-negative, got -1$"):
        Graph.from_edges(-1, [])


def test_complement_named_pairs():
    assert pattern_graph("K3").complement() == pattern_graph("3P1")
    assert is_isomorphic(pattern_graph("paw").complement(), pattern_graph("P3+P1"))


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 8), rng.random())
        assert g.complement().complement() == g


def test_subgraph_on_every_vertex_is_the_graph_itself():
    """All vertices, in any order and with repeats, give the same frozen
    object; a proper subset is still the relabelled induced subgraph, and a
    vertex past n still fails with GraphError."""
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert g.subgraph(range(g.n)) is g
        assert g.subgraph([*reversed(range(g.n)), *range(g.n)]) is g
        vs = sorted(rng.sample(range(g.n), rng.randint(0, max(0, g.n - 1))))
        sub = g.subgraph(reversed(vs))
        assert sub == Graph.from_edges(len(vs), [
            (i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
            if g.has_edge(vs[i], vs[j])])
        with pytest.raises(GraphError):
            g.subgraph([*range(g.n), g.n])


@pytest.mark.parametrize("vertices", [[-2, 0], [-1], [0, 3], [5]])
def test_subgraph_rejects_a_vertex_outside_the_graph(vertices):
    """A negative vertex would index the adjacency from the end and give an
    asymmetric graph; it fails like a vertex past n."""
    p3 = pattern_graph("P3")
    with pytest.raises(GraphError, match="out of range for n=3"):
        p3.subgraph(vertices)


def test_union_and_join():
    p2 = pattern_graph("P2")
    assert disjoint_union(p2, p2) == pattern_graph("2P2")
    p1 = Graph.empty(1)
    assert complete_join(p1, p1) == pattern_graph("P2")


def test_join_union_de_morgan():
    rng = random.Random(2)
    for _ in range(100):
        g1 = random_graph(rng, rng.randint(1, 6), rng.random())
        g2 = random_graph(rng, rng.randint(1, 6), rng.random())
        lhs = complete_join(g1, g2).complement()
        rhs = disjoint_union(g1.complement(), g2.complement())
        assert lhs == rhs


def test_co_components():
    assert co_components(Graph.empty(2)) == [(0, 1)]
    assert co_components(pattern_graph("K3")) == [(0,), (1,), (2,)]
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        parts = co_components(g)
        # pairwise complete to each other in g, and they cover V
        seen = []
        for part in parts:
            seen += list(part)
        assert sorted(seen) == list(range(g.n))
        for a in parts:
            for b in parts:
                if a is not b:
                    assert all(g.has_edge(u, v) for u in a for v in b)
        # they really are the components of the complement
        assert sorted(parts) == sorted(tuple(sorted(c)) for c in g.complement().components())


def test_component_masks_within_a_mask():
    """The components of an induced subgraph, and with ``co`` those of its
    complement, come back as masks of the host's vertices."""
    rng = random.Random(4)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        within = rng.getrandbits(g.n)
        vs = [v for v in range(g.n) if within >> v & 1]
        for co in (False, True):
            sub = g.subgraph(vs).complement() if co else g.subgraph(vs)
            want = [sum(1 << vs[i] for i in comp) for comp in sub.components()]
            assert g.component_masks(within, co=co) == want


def test_co_components_build_no_complement(monkeypatch):
    """The co-component search walks non-edges: an edgeless graph on 20,000
    vertices is one co-component, found without the n^2/8-byte complement."""
    def refuse(self):
        raise AssertionError("complement built")
    monkeypatch.setattr(Graph, "complement", refuse)
    assert co_components(Graph.empty(20_000)) == [tuple(range(20_000))]


def test_analyze_tight_examples():
    c3 = analyze_tight(pattern_graph("C3"))
    assert c3.m == 3 and c3.is_tight
    c4 = analyze_tight(pattern_graph("C4"))
    assert c4.m == 3 and not c4.is_tight
    star = analyze_tight(pattern_graph("K1,3"))
    assert star.m == 2 and star.dense == frozenset(range(4)) and not star.is_tight
    empty = analyze_tight(Graph.empty(0))
    assert empty.m == 0 and not empty.is_tight


def test_m_degree_definition_brute_force():
    rng = random.Random(4)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        degs = g.degrees()
        best = max(k for k in range(1, g.n + 1)
                   if sum(1 for d in degs if d >= k - 1) >= k)
        assert m_degree(g) == best


def test_boundary():
    # P5: dense {1,2,3}, boundary {0,4}
    info = analyze_tight(pattern_graph("P5"))
    assert info.dense == frozenset({1, 2, 3})
    assert info.boundary == frozenset({0, 4})


def test_colouring_construction():
    c = Colouring.from_values([1, 2, 1])
    assert c.k == 2 and c.classes() == {1: (0, 2), 2: (1,)}
    with pytest.raises(Exception):
        Colouring.from_values([1, 3])  # colour 2 unused
    # the constructor itself refuses a colour above k and an unused colour
    for colours in ((1, 3), (1, 1)):
        with pytest.raises(ColouringError, match=re.escape(
                f"colours must be exactly 1..k, got {sorted(set(colours))}")):
            Colouring(colours, 2)
    with pytest.raises(ColouringError, match="exactly 1..k"):
        Colouring.from_values([0, 1])
    assert Colouring.from_values([2, 1, 2]) == Colouring((2, 1, 2), 2)
    assert Colouring.from_values([]) == Colouring((), 0)


def test_validators_on_figure_families():
    # complete bipartite on 2n-1 vertices minus a matching of size n-1,
    # n = 3: the n-colouring is a b-colouring but not a fall colouring
    g = odd_crown_graph(3)
    # sides {0,1,2} and {3,4}; vertex i on the big side is non-adjacent to 3+i
    colour = Colouring.from_values([1, 2, 3, 1, 2])
    assert proper_violation(g, colour) is None
    assert is_b_colouring(g, colour)
    assert not is_fall_colouring(g, colour)

    # K_{n,n} minus a perfect matching, matched pairs monochromatic: fall
    crown = crown_graph(3)
    colour = Colouring.from_values([1, 2, 3, 1, 2, 3])
    assert is_fall_colouring(crown, colour)

    # any proper 2-colouring of P2 is fall
    assert is_fall_colouring(pattern_graph("P2"), Colouring.from_values([1, 2]))


def test_improper_colouring_rejected_with_edge():
    g = pattern_graph("P2")
    with pytest.raises(ImproperColouringError) as err:
        is_b_colouring(g, Colouring.from_values([1, 1]))
    assert err.value.edge == (0, 1)


def _random_colouring(rng, g):
    """Colours 1..k: at random, or greedy in a random order (so proper)."""
    if rng.random() < 0.5:
        k = rng.randint(1, g.n)
        values = [rng.randint(1, k) for _ in range(g.n)]
    else:
        values = [0] * g.n
        for v in rng.sample(range(g.n), g.n):
            taken = {values[w] for w in range(g.n) if g.has_edge(v, w)}
            values[v] = rng.choice([c for c in range(1, g.n + 1) if c not in taken])
    rename = {c: i for i, c in enumerate(sorted(set(values)), 1)}
    return Colouring.from_values(rename[c] for c in values)


@pytest.mark.parametrize("v", [-1, 3, 4])
def test_b_chromatic_vertex_out_of_range(v):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(IndexError, match=f"vertex {v} out of range"):
        is_b_chromatic_vertex(g, Colouring.from_values((1, 2, 1)), v)


def test_validators_match_their_definitions():
    """Seeded random graphs with n <= 9 and colourings, proper or not: each
    validator equals its definition in terms of vertex and colour sets, and
    an improper colouring is reported on the first monochromatic edge of
    ``g.edges()``."""
    rng = random.Random(2022)
    proper = improper = 0
    for _ in range(2000):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        c = _random_colouring(rng, g)
        col, k = c.colours, c.k
        nbrs = [{w for w in range(g.n) if g.has_edge(v, w)} for v in range(g.n)]
        b_vertex = [{col[w] for w in nbrs[v]} >= set(range(1, k + 1)) - {col[v]}
                    for v in range(g.n)]
        assert [is_b_chromatic_vertex(g, c, v) for v in range(g.n)] == b_vertex
        assert _b_vertices(g, c.class_masks().values()) == sum(
            1 << v for v in range(g.n) if b_vertex[v])
        bad = next(((u, v) for u, v in g.edges() if col[u] == col[v]), None)
        assert proper_violation(g, c) == bad
        for wrong in (col + (1,), col[:-1]):
            # dropping the last vertex may leave a colour unused, which the
            # constructor refuses before any validator runs
            error = "covers" if set(wrong) == set(col) else "exactly 1..k"
            for validator in (proper_violation, is_b_colouring, is_fall_colouring,
                              lambda g, c: is_b_chromatic_vertex(g, c, 0)):
                with pytest.raises(ColouringError, match=error):
                    validator(g, Colouring(wrong, k))
        if bad is None:
            proper += 1
            assert is_b_colouring(g, c) == all(
                any(b_vertex[v] for v in range(g.n) if col[v] == i) for i in range(1, k + 1))
            assert is_fall_colouring(g, c) == all(b_vertex)
        else:
            improper += 1
            for validator in (is_b_colouring, is_fall_colouring):
                with pytest.raises(ImproperColouringError, match=re.escape(f"on edge {bad}")) as err:
                    validator(g, c)
                assert err.value.edge == bad
        mask = rng.getrandbits(g.n)
        members = {v for v in range(g.n) if mask >> v & 1}
        mis = (all(not nbrs[v] & members for v in members)
               and all(nbrs[v] & members for v in range(g.n) if v not in members))
        assert is_maximal_independent_set(g, mask) == mis
    assert proper > 500 and improper > 500


def test_tight_b_colouring_validator():
    k3 = pattern_graph("K3")
    assert is_tight_b_colouring(k3, Colouring.from_values([1, 2, 3]))
    c4 = pattern_graph("C4")
    assert not is_tight_b_colouring(c4, Colouring.from_values([1, 2, 1, 2]))
