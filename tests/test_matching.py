"""The blossom matcher against brute force."""

import random

from bchromatic.gadgets import crown_graph, petersen_graph
import pytest

from bchromatic.graphs import Graph, GraphError
from bchromatic.matching import check_matching, maximum_matching, perfect_matching
from bchromatic.patterns import pattern_graph

from helpers import all_graphs_up_to, brute_max_matching_size, random_graph


def test_bipartite_examples():
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert len(maximum_matching(k33)) == 3
    assert len(maximum_matching(crown_graph(3))) == 3
    assert len(maximum_matching(pattern_graph("K1,4"))) == 1


def test_perfect_matching_examples():
    assert perfect_matching(pattern_graph("K4")) is not None
    assert perfect_matching(pattern_graph("C5")) is None
    m = perfect_matching(petersen_graph())
    assert m is not None and len(m) == 5
    check_matching(petersen_graph(), m)


def test_exhaustive_agreement_small():
    for g in all_graphs_up_to(6):
        bf = brute_max_matching_size(g)
        m = maximum_matching(g)
        check_matching(g, m)
        assert len(m) == bf, g.adj


def test_random_agreement():
    rng = random.Random(20)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(7, 9), rng.random())
        bf = brute_max_matching_size(g)
        m = maximum_matching(g)
        check_matching(g, m)
        assert len(m) == bf
        assert (perfect_matching(g) is not None) == (2 * bf == g.n)


@pytest.mark.parametrize("m, message", [
    (frozenset({(0, 2)}), r"^matching pair \(0, 2\) is not an edge$"),
    (frozenset({(0, 1), (1, 2)}), r"^matching pair \(\d, \d\) shares a vertex$"),
])
def test_check_matching_rejects(m, message):
    with pytest.raises(GraphError, match=message):
        check_matching(pattern_graph("P4"), m)


def test_matchings_are_deterministic():
    g = petersen_graph()
    assert maximum_matching(g) == maximum_matching(g)
