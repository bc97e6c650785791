"""Fall colourings of (P3+P1)-free graphs and uniqueness reporting."""

import random

import pytest

from bchromatic.fall import fall_p3p1_free, fall_uniqueness_report
from bchromatic.gadgets import crown_graph
from bchromatic.graphs import Graph, is_fall_colouring
from bchromatic.oracles import fall_spectrum
from bchromatic.patterns import CoComponentKind, pattern_graph
from bchromatic.tight import PreconditionError

from helpers import random_p3p1_free, sample_in_class_p3p1


def cocktail_party(n: int) -> Graph:
    """K_{2n} minus a perfect matching; the in-class analogue of the
    bipartite minus-matching family, with matched pairs as colour classes."""
    return Graph.from_edges(2 * n, [(u, v) for u in range(2 * n)
                                    for v in range(u + 1, 2 * n) if v != u + n])


def test_matched_pairs_monochromatic():
    g = cocktail_party(3)
    res = fall_p3p1_free(g)
    assert res.spectrum.values == (3,)
    assert is_fall_colouring(g, res.colouring)
    # each non-singleton class is one of the removed matching pairs
    for members in res.colouring.classes().values():
        assert len(members) == 2 and members[1] == members[0] + 3


def test_k3_spectrum():
    res = fall_p3p1_free(pattern_graph("K3"))
    assert res.spectrum.values == (3,)


def test_paw_empty():
    # the paw itself is (P3+P1)-free: the only 4-vertex graph that is not is
    # P3+P1 itself
    res = fall_p3p1_free(pattern_graph("paw"))
    assert res.spectrum.values == () and res.colouring is None


def test_out_of_class_rejected():
    with pytest.raises(PreconditionError):
        fall_p3p1_free(crown_graph(3))  # C6 contains P3+P1


def test_case1_pairs_have_size_two():
    """After shedding dominating vertices, every class in a 3P1-free
    co-component witness has size exactly two."""
    rng = random.Random(50)
    seen = 0
    for g in sample_in_class_p3p1(rng, 300, (6, 9)):
        res = fall_p3p1_free(g)
        if res.colouring is None:
            continue
        for part in res.per_component:
            if part.kind is not CoComponentKind.THREE_P1_FREE:
                continue
            singles = set(part.dominating)
            classes = {}
            for v in part.vertices:
                classes.setdefault(res.colouring.colours[v], []).append(v)
            for members in classes.values():
                if any(v in singles for v in members):
                    assert len(members) == 1
                else:
                    assert len(members) == 2
                    seen += 1
    assert seen > 20


def test_colour_ranges_disjoint_across_cocomponents():
    rng = random.Random(51)
    for g in sample_in_class_p3p1(rng, 200, (5, 9)):
        res = fall_p3p1_free(g)
        if res.colouring is None:
            continue
        used = [set(res.colouring.colours[v] for v in part.vertices)
                for part in res.per_component]
        for i in range(len(used)):
            for j in range(i + 1, len(used)):
                assert not used[i] & used[j]


def test_agreement_with_oracle_random():
    rng = random.Random(52)
    for g in sample_in_class_p3p1(rng, 300, (6, 9)):
        res = fall_p3p1_free(g)
        spectrum = fall_spectrum(g)
        assert res.spectrum.values == spectrum.values, g.adj
        assert len(res.spectrum.values) <= 1
        if res.colouring is not None:
            assert is_fall_colouring(g, res.colouring)


def test_fall_uniqueness_report():
    rep = fall_uniqueness_report(pattern_graph("C3"))
    assert rep.fall_unique and rep.spectrum.values == (3,) and rep.path == "(P3+P1)-free"
    rep = fall_uniqueness_report(pattern_graph("C3"), force_oracle=True)
    assert rep.fall_unique and rep.spectrum.values == (3,) and rep.path == "oracle"
    rep = fall_uniqueness_report(pattern_graph("paw"))
    assert not rep.fall_unique and rep.spectrum.values == ()
    # K_{4,4} minus a perfect matching: out of class, handled by the oracle;
    # the matched-pairs colouring shows 4 is always achievable
    rep = fall_uniqueness_report(crown_graph(4))
    assert 4 in rep.spectrum.values and rep.path == "oracle"
    # and the bipartition gives 2
    assert rep.spectrum.values[0] == 2


def test_uniqueness_report_budget_error():
    from bchromatic.oracles import BudgetExceededError
    big_cycle = pattern_graph("C20")  # far outside the polynomial class
    with pytest.raises(BudgetExceededError):
        fall_uniqueness_report(big_cycle)


def test_empty_cocomponent_after_dominating_removal():
    # complete graphs: every vertex dominating, zero pairs, n singleton classes
    res = fall_p3p1_free(pattern_graph("K4"))
    assert res.spectrum.values == (4,)
    assert res.per_component[0].pair_count == 0
