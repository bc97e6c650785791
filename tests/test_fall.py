"""Fall colourings of (P3+P1)-free graphs and uniqueness reporting."""

import hashlib
import random

import pytest

from bchromatic.fall import fall_p3p1_free, fall_uniqueness_report
from bchromatic.gadgets import crown_graph
from bchromatic.graphs import Graph, PreconditionError, is_fall_colouring
from bchromatic.oracles import fall_spectrum
from bchromatic.patterns import (CoComponentKind, p3p1_decomposition,
                                 pattern_graph)

from helpers import all_graphs_up_to, random_p3p1_free, sample_in_class_p3p1


def cocktail_party(n: int) -> Graph:
    """K_{2n} minus a perfect matching; the in-class analogue of the
    bipartite minus-matching family, with matched pairs as colour classes."""
    return Graph.from_edges(2 * n, [(u, v) for u in range(2 * n)
                                    for v in range(u + 1, 2 * n) if v != u + n])


def test_matched_pairs_monochromatic():
    g = cocktail_party(3)
    res = fall_p3p1_free(g)
    assert res.values == (3,)
    assert is_fall_colouring(g, res.witnesses[3])
    # each non-singleton class is one of the removed matching pairs
    for members in res.witnesses[3].classes().values():
        assert len(members) == 2 and members[1] == members[0] + 3


def test_k3_spectrum():
    res = fall_p3p1_free(pattern_graph("K3"))
    assert res.values == (3,)


def test_paw_empty():
    # the paw itself is (P3+P1)-free: the only 4-vertex graph that is not is
    # P3+P1 itself
    res = fall_p3p1_free(pattern_graph("paw"))
    assert res.values == () and not res.witnesses


def test_out_of_class_rejected():
    with pytest.raises(PreconditionError):
        fall_p3p1_free(crown_graph(3))  # C6 contains P3+P1


def _dominating_within(g, vs):
    """Vertices of ``vs`` adjacent to every other vertex of ``vs``."""
    return {v for v in vs if all(g.has_edge(v, w) for w in vs if w != v)}


def test_case1_pairs_have_size_two():
    """After shedding dominating vertices, every class in a 3P1-free
    co-component witness has size exactly two."""
    rng = random.Random(50)
    seen = 0
    for g in sample_in_class_p3p1(rng, 300, (6, 9)):
        res = fall_p3p1_free(g)
        if not res.values:
            continue
        colouring = res.witnesses[res.values[0]]
        for vs, kind in p3p1_decomposition(g):
            if kind is not CoComponentKind.THREE_P1_FREE:
                continue
            singles = _dominating_within(g, vs)
            classes = {}
            for v in vs:
                classes.setdefault(colouring.colours[v], []).append(v)
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
        if not res.values:
            continue
        colouring = res.witnesses[res.values[0]]
        used = [set(colouring.colours[v] for v in vs)
                for vs, _ in p3p1_decomposition(g)]
        for i in range(len(used)):
            for j in range(i + 1, len(used)):
                assert not used[i] & used[j]


def test_agreement_with_oracle_random():
    rng = random.Random(52)
    for g in sample_in_class_p3p1(rng, 300, (6, 9)):
        res = fall_p3p1_free(g)
        spectrum = fall_spectrum(g)
        assert res.values == spectrum.values, g.adj
        assert len(res.values) <= 1
        for k in res.values:
            assert is_fall_colouring(g, res.witnesses[k])


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
    g = pattern_graph("K4")
    res = fall_p3p1_free(g)
    assert res.values == (4,)
    # the first co-component is all dominating, so it holds no pair
    vs, _ = p3p1_decomposition(g)[0]
    assert _dominating_within(g, vs) == set(vs)
    colours = [res.witnesses[4].colours[v] for v in vs]
    assert len(set(colours)) == len(colours)


def test_fall_reports_pinned():
    """Path, spectrum and witnesses of ``fall_uniqueness_report`` on every
    (P3+P1)-free graph with at most 6 vertices, against a recorded digest."""
    digest = hashlib.sha256()
    count = 0
    for g in all_graphs_up_to(6):
        if p3p1_decomposition(g) is None:
            continue
        rep = fall_uniqueness_report(g)
        witnesses = [rep.spectrum.witnesses[k].colours for k in rep.spectrum.values]
        digest.update(repr((g.adj, rep.path, rep.spectrum.values, witnesses)).encode())
        count += 1
    assert count == 7078
    assert digest.hexdigest() == ("2b45f24413f000f14c95882f6a81ca88"
                                  "1280e947bf6fe8b6be733d5727baec9c")
