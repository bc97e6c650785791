"""Fall colourings by the component/co-component split, and uniqueness
reporting."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic import fall, oracles
from bchromatic.cli import main
from bchromatic.fall import fall_uniqueness_report
from bchromatic.gadgets import crown_graph
from bchromatic.graphs import (Graph, complete_join, disjoint_union,
                               is_fall_colouring)
from bchromatic.io import write_dimacs
from bchromatic.oracles import fall_spectrum
from bchromatic.patterns import is_free, p3p1_decomposition, pattern_graph

from helpers import (all_graphs_up_to, random_cograph, random_p3p1_free,
                     sample_in_class_p3p1)


def cocktail_party(n: int) -> Graph:
    """K_{2n} minus a perfect matching; the in-class analogue of the
    bipartite minus-matching family, with matched pairs as colour classes."""
    return Graph.from_edges(2 * n, [(u, v) for u in range(2 * n)
                                    for v in range(u + 1, 2 * n) if v != u + n])


def in_class(g: Graph):
    """The fall spectrum of a (P3+P1)-free graph, which the dispatcher must
    report on the "(P3+P1)-free" path."""
    rep = fall_uniqueness_report(g)
    assert rep.path == "(P3+P1)-free", g.adj
    return rep.spectrum


def test_matched_pairs_monochromatic():
    g = cocktail_party(3)
    res = in_class(g)
    assert res.values == (3,)
    assert is_fall_colouring(g, res.witnesses[3])
    # each non-singleton class is one of the removed matching pairs
    for members in res.witnesses[3].classes().values():
        assert len(members) == 2 and members[1] == members[0] + 3


def test_k3_spectrum():
    res = in_class(pattern_graph("K3"))
    assert res.values == (3,)


def test_paw_empty():
    # the paw itself is (P3+P1)-free: the only 4-vertex graph that is not is
    # P3+P1 itself
    res = in_class(pattern_graph("paw"))
    assert res.values == () and not res.witnesses


def test_out_of_class_rejected():
    # C6 contains P3+P1, and is connected and co-connected with an
    # independent triple: the split refuses it
    assert fall_uniqueness_report(crown_graph(3)).path == "oracle"


def _dominating_within(g, vs):
    """Vertices of ``vs`` adjacent to every other vertex of ``vs``."""
    return {v for v in vs if all(g.has_edge(v, w) for w in vs if w != v)}


def test_case1_pairs_have_size_two():
    """In the witness, a dominating vertex of a 3P1-free co-component (there
    is one only when the co-component is that vertex alone) is a class by
    itself, and every other class in it has exactly two vertices."""
    rng = random.Random(50)
    seen = 0
    for g in sample_in_class_p3p1(rng, 300, (6, 9)):
        res = in_class(g)
        if not res.values:
            continue
        colouring = res.witnesses[res.values[0]]
        for vs in p3p1_decomposition(g):
            if not is_free(g.subgraph(vs), "3P1"):
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
        res = in_class(g)
        if not res.values:
            continue
        colouring = res.witnesses[res.values[0]]
        used = [set(colouring.colours[v] for v in vs)
                for vs in p3p1_decomposition(g)]
        for i in range(len(used)):
            for j in range(i + 1, len(used)):
                assert not used[i] & used[j]


def test_agreement_with_oracle_random():
    rng = random.Random(52)
    for g in sample_in_class_p3p1(rng, 300, (6, 9)):
        res = in_class(g)
        spectrum = fall_spectrum(g)
        assert res.values == spectrum.values, g.adj
        assert len(res.values) <= 1
        for k in res.values:
            assert is_fall_colouring(g, res.witnesses[k])


def test_fall_uniqueness_report():
    rep = fall_uniqueness_report(pattern_graph("C3"))
    assert rep.fall_unique and rep.spectrum.values == (3,) and rep.path == "(P3+P1)-free"
    assert fall_spectrum(pattern_graph("C3")).values == (3,)
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
    res = in_class(g)
    assert res.values == (4,)
    # the first co-component is all dominating, so it holds no pair
    vs = p3p1_decomposition(g)[0]
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


def test_split_agrees_with_the_oracle_on_small_graphs():
    """On every graph with at most 6 vertices: whenever the split answers,
    its spectrum is the oracle's and every witness is a fall colouring; the
    path is "(P3+P1)-free" exactly for the (P3+P1)-free graphs; and every
    P4-free graph gets an answer."""
    answered = modular = 0
    for g in all_graphs_up_to(6):
        rep = fall_uniqueness_report(g)
        if rep.path == "oracle":
            assert not is_free(g, "P4"), g.adj
            continue
        answered += 1
        modular += rep.path == "modular"
        assert rep.spectrum.values == fall_spectrum(g).values, g.adj
        for k in rep.spectrum.values:
            assert rep.spectrum.witnesses[k].k == k
            assert is_fall_colouring(g, rep.spectrum.witnesses[k]), g.adj
        assert (rep.path == "(P3+P1)-free") == (p3p1_decomposition(g) is not None), g.adj
    assert (answered, modular) == (13_647, 6_569)


def test_prime_piece_after_an_empty_spectrum_goes_to_the_oracle():
    """K1+K2 has no fall colouring, and the bull, placed after it, is prime
    (connected, co-connected, with an independent triple): the split must
    still reach the bull, in a join and in a union alike, and hand the
    whole graph to the oracle."""
    bull = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
    k1k2 = pattern_graph("P1+P2")
    for g in (complete_join(k1k2, bull), disjoint_union(k1k2, bull)):
        rep = fall_uniqueness_report(g)
        assert rep.path == "oracle"
        assert rep.spectrum == fall_spectrum(g)


def test_edgeless_pieces_need_no_matching(monkeypatch):
    """The complement of kP2 is the join of k edgeless pairs: each pair is
    one class, found without the matcher."""
    def refuse(*args, **kwargs):
        raise AssertionError("an edgeless piece reached the matcher")
    monkeypatch.setattr(fall, "perfect_matching", refuse)
    for k in (1, 2, 5):
        g = pattern_graph(f"{k}P2").complement()
        rep = fall_uniqueness_report(g)
        assert rep.path == "(P3+P1)-free" and rep.spectrum.values == (k,)
        assert is_fall_colouring(g, rep.spectrum.witnesses[k])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 200))
def test_cographs_never_reach_the_oracle(rng, n):
    """Every P4-free graph is disconnected or co-disconnected, so the split
    answers for it whole, with witnesses that are fall colourings."""
    g = random_cograph(rng, n)

    def refuse(*args, **kwargs):
        raise AssertionError("the split reached the oracle")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "fall_spectrum", refuse)
        rep = fall_uniqueness_report(g)
    assert rep.path in ("(P3+P1)-free", "modular")
    assert (rep.path == "(P3+P1)-free") == (p3p1_decomposition(g) is not None), g.adj
    for k in rep.spectrum.values:
        assert rep.spectrum.witnesses[k].k == k
        assert is_fall_colouring(g, rep.spectrum.witnesses[k])


def test_deep_cograph_needs_no_recursion(tmp_path):
    """Alternately joining and uniting one vertex gives a cograph whose
    split is 1,000 levels deep; ``fall`` answers it at the default
    recursion limit.  The last union puts one vertex, which has one class,
    beside a join, which needs two or more, so no fall colouring exists."""
    n = 1001
    g = Graph.empty(1)
    for i in range(1, n):
        g = (complete_join if i % 2 else disjoint_union)(g, Graph.empty(1))
    path, out = tmp_path / "deep.col", tmp_path / "deep.json"
    path.write_text(write_dimacs(g))
    assert main(["fall", str(path), "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["path"] == "modular" and rep["spectrum"] == []
