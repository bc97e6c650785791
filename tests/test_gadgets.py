"""Hardness constructions: structure, witness maps, and certificates."""

import copy
import pickle
import random

import pytest

from bchromatic.gadgets import (EDGE3COL_VARIANTS, FORMULA_N3_SATISFIABLE,
                                FORMULA_N6_UNSATISFIABLE, TRIANGLE_FREE_FALL_GADGET,
                                ReductionCertificate,
                                assignment_to_fall_colouring,
                                cobipartite_hardness_instance, crown_graph,
                                edge3col_instance,
                                edge_colouring_to_tight_bcolouring, family,
                                fall_gadget_union, odd_crown_graph,
                                one_in_three_graph, petersen_graph,
                                prism_graph, verify_reduction)
from bchromatic.graphs import (Graph, GraphError, NotCubicError, analyze_tight,
                               disjoint_union, is_fall_colouring,
                               is_tight_b_colouring)
from bchromatic.io import graph_digest
from bchromatic.oracles import (clique_number, fall_spectrum,
                                one_in_three_sat, three_edge_colouring, tight_b_exact)
from bchromatic.patterns import contains_induced, is_free, pattern_graph

CUBIC_FIXTURES = {
    "K4": pattern_graph("K4"),
    "K33": Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    "prism": prism_graph(),
    "petersen": petersen_graph(),
}


def test_cobipartite_single_edge():
    inst = cobipartite_hardness_instance(pattern_graph("P2"))
    assert inst.bipartite_union.n == 10
    assert inst.bipartite_union.edge_count() == 9
    assert is_free(inst.graph, "3P1") and is_free(inst.graph, "2P2")


def test_cobipartite_path():
    inst = cobipartite_hardness_instance(pattern_graph("P3"))
    assert inst.bipartite_union.n == 2 * 8 + 3
    assert inst.bipartite_union.is_bipartite()
    assert is_free(inst.bipartite_union, "C4")


def test_cobipartite_rejects_nonbipartite():
    with pytest.raises(GraphError):
        cobipartite_hardness_instance(pattern_graph("K3"))


def test_cobipartite_random_structural():
    rng = random.Random(60)
    for _ in range(20):
        nl, nr = rng.randint(2, 5), rng.randint(2, 5)
        edges = [(i, nl + j) for i in range(nl) for j in range(nr) if rng.random() < 0.5]
        if not edges:
            edges = [(0, nl)]
        g = Graph.from_edges(nl + nr, edges)
        cert = verify_reduction("cobipartite", g)
        assert cert.structurally_sound()
        assert cert.equivalence_status == "structural-only"
        assert "min_maximal_matching" in cert.measurements


def test_edge3col_instances_structure():
    # K4: 4 clique vertices and 6 edge vertices, then the periphery:
    # 3 centres and 3*(4+2) leaves; 3 centres and 3*4 leaves; 7 + 3 + 4
    pinned = {"edge3col": (31, "3330dc5e412fa0bc"), "edge3col-3p2": (25, "37c0bcc84be45c24"),
              "edge3col-2p3": (24, "688fe2b280fd3818")}
    for variant in EDGE3COL_VARIANTS:
        inst = edge3col_instance(pattern_graph("K4"), variant)
        assert (inst.graph.n, graph_digest(inst.graph)[:16]) == pinned[variant], variant
    with pytest.raises(GraphError):
        edge3col_instance(pattern_graph("K4"), "edge3col-4p1")
    for name, g in CUBIC_FIXTURES.items():
        n, m = g.n, g.edge_count()
        base = edge3col_instance(g, "edge3col")
        info = analyze_tight(base.graph)
        assert info.m == n + 3 and info.is_tight, name

        v3 = edge3col_instance(g, "edge3col-3p2")
        info = analyze_tight(v3.graph)
        assert info.m == n + 3 and info.is_tight, name
        assert is_free(v3.graph, "3P2"), name

        v2 = edge3col_instance(g, "edge3col-2p3")
        info = analyze_tight(v2.graph)
        assert info.m == m + n + 4 and info.is_tight, name
        assert is_free(v2.graph, "2P3"), name
        degs = v2.graph.degrees()
        assert all(degs[x] == m + n + 3 for x in range(n))
        assert all(degs[x] == m + n + 3 for x in v2.groups["a"])
        assert all(degs[x] == m + n + 3 for x in v2.groups["b"])
        assert all(degs[x] == m + n + 2 for x in v2.groups["c"])
        assert all(degs[x] == n + 2 for x in v2.edge_vertex_of)


def test_detector_soundness_control():
    """Hand-planting a 3P2 next to a 3P2-free instance must be detected."""
    inst = edge3col_instance(pattern_graph("K4"), "edge3col-3p2")
    assert is_free(inst.graph, "3P2")
    planted = disjoint_union(inst.graph, pattern_graph("3P2"))
    assert contains_induced(planted, pattern_graph("3P2")) is not None


def test_forward_witnesses_validate():
    for name in ("K4", "K33", "prism"):
        g = CUBIC_FIXTURES[name]
        ec = three_edge_colouring(g)
        assert ec is not None, name
        for variant in EDGE3COL_VARIANTS:
            inst = edge3col_instance(g, variant)
            col = edge_colouring_to_tight_bcolouring(inst, ec)
            assert col.k == inst.advertised_colours
            assert is_tight_b_colouring(inst.graph, col), (name, inst.variant)


def test_forward_map_rejects_bad_edge_colouring():
    g = CUBIC_FIXTURES["K4"]
    inst = edge3col_instance(g)
    good = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    assert is_tight_b_colouring(inst.graph, edge_colouring_to_tight_bcolouring(inst, good))
    for bad, message in [
        ({e: 1 for e in g.edges()}, "edge colouring is not proper"),
        ({e: c for e, c in good.items() if e != (0, 1)},
         "edge colouring must cover exactly the source edges"),
        ({**good, (0, 1): 4}, "edge colours must lie in"),
    ]:
        with pytest.raises(GraphError, match=message):
            edge_colouring_to_tight_bcolouring(inst, bad)


@pytest.mark.parametrize("entry", [three_edge_colouring, edge3col_instance])
def test_not_cubic_has_one_message(entry):
    with pytest.raises(NotCubicError, match="^input graph is not cubic$"):
        entry(pattern_graph("C4"))


def test_one_in_three_instance_structure():
    inst = one_in_three_graph(FORMULA_N3_SATISFIABLE)
    assert inst.g.n == 15
    assert clique_number(inst.g) == 3
    for name in ("C5", "2P2", "P2+2P1", "4P1"):
        assert is_free(inst.gbar, name), name


def test_one_in_three_forward_and_spectrum():
    inst = one_in_three_graph(FORMULA_N3_SATISFIABLE)
    a = one_in_three_sat(FORMULA_N3_SATISFIABLE)
    col = assignment_to_fall_colouring(inst, a)
    assert col.k == 7 and is_fall_colouring(inst.gbar, col)
    # class sizes: one triangle (3 vertices) and six pairs
    sizes = sorted(len(m) for m in col.classes().values())
    assert sizes == [2] * 6 + [3]
    assert fall_spectrum(inst.gbar).values == (7,)


def test_one_in_three_cover_bounds():
    """The minimum clique cover of the clause graph is at least 7n/3 (so the
    complement needs at least that many colours), and no fall colouring of
    the complement exceeds 7n/3."""
    from bchromatic.oracles import chromatic_number
    for f in (FORMULA_N3_SATISFIABLE, FORMULA_N6_UNSATISFIABLE):
        inst = one_in_three_graph(f)
        target = 7 * f.variables // 3
        chi, _ = chromatic_number(inst.gbar)
        assert chi >= target
        assert all(k <= target for k in fall_spectrum(inst.gbar).values)


def test_one_in_three_rejects_bad_assignment():
    inst = one_in_three_graph(FORMULA_N3_SATISFIABLE)
    with pytest.raises(GraphError, match="not 1-in-3 satisfying"):
        assignment_to_fall_colouring(inst, (True, True, False))
    with pytest.raises(GraphError, match="length mismatch"):
        assignment_to_fall_colouring(inst, (True,))


def test_triangle_free_gadget_certificate():
    g = TRIANGLE_FREE_FALL_GADGET
    assert g.n == 10
    assert is_free(g, "C3")
    assert fall_spectrum(g).values == (3,)


def test_fall_gadget_union_property():
    """The union has spectrum {3} exactly when 3 sits in the part's
    spectrum; either way the union's spectrum is contained in {3}."""
    for g in (pattern_graph("C6"), crown_graph(3), pattern_graph("C5"),
              Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)])):
        assert is_free(g, "C3")
        u = fall_gadget_union(g, "c3free")
        assert is_free(u, "C3")
        got = fall_spectrum(u, budget=20).values
        expect = (3,) if 3 in fall_spectrum(g).values else ()
        assert got == expect, g.adj
    with pytest.raises(GraphError):
        fall_gadget_union(pattern_graph("K3"), "c3free")


def test_fall_gadget_union_line_kind():
    # line graph of K4 is K4 itself under L? no: use a small line graph: C3
    u = fall_gadget_union(pattern_graph("C3"), "line")
    assert fall_spectrum(u).values == (3,)
    u = fall_gadget_union(pattern_graph("K4"), "line")
    assert fall_spectrum(u).values == ()
    with pytest.raises(GraphError, match="unknown union kind 'x'"):
        fall_gadget_union(pattern_graph("K4"), "x")


def test_family_generators():
    crown = family("crown", 3)
    assert crown.n == 6 and crown.edge_count() == 6
    odd = family("odd_crown", 3)
    assert odd.n == 5
    assert family("complete", 4) == pattern_graph("K4")
    assert family("cycle", 5) == pattern_graph("C5")
    assert family("star", 4) == pattern_graph("K1,4")
    assert fall_spectrum(family("paw")).values == ()
    assert family("petersen").degrees() == [3] * 10
    with pytest.raises(GraphError):
        family("crown", 1)
    for make in (crown_graph, odd_crown_graph):
        with pytest.raises(GraphError, match="needs n >= 2"):
            make(1)
    with pytest.raises(GraphError):
        family("nonesuch", 5)


def test_verify_reduction_certificates():
    cert = verify_reduction("edge3col-2p3", CUBIC_FIXTURES["K4"])
    assert cert.structurally_sound() and not cert.inconsistent
    assert cert.equivalence_status == "verified"
    assert cert.forward_witness is not None and cert.forward_witness.k == 14

    cert = verify_reduction("one-in-three", FORMULA_N3_SATISFIABLE)
    assert cert.structurally_sound() and cert.equivalence_status == "verified"
    assert cert.measurements["fall_spectrum"] == [7]

    cert = verify_reduction("one-in-three", FORMULA_N6_UNSATISFIABLE)
    assert cert.structurally_sound() and cert.equivalence_status == "verified"
    assert cert.measurements["fall_spectrum"] == []

    with pytest.raises(GraphError):
        verify_reduction("nonesuch", pattern_graph("K4"))


def test_verify_reduction_petersen_backward():
    cert = verify_reduction("edge3col", CUBIC_FIXTURES["petersen"], node_budget=10**8)
    assert cert.structurally_sound() and not cert.inconsistent
    assert cert.forward_note == "source has no 3-edge-colouring"
    assert cert.backward_note in ("tight b-colouring search: absent",
                                  "tight b-colouring search: inconclusive")


def test_reduction_certificate_is_a_read_only_record():
    """A certificate is built once: two runs on one source give equal
    certificates, copy and pickle give an equal one back, its repr names
    every field, and no field may be assigned.  With no backward step it
    has no backward note, no measurement and no equivalence to claim."""
    a, b = (verify_reduction("edge3col", CUBIC_FIXTURES["K4"]) for _ in range(2))
    assert a is not b and a == b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.inconsistent = True
    assert not a.inconsistent
    cert = ReductionCertificate(Graph(1, (0,)), [("ok", True)], None, "", "", {})
    assert repr(cert) == ("ReductionCertificate(instance=Graph(n=1, adj=(0,)), "
                          "structural_checks=[('ok', True)], forward_witness=None, "
                          "forward_note='', backward_note='', measurements={}, "
                          "equivalence_status='structural-only', inconsistent=False)")
    for kind, source in (("cobipartite", pattern_graph("P3")), ("edge3col", CUBIC_FIXTURES["K4"]),
                         ("one-in-three", FORMULA_N3_SATISFIABLE)):
        cert = verify_reduction(kind, source, backward=False)
        assert cert.structurally_sound() and not cert.inconsistent
        assert (cert.backward_note, cert.measurements) == ("", {})
        assert cert.equivalence_status == "structural-only"
