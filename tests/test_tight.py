"""Partial b-colourings, the extension engine, and the two class solvers."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic.graphs import (Colouring, Graph, NotTightError, analyze_tight, co_components,
                               disjoint_union, is_tight_b_colouring)
from bchromatic.oracles import tight_b_exact
from bchromatic.patterns import p3p1_decomposition, pattern_graph
from bchromatic.tight import (PartialViolation, PreconditionError,
                              boundary_forcings, dense_partition,
                              extend_partial, is_b_precolouring_extension,
                              solve_tight, tight_b_2p2p1_free,
                              validate_partial)

from helpers import (all_graphs_up_to, check_dense_structure, footnote_graph,
                     random_clique_union, sample_tight_in_class, random_graph)

P5 = pattern_graph("P5")  # tight, dense {1,2,3}, boundary {0,4}


def test_validate_partial_accepts():
    # boundary vertex 0 shares colour 3 with its non-neighbour 3 in T
    res = validate_partial(P5, {0}, {1: 1, 2: 2, 3: 3, 0: 3})
    assert not isinstance(res, PartialViolation)
    assert res.s_prime == frozenset({0}) and res.m == 3


def test_validate_partial_rejects_properness():
    # 0 is adjacent to 1; give both colour 1
    res = validate_partial(P5, {0}, {1: 1, 2: 2, 3: 3, 0: 1})
    assert isinstance(res, PartialViolation) and res.clause == "properness"


def test_validate_partial_rejects_unique_neighbour():
    # 0 takes the colour of its non-neighbour 2, but then vertex 1 sees
    # colour 2 on both of its neighbours 0 and 2
    res = validate_partial(P5, {0}, {1: 1, 2: 2, 3: 3, 0: 2})
    assert isinstance(res, PartialViolation) and res.clause == "unique-neighbour"


def test_validate_partial_rejects_t_collision():
    res = validate_partial(P5, set(), {1: 1, 2: 2, 3: 1})
    assert isinstance(res, PartialViolation) and res.clause == "t-distinct"


def test_validate_partial_rejects_colour_range():
    res = validate_partial(P5, set(), {1: 1, 2: 2, 3: 4})
    assert isinstance(res, PartialViolation) and res.clause == "colour-range"


@pytest.mark.parametrize("entry", [tight_b_exact, solve_tight, tight_b_2p2p1_free,
                                   lambda g: validate_partial(g, set(), {})],
                         ids=["tight_b_exact", "solve_tight", "tight_b_2p2p1_free",
                              "validate_partial"])
def test_not_tight_has_one_message(entry):
    with pytest.raises(NotTightError, match="^input graph is not tight$"):
        entry(pattern_graph("C4"))


def test_validate_partial_domain_errors():
    with pytest.raises(NotTightError):
        validate_partial(pattern_graph("C4"), set(), {})
    with pytest.raises(Exception):
        validate_partial(P5, {2}, {1: 1, 2: 2, 3: 3})  # S' not inside boundary
    with pytest.raises(Exception):
        validate_partial(P5, set(), {1: 1, 2: 2})  # colours not total on T


def test_dense_partition_disjointness():
    res = validate_partial(P5, {0}, {1: 1, 2: 2, 3: 3, 0: 3})
    part = dense_partition(res)
    assert part.t1 == frozenset({2})
    assert part.t_prime == frozenset({3})
    assert part.t2 == frozenset({1})
    assert part.s == frozenset({4})
    assert not part.t1 & part.t_prime


def test_extend_partial_matching_case():
    res = validate_partial(P5, set(), {1: 1, 2: 2, 3: 3})
    c = extend_partial(res)
    assert c is not None
    assert is_tight_b_colouring(P5, c)
    assert is_b_precolouring_extension(res, c)
    # proper, extends the partial colouring, but colour 1 has no b-vertex
    assert not is_b_precolouring_extension(res, Colouring((2, 1, 2, 3, 1), 3))


def test_extend_partial_case1_no():
    """T2 empty with uncoloured boundary left over answers no.

    Validated partial colourings can never reach this state (when T2 is
    empty, the missing colours of each dense vertex exactly exhaust its
    boundary capacity, so S' = boundary), so the branch is exercised with a
    directly constructed value: a star of dense vertices with two pendants
    each, three of the six pendants colour-shared.
    """
    from bchromatic.tight import PartialBColouring
    g = Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
                              (2, 6), (2, 7), (3, 8), (3, 9)])
    info = analyze_tight(g)
    assert info.is_tight and info.m == 4
    colours = {0: 1, 1: 2, 2: 3, 3: 4, 6: 2, 8: 3, 4: 4}
    p = PartialBColouring(g, frozenset({6, 8, 4}), colours, info)
    part = dense_partition(p)
    assert not part.t2 and part.s == frozenset({5, 7, 9})
    assert extend_partial(p) is None
    # the same input is (correctly) rejected by the validator
    res = validate_partial(g, {6, 8, 4}, colours)
    assert isinstance(res, PartialViolation)


def test_extend_partial_case2_greedy():
    """T2 empty and the whole boundary coloured: greedy completion, with an
    isolated leftover vertex picking the least free colour."""
    g = disjoint_union(P5, Graph.empty(1))
    res = validate_partial(g, {0, 4}, {1: 1, 2: 2, 3: 3, 0: 3, 4: 1})
    assert not isinstance(res, PartialViolation)
    part = dense_partition(res)
    assert not part.t2 and not part.s
    c = extend_partial(res)
    assert c is not None and is_tight_b_colouring(g, c)
    assert is_b_precolouring_extension(res, c)
    assert c.colours[5] == 1


def test_extend_partial_unequal_sides():
    """|T2| != |S| refutes the extension, matching the exact oracle."""
    g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
    info = analyze_tight(g)
    assert info.is_tight
    colours = {u: i + 1 for i, u in enumerate(sorted(info.dense))}
    res = validate_partial(g, set(), colours)
    assert not isinstance(res, PartialViolation)
    part = dense_partition(res)
    assert part.t2 and len(part.t2) != len(part.s)
    assert extend_partial(res) is None
    assert tight_b_exact(g).status == "absent"


def test_boundary_forcings_p5():
    info = analyze_tight(P5)
    forced = boundary_forcings(P5, info)
    # 0 can only take the colour of 3, and 4 only the colour of 1
    assert forced == {0: 3, 4: 1}


def test_solver_examples():
    for k in (2, 3, 4, 5):
        km = pattern_graph(f"K{k}")
        c = tight_b_2p2p1_free(km)
        assert c is not None and c.k == k
    c3 = tight_b_2p2p1_free(pattern_graph("C3"))
    assert c3 is not None and c3.k == 3
    res = solve_tight(footnote_graph())
    assert (res.path, res.status, res.colouring) == ("(2P2+P1)-free", "absent", None)
    res = solve_tight(pattern_graph("K4"))
    assert res.path == "(2P2+P1)-free" and res.colouring.k == 4


def test_solver_preconditions():
    with pytest.raises(PreconditionError):
        tight_b_2p2p1_free(pattern_graph("C4"))  # not tight
    with pytest.raises(PreconditionError):
        solve_tight(pattern_graph("C4"))  # NotTightError is a PreconditionError
    # P5 is tight and has an induced P3+P1, but no induced 2P2+P1
    assert solve_tight(P5).path == "(2P2+P1)-free"
    # P5+P1 is tight and has both patterns: only the oracle answers it
    p5p1 = disjoint_union(P5, Graph.empty(1))
    assert solve_tight(p5p1).path == "oracle"
    with pytest.raises(PreconditionError):
        tight_b_2p2p1_free(p5p1)


def test_clique_union_fixtures():
    res = solve_tight(pattern_graph("K3"))
    assert res.path == "(2P2+P1)-free" and res.colouring.colours == (1, 2, 3)
    # two equal largest cliques break tightness, so K3+K3 is out of scope
    k3k3 = disjoint_union(pattern_graph("K3"), pattern_graph("K3"))
    assert not analyze_tight(k3k3).is_tight
    with pytest.raises(NotTightError):
        solve_tight(k3k3)
    # 3P2 is a union of cliques with independent triples: one co-component
    # of the (P3+P1)-free solver, coloured clique by clique 1, 2, ...
    k4_3p2 = disjoint_union(pattern_graph("K4"), pattern_graph("3P2"))
    res = solve_tight(k4_3p2)
    assert res.path == "(P3+P1)-free"
    assert res.colouring.colours == (1, 2, 3, 4, 1, 2, 1, 2, 1, 2)
    assert tight_b_exact(k4_3p2).status == "found"


def test_tight_joins_are_complete_or_refuted():
    """A tight graph with two or more co-components has a tight
    b-colouring only when it is complete, on every labelled graph with at
    most 6 vertices; ``solve_tight`` agrees with the exact oracle on each."""
    joins = complete = 0
    for g in all_graphs_up_to(6):
        if not analyze_tight(g).is_tight or len(co_components(g)) < 2:
            continue
        joins += 1
        exact = tight_b_exact(g).status
        if g.edge_count() == g.n * (g.n - 1) // 2:
            complete += 1
            assert exact == "found"
        else:
            assert exact == "absent", g.adj
        assert solve_tight(g).status == exact, g.adj
    assert (joins, complete) == (95, 5)


def test_tight_solves_pinned():
    """Path, status and colouring of ``solve_tight`` on every tight
    (P3+P1)-free graph with at most 6 vertices, against a recorded digest."""
    digest = hashlib.sha256()
    count = 0
    for g in all_graphs_up_to(6):
        if p3p1_decomposition(g) is None or not analyze_tight(g).is_tight:
            continue
        res = solve_tight(g)
        colours = res.colouring and res.colouring.colours
        digest.update(repr((g.adj, res.path, res.status, colours)).encode())
        count += 1
    assert count == 635
    assert digest.hexdigest() == ("9e24ed28f50a70cdedab8710e20b4991"
                                  "4660904040832c00cc6e133464a86420")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(["2P2+P1", "P3+P1", "clique union"]), st.integers(5, 10))
def test_polynomial_paths_agree_with_the_oracle(rng, kind, n):
    """A random tight member of either class never reaches the oracle, its
    status is the oracle's, and its witness is a tight b-colouring.  The
    (P3+P1)-free members sampled by class are nearly all (2P2+P1)-free, so
    K_m plus smaller cliques, tight with dense set K_m, reaches the
    (P3+P1)-free path whenever the rest holds an edge and one more clique."""
    if kind == "clique union":
        m = rng.randint(n // 2 + 1, n)
        g = disjoint_union(pattern_graph(f"K{m}"), random_clique_union(rng, n - m))
    else:
        g = sample_tight_in_class(rng, 1, kind, (n, n))[0]
    res = solve_tight(g)
    assert res.path != "oracle"
    assert res.status == tight_b_exact(g).status, g.adj
    if res.colouring is not None:
        assert is_tight_b_colouring(g, res.colouring)


def test_clique_union_solver_against_oracle():
    rng = random.Random(40)
    checked = 0
    for _ in range(300):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        g = Graph.empty(0)
        for s in sizes:
            g = disjoint_union(g, pattern_graph(f"K{s}") if s > 1 else Graph.empty(1))
        if not analyze_tight(g).is_tight or g.n > 10:
            continue
        res = solve_tight(g)
        assert res.path != "oracle"  # a union of cliques is (P3+P1)-free
        c = res.colouring
        assert (c is not None) == (tight_b_exact(g).status == "found")
        if c is not None:
            assert is_tight_b_colouring(g, c)
        checked += 1
    assert checked > 30


def test_dense_structure_of_solver_outputs():
    """Outputs satisfy the structural facts about tight b-colourings: dense
    vertices are exactly the b-chromatic ones, one per class, no dominating
    dense vertex in a class with boundary vertices."""
    rng = random.Random(41)
    for g in sample_tight_in_class(rng, 60, "2P2+P1", (6, 9)):
        c = tight_b_2p2p1_free(g)
        if c is not None:
            check_dense_structure(g, c)
    for g in sample_tight_in_class(rng, 60, "P3+P1", (6, 9)):
        res = solve_tight(g)
        assert res.path != "oracle"
        if res.colouring is not None:
            check_dense_structure(g, res.colouring)


def test_t1_never_meets_t_prime():
    """A validated partial colouring never puts a dominating dense vertex in
    a colour shared with the boundary."""
    rng = random.Random(42)
    tested = 0
    for g in sample_tight_in_class(rng, 40, "2P2+P1", (6, 8)):
        info = analyze_tight(g)
        dense = sorted(info.dense)
        t_col = {u: i + 1 for i, u in enumerate(dense)}
        boundary = sorted(info.boundary)
        for r in range(min(len(boundary), 2) + 1):
            for s_prime in itertools.combinations(boundary, r):
                for cols in itertools.product(range(1, info.m + 1), repeat=r):
                    colours = dict(t_col)
                    colours.update(dict(zip(s_prime, cols)))
                    res = validate_partial(g, frozenset(s_prime), colours)
                    if not isinstance(res, PartialViolation):
                        dense_partition(res)  # raises if T1 meets T'
                        tested += 1
    assert tested > 50
