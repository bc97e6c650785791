"""Ground-truth solvers: pinned values, invariants, and pruning soundness."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic import oracles
from bchromatic.gadgets import (EDGE3COL_VARIANTS, FORMULA_N3_SATISFIABLE,
                                edge3col_instance, odd_crown_graph,
                                petersen_graph, prism_graph)
from bchromatic.graphs import (Colouring, Graph, NotCubicError, NotTightError, _b_vertices,
                               analyze_tight, bits,
                               is_b_chromatic_vertex, is_b_colouring, is_fall_colouring,
                               is_maximal_independent_set, is_tight_b_colouring,
                               m_degree, proper_violation)
from bchromatic.oracles import (BudgetExceededError, Formula33, FormulaError, TightSearch,
                                _colour_search,
                                b_chromatic_number, b_colouring_with,
                                chromatic_number, clique_number, fall_spectrum,
                                maximal_independent_sets,
                                min_maximal_matching_size, one_in_three_sat,
                                three_edge_colouring, tight_b_exact)
from bchromatic.patterns import pattern_graph

from helpers import (all_graphs, all_graphs_up_to, brute_independence_number,
                     brute_min_maximal_matching_size, brute_one_in_three_satisfiable,
                     circular_ladder, cyclic_formula, find_clique, footnote_graph,
                     independent_set_partitions, k4_free_complement,
                     masks_to_colouring,
                     moebius_ladder, naive_fall_spectrum, naive_tight_b_colourings,
                     random_formula, random_graph, reference_fall_spectrum,
                     reference_tight_b_exact, sample_tight)


def test_chromatic_examples():
    assert chromatic_number(pattern_graph("K5"))[0] == 5
    assert chromatic_number(pattern_graph("C5"))[0] == 3
    assert chromatic_number(petersen_graph())[0] == 3
    k, w = chromatic_number(pattern_graph("C6"))
    assert k == 2 and w.k == 2
    assert chromatic_number(Graph.empty(0)) == (0, Colouring((), 0))


def test_chromatic_small_independence_path():
    # force the raised-budget route with a 18-vertex complete 6-partite graph
    g = Graph.from_edges(18, [(u, v) for u in range(18) for v in range(u + 1, 18)
                              if u // 3 != v // 3])
    k, w = chromatic_number(g)
    assert k == 6
    assert proper_violation(g, w) is None and w.k == 6


# seeds of ``k4_free_complement`` at n = 17, 20 and 23 on which a packing
# search over edges and triangles of the complement, with a bound that
# floored its two halves apart, answered ceil(n/3) + 1
UNDERCOUNTED_SEEDS = {
    17: (1, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 16, 19),
    20: (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 14, 15, 16, 17, 19),
    23: (0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19),
}


@pytest.mark.parametrize("n", sorted(UNDERCOUNTED_SEEDS))
def test_chromatic_meets_n_over_alpha_past_the_default_limit(n):
    """A class holds at most alpha vertices, so chi >= ceil(n/alpha); a
    proper colouring with that many colours certifies chi."""
    for seed in UNDERCOUNTED_SEEDS[n]:
        g = k4_free_complement(random.Random(seed), n)
        assert brute_independence_number(g) == 3
        k, w = chromatic_number(g)
        assert k == w.k == -(-n // 3), (n, seed)
        assert proper_violation(g, w) is None


@pytest.mark.parametrize("n, omega", [(28, 18), (32, 17)])
def test_chromatic_meets_the_clique_number_past_the_default_limit(n, omega):
    """The same construction with pairs in index order: a clique of size
    chi and a proper colouring with chi colours certify it."""
    g = k4_free_complement(random.Random(2), n, shuffle=False)
    assert find_clique(g, omega) is not None
    k, w = chromatic_number(g)
    assert (k, w.k) == (omega, omega) and proper_violation(g, w) is None


@pytest.mark.parametrize("name, chi", [("4C5", 20 - 8), ("3C7", 21 - 9),
                                       ("2C5+3C7", 31 - 4 - 9)])
def test_chromatic_of_odd_cycle_complements(name, chi):
    """In the complement of disjoint cycles of length at least 4 a colour
    class is one vertex or one cycle edge, so chi is n minus the largest
    matching of the cycles, n - sum(floor(l/2))."""
    g = pattern_graph(name).complement()
    k, w = chromatic_number(g)
    assert (k, w.k) == (chi, chi) and proper_violation(g, w) is None


def test_b_chromatic_examples():
    for k in (2, 3, 4, 5):
        assert b_chromatic_number(pattern_graph(f"K{k}"))[0] == k
    assert b_chromatic_number(pattern_graph("C4"))[0] == 2
    phi, w = b_chromatic_number(odd_crown_graph(3))
    assert phi >= 3 and is_b_colouring(odd_crown_graph(3), w)
    assert b_colouring_with(pattern_graph("C4"), 3) is None


@pytest.mark.parametrize("g", [Graph.empty(0), Graph.empty(1), pattern_graph("P4"),
                               pattern_graph("C5"), odd_crown_graph(3), petersen_graph()])
def test_b_chromatic_witness_is_b_colouring_with(g):
    """The witness of b(G) is a b-colouring with b colours, and
    ``b_colouring_with`` finds one with b colours and none with b + 1, on
    the empty graph too, where k = 0 is the one k below 1 that has a
    b-colouring."""
    b, w = b_chromatic_number(g)
    assert is_b_colouring(g, w) and w.k == b
    first = b_colouring_with(g, b)
    assert is_b_colouring(g, first) and first.k == b
    assert b_colouring_with(g, b + 1) is None
    assert b_colouring_with(g, -1) is None
    assert (b_colouring_with(g, 0) is None) == (g.n > 0)


def test_b_colouring_with_matches_the_unpruned_enumeration():
    """The witness for every k, 0 and n+1 included, is the first partition
    into k independent classes, in canonical enumeration order, whose every
    class has a b-chromatic member: the search may prune, never reorder."""
    for g in all_graphs_up_to(5):
        for k in range(g.n + 2):
            want = None
            for masks in independent_set_partitions(g):
                if len(masks) != k:
                    continue
                c = masks_to_colouring(g, masks)
                if all(any(is_b_chromatic_vertex(g, c, v) for v in members)
                       for members in c.classes().values()):
                    want = c
                    break
            assert b_colouring_with(g, k) == want, (g.adj, k)


def _b_colourings_along(g, order):
    """Every b-colouring of g, as class masks, in the canonical enumeration
    order along ``order``: the unpruned partitions of g relabelled so that
    ``order`` is index order, kept when every class meets the b-vertex mask
    of ``graphs``."""
    at = {v: i for i, v in enumerate(order)}
    h = Graph.from_edges(g.n, [(at[u], at[v]) for u, v in g.edges()])
    for masks in independent_set_partitions(h):
        classes = [sum(1 << order[i] for i in bits(m)) for m in masks]
        if all(c & _b_vertices(g, classes) for c in classes):
            yield classes


def _search_to_the_end(monkeypatch, g, k, order):
    """Run the b-colouring search with k colours along ``order`` past every
    leaf: its node test is wrapped to record the live set of each node,
    keyed by the node's classes and uncoloured vertices, and to refuse
    every leaf after answering it.  Returns the nodes and the leaves the
    test accepted, in search order."""
    nodes = {}
    accepted = []
    node_test = oracles._b_vertices_possible

    def recording(classes, near, live, left, k):
        nodes[tuple(classes), left] = live
        ok = node_test(classes, near, live, left, k)
        if ok and not left:
            accepted.append(list(classes))
        return ok and bool(left)

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_b_vertices_possible", recording)
        assert _colour_search(g.adj, k, order, b_vertices=True) is None
    return nodes, accepted


def test_b_vertex_prune_keeps_the_first_leaf(monkeypatch):
    """The reference runs no search: it enumerates every partition into
    independent sets and keeps those whose every class meets the b-vertex
    mask of ``graphs``.  For every k, in index and in degree order, the
    search returns the reference's first b-colouring (or None), and run
    past every leaf it accepts exactly the reference's b-colourings, in
    the same order.  At every leaf it reaches, its live set is the
    b-vertex mask; along the path to every b-colouring, each b-vertex of
    that colouring is live at every node."""
    rng = random.Random(5)
    b_leaves = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(7, 9), rng.random())
        by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        for order in (list(range(g.n)), by_degree):
            reference = list(_b_colourings_along(g, order))
            for k in range(g.n + 2):
                want = [c for c in reference if len(c) == k]
                assert (_colour_search(g.adj, k, order, b_vertices=True)
                        == (want[0] if want else None)), (g.adj, order, k)
                nodes, accepted = _search_to_the_end(monkeypatch, g, k, order)
                assert accepted == want, (g.adj, order, k)
                for (classes, left), live in nodes.items():
                    if not left:
                        assert live == _b_vertices(g, classes), (g.adj, classes)
                for classes in want:
                    b_leaves += 1
                    b = _b_vertices(g, classes)
                    for i in range(g.n + 1):
                        # the node where order[i] is next (the leaf at
                        # i = n): each class cut to the vertices coloured
                        # so far; the empty ones are not open yet
                        done = sum(1 << v for v in order[:i])
                        key = tuple(c & done for c in classes if c & done), g.full_mask() & ~done
                        assert nodes[key] & b == b, (g.adj, classes, i)
    assert b_leaves > 1000


def test_b_vertex_prune_waits_for_vertices_still_to_come():
    """Once 0, 1 and 2 are coloured, vertex 2 sees one other colour and has
    no uncoloured neighbour, but vertex 5, still to come, joins its class
    and is its b-vertex; a prune that cut there would report b = 2."""
    g = Graph.from_edges(6, [(0, 2), (0, 4), (1, 2), (1, 4), (3, 5), (4, 5)])
    assert b_chromatic_number(g)[0] == 3
    assert b_colouring_with(g, 3) is not None


def test_b_chromatic_number_on_a_hard_16_vertex_graph():
    """Before any b-vertex cut this graph took 25-40 s on a 2-CPU host:
    every k above b(G) was a full failed search.  With the live-set cut it
    takes about 0.3 ms in process (0.7 ms with the static degree pool the
    cut used before).  Value and index-order witness as recorded then; the
    witness of b(G) is the first b-colouring along decreasing degree,
    checked on its own."""
    g = random_graph(random.Random(1), 16, 0.3)
    k, w = b_chromatic_number(g)
    assert k == 5
    assert b_colouring_with(g, k).colours == (1, 2, 1, 1, 2, 3, 3, 1, 3, 4, 3, 3, 5, 4, 5, 5)
    assert is_b_colouring(g, w) and w.k == k
    assert b_colouring_with(g, k + 1) is None


def test_budget_errors():
    big = Graph.empty(40)
    with pytest.raises(BudgetExceededError):
        chromatic_number(big)
    with pytest.raises(BudgetExceededError):
        fall_spectrum(Graph.from_edges(20, [(i, (i + 1) % 20) for i in range(20)]))
    with pytest.raises(BudgetExceededError, match=r"1-in-3 oracle limited to n<=30, got n=240"):
        one_in_three_sat(cyclic_formula(240))
    assert sum(one_in_three_sat(cyclic_formula(240), budget=240)) == 80
    for oracle in (b_chromatic_number, lambda g: b_colouring_with(g, 2)):
        with pytest.raises(BudgetExceededError,
                           match=r"^b-colouring oracle limited to n<=16, got n=17$"):
            oracle(pattern_graph("P17"))
    assert b_chromatic_number(Graph.empty(0)) == (0, Colouring((), 0))


def test_tight_b_exact_examples():
    res = tight_b_exact(pattern_graph("K3"))
    assert res.status == "found" and res.colouring.k == 3
    assert tight_b_exact(footnote_graph()).status == "absent"
    inst = edge3col_instance(pattern_graph("K4"))
    res = tight_b_exact(inst.graph)
    assert res.status == "found" and res.colouring.k == 7
    assert is_tight_b_colouring(inst.graph, res.colouring)
    with pytest.raises(NotTightError):
        tight_b_exact(pattern_graph("C4"))


def test_tight_b_exact_inconclusive_is_distinct():
    inst = edge3col_instance(petersen_graph())
    starved = tight_b_exact(inst.graph, node_budget=5)
    assert starved.status == "inconclusive" and starved.colouring is None


def test_tight_b_exact_pruning_soundness():
    """Absence and presence agree with an unpruned partition enumerator."""
    checked = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            if not analyze_tight(g).is_tight:
                continue
            res = tight_b_exact(g)
            brute = next(iter(naive_tight_b_colourings(g)), None)
            assert (res.status == "found") == (brute is not None), g.adj
            checked += 1
    assert checked > 1500


def _same_search_at_every_budget(g: Graph) -> TightSearch:
    """The search and its recursive reference give equal results without
    a budget and at budgets 1, 5, nodes - 1 and nodes."""
    full = tight_b_exact(g)
    assert full == reference_tight_b_exact(g), g.adj
    for budget in {1, 5, full.nodes - 1, full.nodes} - {-1}:
        assert (tight_b_exact(g, node_budget=budget)
                == reference_tight_b_exact(g, node_budget=budget)), (g.adj, budget)
    return full


def test_tight_b_exact_matches_the_recursive_reference():
    """Same status, witness and node count as the recursive search on the
    edge3col instances of six cubic graphs, each also relabelled at random,
    and on random tight graphs with 7-12 vertices."""
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    sources = [pattern_graph("K4"), k33, prism_graph(), petersen_graph(),
               circular_ladder(5), moebius_ladder(4)]
    rng = random.Random(41)
    statuses = set()
    for src in sources:
        for variant in EDGE3COL_VARIANTS:
            g = edge3col_instance(src, variant).graph
            perm = list(range(g.n))
            rng.shuffle(perm)
            shuffled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            for h in (g, shuffled):
                statuses.add(_same_search_at_every_budget(h).status)
    for n in range(7, 13):
        for g in sample_tight(rng, 15, n):
            statuses.add(_same_search_at_every_budget(g).status)
    assert statuses == {"found", "absent"}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_tight_b_exact_agrees_with_the_reference_on_random_tight_graphs(seed, n):
    """A tight graph drawn by ``sample_tight``: the search equals the
    recursive reference, and a found witness is a tight b-colouring."""
    g = sample_tight(random.Random(seed), 1, n)[0]
    res = tight_b_exact(g)
    assert res == reference_tight_b_exact(g)
    if res.status == "found":
        assert is_tight_b_colouring(g, res.colouring)


def test_fall_spectrum_examples():
    assert fall_spectrum(pattern_graph("paw")).values == ()
    assert fall_spectrum(pattern_graph("C3")).values == (3,)
    assert fall_spectrum(pattern_graph("C4")).values == (2,)
    assert fall_spectrum(Graph.empty(0)).values == ()
    assert fall_spectrum(Graph.empty(1)).values == (1,)


def test_fall_spectrum_against_naive_partitions():
    rng = random.Random(30)
    for n in range(1, 6):
        for g in all_graphs(n):
            spectrum = fall_spectrum(g)
            assert set(spectrum.values) == naive_fall_spectrum(g), g.adj
            for k, w in spectrum.witnesses.items():
                assert w.k == k and is_fall_colouring(g, w)
    for _ in range(150):
        g = random_graph(rng, rng.randint(6, 7), rng.random())
        spectrum = fall_spectrum(g)
        assert set(spectrum.values) == naive_fall_spectrum(g), g.adj
        for k, w in spectrum.witnesses.items():
            assert w.k == k and is_fall_colouring(g, w)


def test_fall_spectrum_matches_the_recursive_reference():
    """Same values and witnesses as the recursive exact cover on every graph
    with at most 6 vertices and on random graphs with 7-12 vertices."""
    rng = random.Random(33)
    randoms = (random_graph(rng, rng.randint(7, 12), rng.random()) for _ in range(300))
    for g in itertools.chain(all_graphs_up_to(6), randoms):
        spectrum = fall_spectrum(g)
        reference = reference_fall_spectrum(g)
        assert spectrum.values == tuple(sorted(reference)), g.adj
        assert spectrum.witnesses == reference, g.adj


def test_maximal_independent_sets_are_dominating():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        sets = maximal_independent_sets(g)
        for m in sets:
            assert is_maximal_independent_set(g, m)
        # and conversely every independent dominating set is maximal independent
        for mask in range(1, 1 << g.n):
            inside = [v for v in range(g.n) if (mask >> v) & 1]
            independent = all(not g.adj[v] & mask for v in inside)
            dominating = all((mask >> v) & 1 or (g.adj[v] & mask) for v in range(g.n))
            if independent and dominating:
                assert mask in sets


def test_three_edge_colouring():
    assert three_edge_colouring(pattern_graph("K4")) is not None
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    ec = three_edge_colouring(k33)
    assert ec is not None
    at = {v: set() for v in range(6)}
    for (u, v), c in ec.items():
        assert c in (1, 2, 3) and c not in at[u] and c not in at[v]
        at[u].add(c)
        at[v].add(c)
    assert three_edge_colouring(petersen_graph()) is None
    with pytest.raises(NotCubicError):
        three_edge_colouring(pattern_graph("C4"))


def test_three_edge_colouring_is_the_first_in_lexicographic_order():
    """Edges in index order, colours 1-3: the witness is the first proper
    colouring that ``itertools.product`` yields."""
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    for g in (pattern_graph("K4"), k33, prism_graph()):
        edges = g.edges()
        first = next(cols for cols in itertools.product((1, 2, 3), repeat=len(edges))
                     if all(cols[i] != cols[j]
                            for i, j in itertools.combinations(range(len(edges)), 2)
                            if set(edges[i]) & set(edges[j])))
        assert three_edge_colouring(g) == dict(zip(edges, first))


def test_one_in_three_sat():
    a = one_in_three_sat(FORMULA_N3_SATISFIABLE)
    assert a is not None and sum(a) == 1
    with pytest.raises(FormulaError):
        Formula33(3, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(FormulaError):
        Formula33(3, ((0, 1, 1), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(FormulaError, match="^variable 3 out of range$"):
        Formula33(3, ((0, 1, 3), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(FormulaError, match="exactly three clauses"):
        Formula33(4, ((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3)))
    # forced absence: clause set where no assignment hits each clause once,
    # verified against plain enumeration
    f = Formula33(6, ((0, 1, 3), (0, 1, 4), (0, 2, 5), (1, 2, 5), (2, 3, 4), (3, 4, 5)))
    assert one_in_three_sat(f) is None
    for bitsmask in range(1 << 6):
        assign = [(bitsmask >> i) & 1 for i in range(6)]
        assert any(sum(assign[x] for x in cl) != 1 for cl in f.clauses)


def test_one_in_three_sat_against_brute_force():
    """An assignment exactly when one of the 2^n assignments works, on
    random (3,3)-formulas with 3-12 variables, and every assignment
    returned puts exactly one true variable in each clause."""
    rng = random.Random(34)
    answers = set()
    for variables in range(3, 13):
        for _ in range(30):
            f = random_formula(rng, variables)
            assignment = one_in_three_sat(f)
            answers.add(assignment is not None)
            assert (assignment is not None) == brute_one_in_three_satisfiable(f), f
            if assignment is not None:
                assert len(assignment) == variables
                assert all(sum(assignment[x] for x in cl) == 1 for cl in f.clauses), f
    assert answers == {False, True}


def test_one_in_three_sat_on_a_3000_variable_formula():
    """The exact cover keeps its own stack: the cyclic formula with clauses
    (i, i+1, i+2) mod 3000 is solved 1,000 sets deep."""
    f = cyclic_formula(3000)
    assignment = one_in_three_sat(f, budget=3000)
    assert sum(assignment) == 1000
    assert all(sum(assignment[x] for x in cl) == 1 for cl in f.clauses)


def test_min_maximal_matching():
    assert min_maximal_matching_size(pattern_graph("P4")) == 1
    assert min_maximal_matching_size(pattern_graph("K4")) == 2
    assert min_maximal_matching_size(pattern_graph("C6")) == 2
    assert min_maximal_matching_size(pattern_graph("3P1")) == 0
    for k in (0, 1, 7):
        assert min_maximal_matching_size(Graph.empty(k)) == 0


def test_min_maximal_matching_against_brute_force():
    """The minimal-vertex-cover route agrees with enumerating every matching
    on all graphs with at most 6 vertices and on random ones with 7 to 10."""
    for g in all_graphs_up_to(6):
        assert min_maximal_matching_size(g) == brute_min_maximal_matching_size(g), g
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(7, 10), rng.random())
        assert min_maximal_matching_size(g) == brute_min_maximal_matching_size(g), g
    assert min_maximal_matching_size(Graph.empty(0)) == 0
    with pytest.raises(BudgetExceededError, match=r"^matching oracle limited to n<=16, got n=17$"):
        min_maximal_matching_size(pattern_graph("P17"))


def test_observation_bounds_exhaustive_small():
    """chi <= phi <= m and the fall-spectrum bounds on every graph with at
    most 5 vertices (6 is swept by the acceptance suite)."""
    for n in range(1, 6):
        for g in all_graphs(n):
            chi, _ = chromatic_number(g)
            phi, _ = b_chromatic_number(g)
            assert chi <= phi <= m_degree(g)
            spectrum = fall_spectrum(g)
            if spectrum.values:
                assert chi <= spectrum.values[0] <= spectrum.values[-1] <= g.min_degree() + 1


def test_observation_bounds_random():
    """The same bounds on random graphs beyond the exhaustive sweep."""
    rng = random.Random(32)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(7, 9), rng.random())
        chi, _ = chromatic_number(g)
        phi, w = b_chromatic_number(g)
        assert chi <= phi <= m_degree(g)
        assert is_b_colouring(g, w) and w.k == phi
        spectrum = fall_spectrum(g)
        if spectrum.values:
            assert chi <= spectrum.values[0] <= spectrum.values[-1] <= g.min_degree() + 1


def test_clique_number():
    assert clique_number(pattern_graph("K5")) == 5
    assert clique_number(pattern_graph("C5")) == 2
    assert clique_number(petersen_graph()) == 2


def test_clique_number_on_a_long_path():
    """The search's depth follows the clique size, not the vertex count."""
    assert clique_number(Graph.from_edges(1500, [(i, i + 1) for i in range(1499)])) == 2
