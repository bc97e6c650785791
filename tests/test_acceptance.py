"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  The
random sweeps are seeded, so every run checks the same graphs.
"""

import hashlib
import itertools
import random

from bchromatic.fall import fall_uniqueness_report
from bchromatic.gadgets import (EDGE3COL_VARIANTS, FORMULA_N3_SATISFIABLE,
                                FORMULA_N6_UNSATISFIABLE,
                                cobipartite_hardness_instance, crown_graph,
                                edge3col_instance,
                                edge_colouring_to_tight_bcolouring,
                                one_in_three_graph, petersen_graph, prism_graph)
from bchromatic.graphs import (Graph, analyze_tight, is_b_colouring,
                               is_fall_colouring, is_tight_b_colouring,
                               m_degree, proper_violation)
from bchromatic.matching import maximum_matching
from bchromatic.oracles import (b_chromatic_number, b_colouring_with, chromatic_number,
                                fall_spectrum, three_edge_colouring,
                                tight_b_exact)
from bchromatic.patterns import Verdict, classify, is_free, pattern_graph
from bchromatic.tight import (PartialViolation, extend_partial,
                              is_b_precolouring_extension, solve_tight,
                              tight_b_2p2p1_free, validate_partial)

from helpers import (all_graphs, all_graphs_up_to, brute_max_matching_size,
                     footnote_graph, independent_set_partitions,
                     masks_to_colouring, random_graph, sample_in_class_p3p1,
                     sample_tight, sample_tight_in_class)

K33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_observation_sweep():
    """chi <= phi <= m and nonempty F => chi <= min F <= max F <= delta+1,
    over all 32768 labeled graphs on 6 vertices; the values of the
    chromatic and b-chromatic oracles, the chromatic witness and the
    index-order b-colouring ``b_colouring_with(g, phi)`` against a recorded
    digest.  The b-chromatic witness is checked on its own, and no
    b-colouring has phi + 1 colours."""
    violations = 0
    count = 0
    digest = hashlib.sha256()
    for g in all_graphs(6):
        count += 1
        chi, chi_w = chromatic_number(g)
        phi, phi_w = b_chromatic_number(g)
        first = b_colouring_with(g, phi)
        digest.update(repr((g.adj, chi, chi_w.colours, phi, first.colours)).encode())
        if not (chi <= phi <= m_degree(g) and phi_w.k == phi and is_b_colouring(g, phi_w)
                and b_colouring_with(g, phi + 1) is None):
            violations += 1
            continue
        spectrum = fall_spectrum(g)
        if spectrum.values and not (chi <= spectrum.values[0] <= spectrum.values[-1]
                                <= g.min_degree() + 1):
            violations += 1
    ok = violations == 0 and count == 32768
    _line(1, "observation sweep", ok, f"{count} graphs, {violations} violations")
    assert ok
    assert digest.hexdigest() == ("d6bb6b17046ef9feea66a0206b5ed71b"
                                  "037a6e44f5fabd7c60ec99b9b4d0ba64")


def _tight_solver_equivalence(pattern, solver, rng):
    disagreements = 0
    handled = 0
    for g in all_graphs_up_to(6):
        if analyze_tight(g).is_tight and is_free(g, pattern):
            got = solver(g)
            want = tight_b_exact(g)
            handled += 1
            if (got is not None) != (want.status == "found"):
                disagreements += 1
            elif got is not None and not is_tight_b_colouring(g, got):
                disagreements += 1
    for g in sample_tight_in_class(rng, 1000, pattern):
        got = solver(g)
        want = tight_b_exact(g)
        handled += 1
        if (got is not None) != (want.status == "found"):
            disagreements += 1
        elif got is not None and not is_tight_b_colouring(g, got):
            disagreements += 1
    return handled, disagreements


def _dispatched(g):
    """``solve_tight``'s colouring, counted only off the oracle path."""
    res = solve_tight(g)
    assert res.path != "oracle", g.adj
    return res.colouring


def test_criterion_2_tight_solver_equivalence():
    rng = random.Random(202)
    h1, d1 = _tight_solver_equivalence("2P2+P1", tight_b_2p2p1_free, rng)
    h2, d2 = _tight_solver_equivalence("P3+P1", _dispatched, rng)
    footnote_no = solve_tight(footnote_graph()).status == "absent"
    ok = d1 == 0 and d2 == 0 and footnote_no and h1 >= 2445 and h2 >= 1635
    _line(2, "tight-solver equivalence", ok,
          f"(2P2+P1)-free: {h1} graphs {d1} disagreements; "
          f"(P3+P1)-free: {h2} graphs {d2} disagreements; footnote no: {footnote_no}")
    assert ok


def _all_partials(g, info, violations):
    """Every partial b-colouring with T coloured 1..m in vertex order; each
    violated clause and its detail go into the hash ``violations``."""
    dense = sorted(info.dense)
    t_col = {u: i + 1 for i, u in enumerate(dense)}
    boundary = sorted(info.boundary)
    for r in range(len(boundary) + 1):
        for s_prime in itertools.combinations(boundary, r):
            for cols in itertools.product(range(1, info.m + 1), repeat=r):
                colours = dict(t_col)
                colours.update(dict(zip(s_prime, cols)))
                res = validate_partial(g, frozenset(s_prime), colours)
                if isinstance(res, PartialViolation):
                    violations.update(repr((res.clause, res.detail)).encode())
                else:
                    yield res


def _brute_has_extension(g, p):
    m = p.m
    free = [v for v in range(g.n) if v not in p.colours]
    base = [0] * g.n
    for v, c in p.colours.items():
        base[v] = c

    def rec(i):
        if i == len(free):
            from bchromatic.graphs import Colouring, proper_violation
            if set(base) != set(range(1, m + 1)):
                return False
            col = Colouring(tuple(base), m)
            if proper_violation(g, col) is not None:
                return False
            return is_b_precolouring_extension(p, col)
        for c in range(1, m + 1):
            base[free[i]] = c
            if rec(i + 1):
                return True
        base[free[i]] = 0
        return False

    return rec(0)


def test_criterion_3_extension_engine():
    """Exhaustive over tight graphs with at most 6 vertices plus a seeded
    random batch at n = 7: positive answers validate, negative answers are
    confirmed by restricted enumeration.  The rejected partial colourings
    (clause, and the edge or neighbour count in its detail) match a
    recorded digest."""
    rng = random.Random(303)
    bad = 0
    partials = 0
    violations = hashlib.sha256()
    hosts = [g for g in all_graphs_up_to(6) if analyze_tight(g).is_tight]
    hosts += sample_tight(rng, 150, 7)
    for g in hosts:
        info = analyze_tight(g)
        for p in _all_partials(g, info, violations):
            partials += 1
            c = extend_partial(p)
            if c is not None:
                if not (is_tight_b_colouring(g, c)
                        and is_b_precolouring_extension(p, c)):
                    bad += 1
            elif _brute_has_extension(g, p):
                bad += 1
    ok = bad == 0 and partials > 3000
    _line(3, "extension engine", ok, f"{len(hosts)} tight hosts, {partials} partials, {bad} failures")
    assert ok
    assert violations.hexdigest() == ("d7a312e3ad93db761d9fd2b6ac0bc978"
                                      "7037ae8a46de2fc1944ca15724b040c1")


def test_criterion_4_fall_solver_equivalence():
    rng = random.Random(404)
    disagreements = 0
    handled = 0
    for g in all_graphs_up_to(6):
        if is_free(g, "P3+P1"):
            handled += 1
            rep = fall_uniqueness_report(g)
            res = rep.spectrum
            spectrum = fall_spectrum(g)
            if rep.path != "(P3+P1)-free" or res.values != spectrum.values or len(res.values) > 1:
                disagreements += 1
            elif any(not is_fall_colouring(g, res.witnesses[k]) for k in res.values):
                disagreements += 1
    for g in sample_in_class_p3p1(rng, 1000):
        handled += 1
        rep = fall_uniqueness_report(g)
        res = rep.spectrum
        spectrum = fall_spectrum(g)
        if rep.path != "(P3+P1)-free" or res.values != spectrum.values or len(res.values) > 1:
            disagreements += 1
    paw_empty = fall_spectrum(pattern_graph("paw")).values == ()
    c3_three = fall_spectrum(pattern_graph("C3")).values == (3,)
    ok = disagreements == 0 and paw_empty and c3_three and handled >= 8000
    _line(4, "fall-solver equivalence", ok,
          f"{handled} graphs, {disagreements} disagreements; "
          f"F(paw) empty: {paw_empty}; F(C3)=(3,): {c3_three}")
    assert ok


def test_criterion_4_spectrum_of_k33_minus_perfect_matching():
    """Exact value: the fall spectrum of K_{3,3} minus a perfect matching
    (the 6-cycle) is {2, 3}.  Its maximal independent sets are the two sides
    and the three matched pairs.  The two sides partition V (k = 2), the
    three pairs partition V (k = 3), and no side combines with pairs since
    every pair meets both sides.  So the fall chromatic number is 2 and the
    fall achromatic number is 3.  The expected value is derived here by
    brute force over all 203 set partitions, not taken from the oracle."""
    g = crown_graph(3)
    # Partitions into independent sets of the edgeless graph: every set
    # partition of V, proper for g or not.
    partitions = list(independent_set_partitions(Graph.empty(g.n)))
    colourings = [masks_to_colouring(g, masks) for masks in partitions]
    brute = {c.k for c in colourings
             if proper_violation(g, c) is None and is_fall_colouring(g, c)}
    spectrum = fall_spectrum(g)
    got = spectrum.values
    witnesses_ok = all(spectrum.witnesses[k].k == k
                       and is_fall_colouring(g, spectrum.witnesses[k])
                       for k in got)
    ok = (len(partitions) == 203 and brute == {2, 3} and got == (2, 3)
          and min(got) == 2 and max(got) == 3 and witnesses_ok)
    _line(4, "fixed spectrum of K33 minus perfect matching", ok,
          f"computed {got}, brute force {tuple(sorted(brute))}, required (2, 3) "
          f"(two sides or three matched pairs); witnesses valid: {witnesses_ok}")
    assert len(partitions) == 203
    assert brute == {2, 3}
    assert got == (2, 3)
    assert min(got) == 2 and max(got) == 3
    assert witnesses_ok


def test_criterion_5_gadget_structure():
    failures = []
    cubix = {"K4": pattern_graph("K4"), "K33": K33,
             "prism": prism_graph(), "petersen": petersen_graph()}
    for name, g in cubix.items():
        n, m = g.n, g.edge_count()
        info = analyze_tight(edge3col_instance(g).graph)
        if not (info.m == n + 3 and info.is_tight):
            failures.append(f"{name} base")
        v3 = edge3col_instance(g, "edge3col-3p2")
        info = analyze_tight(v3.graph)
        if not (info.m == n + 3 and info.is_tight and is_free(v3.graph, "3P2")):
            failures.append(f"{name} 3p2")
        v2 = edge3col_instance(g, "edge3col-2p3")
        info = analyze_tight(v2.graph)
        degs = v2.graph.degrees()
        table = (all(degs[x] == m + n + 3 for x in range(n))
                 and all(degs[x] == m + n + 3 for x in v2.groups["a"])
                 and all(degs[x] == m + n + 3 for x in v2.groups["b"])
                 and all(degs[x] == m + n + 2 for x in v2.groups["c"])
                 and all(degs[x] == n + 2 for x in v2.edge_vertex_of))
        if not (info.m == m + n + 4 and info.is_tight and table
                and is_free(v2.graph, "2P3")):
            failures.append(f"{name} 2p3")
    rng = random.Random(505)
    for i in range(20):
        nl = rng.randint(2, 5)
        nr = rng.randint(2, 10 - nl)
        edges = [(a, nl + b) for a in range(nl) for b in range(nr) if rng.random() < 0.6]
        if not edges:
            edges = [(0, nl)]
        inst = cobipartite_hardness_instance(Graph.from_edges(nl + nr, edges))
        if not (is_free(inst.graph, "3P1") and is_free(inst.graph, "2P2")):
            failures.append(f"bipartite #{i}")
    ok = not failures
    _line(5, "gadget structure", ok, f"failures: {failures or 'none'}")
    assert ok


def test_criterion_6_reduction_equivalence():
    failures = []
    # (a) forward maps on the 3-edge-colourable cubic fixtures
    for name, g in {"K4": pattern_graph("K4"), "K33": K33, "prism": prism_graph()}.items():
        ec = three_edge_colouring(g)
        if ec is None:
            failures.append(f"{name} lost its edge colouring")
            continue
        for variant in EDGE3COL_VARIANTS:
            inst = edge3col_instance(g, variant)
            col = edge_colouring_to_tight_bcolouring(inst, ec)
            if not (col.k == inst.advertised_colours
                    and is_tight_b_colouring(inst.graph, col)):
                failures.append(f"{name} {inst.variant}")
    # (b) satisfiable fixture: spectrum is exactly {7}
    gbar3 = one_in_three_graph(FORMULA_N3_SATISFIABLE).gbar
    if fall_spectrum(gbar3).values != (7,):
        failures.append("n=3 spectrum")
    # (c) unsatisfiable fixture: empty spectrum, chromatic number above 14
    gbar6 = one_in_three_graph(FORMULA_N6_UNSATISFIABLE).gbar
    if fall_spectrum(gbar6).values != ():
        failures.append("n=6 spectrum")
    chi6, _ = chromatic_number(gbar6)
    if not chi6 > 14:
        failures.append(f"n=6 chromatic {chi6}")
    # (d) Petersen through the base construction: never a "yes"
    res = tight_b_exact(edge3col_instance(petersen_graph()).graph, node_budget=10**8)
    if res.status == "found":
        failures.append("petersen backward claims a colouring")
    ok = not failures
    _line(6, "reduction equivalence", ok,
          f"failures: {failures or 'none'}; petersen backward: {res.status}")
    assert ok


def test_criterion_7_dichotomy_table():
    P, H, C, O = Verdict.POLY, Verdict.NP_HARD, Verdict.NP_COMPLETE, Verdict.OPEN
    expected = {
        "P4": (P, P, P),
        "P3+P1": (H, P, P),
        "2P2": (H, P, H),
        "2P2+P1": (H, P, H),
        "3P1": (H, P, P),
        "P5": (H, C, H),
        "2P3": (H, C, H),
        "3P2": (H, C, H),
        "claw": (H, C, H),
        "C3": (H, C, H),
        "C4": (H, C, H),
        "C5": (H, C, H),
        "paw": (H, C, H),
        "P4+P1": (H, O, H),
        "P3+2P1": (H, O, H),
        "4P1": (H, O, H),
    }
    wrong = []
    for name, (vb, vt, vf) in expected.items():
        h = pattern_graph(name)
        got = tuple(classify(h, problem).verdict for problem in ("b", "tightb", "fall"))
        if got != (vb, vt, vf):
            wrong.append((name, got))
    open_checks = []
    for name in ("P4+P1", "P3+2P1", "4P1"):
        open_checks.append(classify(pattern_graph(name), "tightb").family is not None)
    ok = not wrong and all(open_checks)
    _line(7, "dichotomy classifier table", ok, f"mismatches: {wrong or 'none'}")
    assert ok


def test_criterion_8_matching_module():
    rng = random.Random(808)
    bad = 0
    count = 0
    for g in all_graphs_up_to(6):
        count += 1
        bf = brute_max_matching_size(g)
        if len(maximum_matching(g)) != bf:
            bad += 1
    for _ in range(1000):
        g = random_graph(rng, rng.randint(7, 9), rng.random())
        count += 1
        if len(maximum_matching(g)) != brute_max_matching_size(g):
            bad += 1
    ok = bad == 0
    _line(8, "matching module", ok, f"{count} graphs, {bad} disagreements")
    assert ok
