"""Seeded, byte-stable instance generators and the four workload pools.

``WORKLOADS[name](seed)`` returns the instances of one workload: the file
each command reads, the command line, and an ``expect`` function that
checks the command's report against an answer known by construction or
computed by a reference search in ``check``.  Only the written files reach
the package.  The same seed always gives the same bytes; sizes are chosen
for run length, never to avoid a known defect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import check as ck

# -- instances -----------------------------------------------------------------


@dataclass
class Instance:
    """One CLI command.  ``args`` holds ``{in}`` where the instance file
    goes; the runner appends ``--out``.  ``expect(report, exit_code,
    stdout)`` returns None when the answer is right, else the reason."""

    name: str
    args: list[str]
    text: str
    suffix: str
    expect: Callable[[dict | None, int, str], str | None]
    output: str = "json"  # "json": --out FILE | "prefix": --out PREFIX | "stdout"


def dimacs(g) -> str:
    """Canonical DIMACS text: edges in increasing order, 1-based."""
    lines = [f"p edge {g[0]} {len(ck.edges_of(g))}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in ck.edges_of(g)]
    return "\n".join(lines) + "\n"


def cnf13(variables: int, clauses) -> str:
    lines = [f"p 13sat {variables}"] + [" ".join(str(x + 1) for x in cl) for cl in clauses]
    return "\n".join(lines) + "\n"


# -- graph constructions -----------------------------------------------------------


def relabel(g, rng: random.Random):
    n, adj = g
    perm = list(range(n))
    rng.shuffle(perm)
    return ck.from_edges(n, [(perm[u], perm[v]) for u, v in ck.edges_of(g)])


def union(*gs):
    edges, off = [], 0
    for n, adj in gs:
        edges += [(u + off, v + off) for u, v in ck.edges_of((n, adj))]
        off += n
    return ck.from_edges(off, edges)


def join(*gs):
    return ck.complement(union(*(ck.complement(g) for g in gs)))


def clique(k: int):
    return ck.from_edges(k, combinations(range(k), 2))


def path(k: int):
    return ck.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int):
    return ck.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star(k: int):
    return ck.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_bipartite(a: int, b: int):
    return ck.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def crown(k: int):
    return ck.from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])


def empty(k: int):
    return ck.from_edges(k, [])


# Patterns in the package's notation, vertices numbered term by term.
PATTERNS = {
    "2P2+P1": ck.from_edges(5, [(0, 1), (2, 3)]),
    "P3+P1": ck.from_edges(4, [(0, 1), (1, 2)]),
}


def tight_2p2p1_family(m: int, rng: random.Random | None = None):
    """Tight graph whose dense set T is K_m minus the perfect matching
    {2i, 2i+1}; boundary vertex m+i sees both ends of missing pair i.  With
    a clique boundary the graph is (2P2+P1)-free.  With ``rng`` the boundary
    is random apart from a planted induced 2P2 on its first four vertices,
    which (with m >= 10) gives induced 2P2+P1 and P3+P1.  Either way there is
    no tight b-colouring: dense vertex 2i must find the colour of 2i+1 on
    boundary vertex m+i, which is adjacent to 2i+1."""
    half = m // 2
    edges = [(u, v) for u, v in combinations(range(m), 2) if u // 2 != v // 2]
    edges += [(m + i, 2 * i + d) for i in range(half) for d in (0, 1)]
    for i, j in combinations(range(half), 2):
        if rng is None:
            edges.append((m + i, m + j))
        elif {i, j} in ({0, 1}, {2, 3}):
            edges.append((m + i, m + j))
        elif not (i < 4 and j < 4) and rng.random() < 0.5:
            edges.append((m + i, m + j))
    return ck.from_edges(m + half, edges)


def tight_clique_union(m: int, total: int, rng: random.Random):
    """K_m plus smaller cliques up to ``total`` vertices: tight, and a tight
    b-colouring exists (rainbow K_m, smaller cliques reuse colours)."""
    sizes = [m]
    while sum(sizes) < total:
        sizes.append(min(rng.randint(1, m - 1), total - sum(sizes)))
    return union(*(clique(s) for s in sizes)), sizes


def bipartite_with_matching(half: int, p: float, rng: random.Random):
    """Random bipartite graph on two sides of ``half`` with a planted perfect
    matching i -- half+i."""
    edges = {(i, half + i) for i in range(half)}
    edges |= {(i, half + j) for i in range(half) for j in range(half) if rng.random() < p}
    return ck.from_edges(2 * half, sorted(edges))


def unbalanced_bipartite(left: int, right: int, p: float, rng: random.Random):
    """Random bipartite graph with sides of different sizes and no isolated
    vertex, hence without a perfect matching."""
    edges = {(i, left + j) for i in range(left) for j in range(right) if rng.random() < p}
    edges |= {(i, left + rng.randrange(right)) for i in range(left)}
    edges |= {(rng.randrange(left), left + j) for j in range(right)}
    return ck.from_edges(left + right, sorted(edges))


def p3p1_free_join(pieces):
    """Join of (graph, fall spectrum value or None) pieces.  Every piece's
    complement is triangle-free or complete multipartite, so the join is
    (P3+P1)-free and its fall spectrum is [sum] or [] if a piece has none."""
    g = join(*(p for p, _ in pieces))
    values = [v for _, v in pieces]
    return g, ([] if None in values else [sum(values)])


def random_graph(n: int, p: float, rng: random.Random):
    """Uniform graph with exactly round(p * n(n-1)/2) edges; a fixed edge
    count keeps the oracles' work from swinging with the sampled density."""
    pairs = list(combinations(range(n), 2))
    return ck.from_edges(n, rng.sample(pairs, round(p * len(pairs))))


def plant(g, pattern, rng: random.Random):
    """Force an induced copy of ``pattern`` onto random vertices of ``g``."""
    n, adj = g
    spots = rng.sample(range(n), pattern[0])
    edges = set(ck.edges_of(g))
    for a, b in combinations(range(pattern[0]), 2):
        e = tuple(sorted((spots[a], spots[b])))
        edges.discard(e)
        if pattern[1][a] >> b & 1:
            edges.add(e)
    return ck.from_edges(n, sorted(edges))


def random_tight(n: int, m: int, p: float, rng: random.Random):
    """Random tight graph: dense set 0..m-1 with inner density p, topped up
    to degree m-1 from a boundary whose degrees stay below m-1."""
    while True:
        adj = [set() for _ in range(n)]
        for u, v in combinations(range(m), 2):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
        for u in range(m):
            others = [s for s in range(m, n) if s not in adj[u] and len(adj[s]) < m - 2]
            need = m - 1 - len(adj[u])
            if need > len(others):
                break
            for s in rng.sample(others, need):
                adj[u].add(s)
                adj[s].add(u)
        else:
            for s, t in combinations(range(m, n), 2):
                if len(adj[s]) < m - 2 and len(adj[t]) < m - 2 and rng.random() < 0.2:
                    adj[s].add(t)
                    adj[t].add(s)
            g = ck.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
            facts = ck.tight_facts(g)
            if facts["tight"] and facts["dense"] == list(range(m)):
                return g


def ladder(k: int, mobius: bool = False):
    """Circular ladder (prism over C_k) or Moebius ladder on 2k vertices."""
    if mobius:
        edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)] + [(i, i + k) for i in range(k)]
    else:
        edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
        edges += [(i, k + i) for i in range(k)]
    return ck.from_edges(2 * k, edges)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return ck.from_edges(10, edges)


def random_cubic(n: int, rng: random.Random):
    """Uniform-ish simple cubic graph by the configuration model."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return ck.from_edges(n, sorted(pairs))


def random_formula(variables: int, rng: random.Random):
    """(3,3)-monotone formula: every variable in exactly three clauses of
    three distinct variables, as many clauses as variables."""
    while True:
        slots = [x for x in range(variables) for _ in range(3)]
        rng.shuffle(slots)
        clauses = [tuple(slots[i:i + 3]) for i in range(0, 3 * variables, 3)]
        if all(len(set(cl)) == 3 for cl in clauses):
            return clauses


FORMULA_N3_SATISFIABLE = [(0, 1, 2)] * 3
FORMULA_N6_UNSATISFIABLE = [(0, 1, 3), (0, 1, 4), (0, 2, 5), (1, 2, 5), (2, 3, 4), (3, 4, 5)]


# -- hardness constructions, numbered as the package documents them ------------------


def edge3col_graph(source, variant: str):
    """The three edge-colouring encodings: split graph (source clique plus
    one vertex per source edge) with three stars; the -3p2 variant joins the
    star centres in a triangle and gives each star n leaves; the -2p3
    variant replaces the stars by joined cliques A, B, C."""
    n, edges = source[0], ck.edges_of(source)
    m = len(edges)
    out = list(combinations(range(n), 2))
    out += [(u, n + j) for j, e in enumerate(edges) for u in e]
    if variant == "edge3col-2p3":
        a = range(n + m, n + 2 * m + 1)
        b = range(a.stop, a.stop + 3)
        c = range(b.stop, b.stop + n)
        for grp in (a, b, c):
            out += list(combinations(grp, 2))
        out += [(v, x) for v in range(n) for x in a] + [(x, y) for x in a for y in b]
        out += [(x, y) for x in b for y in c] + [(x, n + j) for x in c for j in range(m)]
        return ck.from_edges(c.stop, out), m + n + 4
    c0, w0 = n + m, n + m + 3
    leaves = n + 2 if variant == "edge3col" else n
    if variant == "edge3col-3p2":
        out += [(c0, c0 + 1), (c0, c0 + 2), (c0 + 1, c0 + 2)]
    out += [(c0 + r, w0 + r * leaves + k) for r in range(3) for k in range(leaves)]
    return ck.from_edges(w0 + 3 * leaves, out), n + 3


def bipartite_sized(left: int, right: int, m: int, rng: random.Random):
    """Random bipartite graph with exactly ``m`` edges and no isolated
    vertex; with equal sides it has the perfect matching i -- left+i, with
    unequal sides it has none."""
    edges = {(i, left + i) for i in range(min(left, right))}
    edges |= {(rng.randrange(left), left + j) for j in range(left, right)}
    edges |= {(i, left + rng.randrange(right)) for i in range(right, left)}
    rest = [(i, left + j) for i in range(left) for j in range(right) if (i, left + j) not in edges]
    edges |= set(rng.sample(rest, m - len(edges)))
    return ck.from_edges(left + right, sorted(edges))


def cobipartite_graph(source):
    """Complement of the union of the 10-vertex per-edge gadgets."""
    edges, nxt = [], source[0]
    for u, v in ck.edges_of(source):
        xu, xv = list(range(nxt, nxt + 4)), list(range(nxt + 4, nxt + 8))
        nxt += 8
        edges += [(u, xv[0]), (v, xu[0]), (xu[0], xv[0]), (xu[0], xv[1]), (xv[0], xu[1]),
                  (xu[1], xv[2]), (xv[1], xu[2]), (xu[2], xv[3]), (xv[2], xu[3])]
    return ck.complement(ck.from_edges(nxt, edges))


def one_in_three_complement(variables: int, clauses):
    """Complement of the clause paths c(x) a1 c(y) a2 c(z) plus the variable
    triangles on the three occurrences of each variable."""
    edges, occ = [], {x: [] for x in range(variables)}
    for j, cl in enumerate(clauses):
        edges += [(5 * j + i, 5 * j + i + 1) for i in range(4)]
        for pos, x in enumerate(cl):
            occ[x].append(5 * j + 2 * pos)
    for vs in occ.values():
        edges += list(combinations(vs, 2))
    return ck.complement(ck.from_edges(5 * variables, edges))


# -- expectations ----------------------------------------------------------------------


def _status(rep, code, want_code, want_status) -> str | None:
    if rep is None:
        return f"no report (exit {code})"
    if code != want_code or rep.get("status") != want_status:
        return f"exit {code} status {rep.get('status')!r}, expected {want_code}/{want_status!r}"
    return None


def expect_analyze(g):
    facts = ck.tight_facts(g)
    want = {"n": g[0], "edges": len(ck.edges_of(g)), "degrees": [a.bit_count() for a in g[1]],
            "m_degree": facts["m"], "dense": facts["dense"], "boundary": facts["boundary"],
            "tight": facts["tight"], "co_components": ck.co_components(g)}

    def expect(rep, code, _out):
        bad = _status(rep, code, 0, "ok")
        wrong = [k for k, v in want.items() if bad is None and rep.get(k) != v]
        return bad or (f"fields {wrong} differ" if wrong else None)
    return expect


def expect_tightb(g, want: bool, path: str | None = None):
    def expect(rep, code, _out):
        bad = _status(rep, code, 0 if want else 1, "ok" if want else "no")
        if bad:
            return bad
        if path is not None and rep.get("path") != path:
            return f"path {rep.get('path')!r}, expected {path!r}"
        w = rep.get("witness")
        if not want:
            return None if w is None else "witness on a no answer"
        return ck.tight_b_colouring_problem(g, w["colours"], w["k"]) if w else "missing witness"
    return expect


def _fall_witnesses(g, values, witnesses) -> str | None:
    if sorted(map(int, witnesses or {})) != values:
        return "witness sizes differ from the spectrum"
    for k, w in witnesses.items():
        bad = ck.fall_colouring_problem(g, w["colours"], int(k))
        if bad:
            return f"fall witness {k}: {bad}"
    return None


def expect_fall(g, spectrum: list[int], path: str):
    def expect(rep, code, _out):
        bad = _status(rep, code, 0 if spectrum else 1, "ok" if spectrum else "no")
        if bad:
            return bad
        if rep.get("spectrum") != spectrum or rep.get("path") != path:
            return f"spectrum {rep.get('spectrum')} via {rep.get('path')}, expected {spectrum} via {path}"
        if rep.get("fall_unique") != (len(spectrum) == 1):
            return "fall_unique flag wrong"
        return _fall_witnesses(g, spectrum, rep.get("witnesses"))
    return expect


def expect_hfree(g, pattern: str, free: bool):
    def expect(rep, code, _out):
        bad = _status(rep, code, 0, "ok")
        if bad:
            return bad
        if rep.get("free") is not free:
            return f"free={rep.get('free')}, expected {free}"
        if free:
            return None if rep.get("witness") is None else "witness on a free answer"
        return ck.induced_copy_problem(g, PATTERNS[pattern], rep.get("witness"))
    return expect


REFERENCES = {
    "chromatic": lambda g, f: ck.chromatic_reference(g),
    "fall": lambda g, f: ck.fall_spectrum_reference(g),
    "mmm": lambda g, f: ck.min_maximal_matching_reference(g),
    "edge3col": lambda g, f: ck.three_edge_colourable_reference(g),
    "tightb": lambda g, f: ck.tight_b_colourable_reference(g),
    "13sat": lambda g, f: ck.one_in_three_reference(*f),
}


def expect_oracle(which: str, g=None, formula=None):
    """Oracle answers, compared with the reference search of ``check``; it
    runs when the report is checked, which is once per run."""

    def expect(rep, code, _out):
        if rep is None or code not in (0, 1):
            return f"exit {code}: {rep and rep.get('error')}"
        value, w = rep.get("value"), rep.get("witness")
        if which == "bchromatic":
            if w is None or w["k"] != value:
                return "missing witness"
            bad = ck.b_colouring_problem(g, w["colours"], value)
            if bad or ck.b_colouring_refuted_above(g, value):
                return bad
            return f"a b-colouring with more than {value} colours exists"
        want = REFERENCES[which](g, formula)
        if value != want or (which in ("edge3col", "tightb", "13sat") and value is not want):
            return f"answer {value}, expected {want}"
        if which == "fall":
            return _fall_witnesses(g, want, w)
        if which == "chromatic":
            return ck.colouring_problem(g, w["colours"], w["k"]) if w and w["k"] == want \
                else "missing witness"
        if value is True:
            if not w:
                return "missing witness"
            if which == "tightb":
                return ck.tight_b_colouring_problem(g, w["colours"], w["k"])
            if which == "edge3col":
                return ck.edge_colouring_problem(g, w)
            return ck.one_in_three_problem(formula[1], w)
        return None
    return expect


def _all_checks_pass(rep) -> str | None:
    failed = [k for k, ok in (rep.get("structural_checks") or {}).items() if not ok]
    return f"structural checks failed: {failed}" if failed else None


def expect_reduction(command: str, kind: str, instance, yes: bool | None, colours: int | None,
                     extra: Callable[[dict], str | None] | None = None):
    """``gadget`` or ``verify`` of one construction.  ``instance`` is the
    benchmark's own copy of the emitted graph; ``yes`` is the source's
    answer (None for the co-bipartite kind, which has no forward map)."""
    digest = ck.graph_digest_text(dimacs(instance))

    def expect(rep, code, _out):
        if rep is None or code != 0 or rep.get("status") != "ok":
            return f"exit {code} status {rep and rep.get('status')!r}"
        if rep.get("digest") != digest:
            return "emitted instance differs from the documented construction"
        bad = _all_checks_pass(rep)
        if bad:
            return bad
        w = rep.get("forward_witness")
        if yes is None or not yes:
            if w is not None:
                return "forward witness on a no-instance"
        elif w is None or w["k"] != colours:
            return "missing forward witness"
        else:
            problem = (ck.fall_colouring_problem if kind == "one-in-three"
                       else ck.tight_b_colouring_problem)
            bad = problem(instance, w["colours"], w["k"])
            if bad:
                return f"forward witness: {bad}"
        if command == "verify":
            want = "structural-only" if yes is None else "verified"
            if rep.get("equivalence") != want or rep.get("inconsistent"):
                return f"equivalence {rep.get('equivalence')!r}, expected {want!r}"
        return extra(rep) if extra else None
    return expect


# -- workload pools ----------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def class_solve(seed: int) -> list[Instance]:
    """Polynomial path: class recognition plus the tight and fall solvers on
    graphs with 40-200 vertices."""
    rng = _rng("class-solve", seed)
    out = []

    def add(name, g, args, expect):
        out.append(Instance(name, args, dimacs(g), ".col", expect))

    # Family sizes step evenly, so the slowest tenth of the pool (the tail)
    # lies among family commands of neighbouring cost rather than at a gap.
    # Above m = 52 (78 vertices) a single tightb takes 0.4 s and more, and a
    # run would hold too few passes for steady medians.
    for m in range(28, 53, 4):
        g = relabel(tight_2p2p1_family(m), rng)
        add(f"fam{m}-tightb", g, ["tightb", "{in}"], expect_tightb(g, False, "(2P2+P1)-free"))
        add(f"fam{m}-hfree", g, ["hfree", "{in}", "--pattern", "2P2+P1"],
            expect_hfree(g, "2P2+P1", True))
        add(f"fam{m}-analyze", g, ["analyze", "{in}"], expect_analyze(g))
    for m in (28, 44, 60):
        g = relabel(tight_2p2p1_family(m, rng), rng)
        add(f"famrnd{m}-hfree", g, ["hfree", "{in}", "--pattern", "2P2+P1"],
            expect_hfree(g, "2P2+P1", False))
        add(f"famrnd{m}-tightb", g, ["tightb", "{in}"], expect_tightb(g, False, "oracle"))
        add(f"famrnd{m}-analyze", g, ["analyze", "{in}"], expect_analyze(g))
    for m, total in ((12, 40), (20, 80), (30, 140), (40, 200)):
        base, sizes = tight_clique_union(m, total, rng)
        g = relabel(base, rng)
        two_big = sum(1 for s in sizes if s >= 2) >= 2 and len(sizes) >= 3
        add(f"cu{total}-tightb", g, ["tightb", "{in}"],
            expect_tightb(g, True, "(P3+P1)-free" if two_big else "(2P2+P1)-free"))
        add(f"cu{total}-fall", g, ["fall", "{in}"], expect_fall(g, [], "(P3+P1)-free"))
        add(f"cu{total}-hfree", g, ["hfree", "{in}", "--pattern", "P3+P1"],
            expect_hfree(g, "P3+P1", True))
        add(f"cu{total}-analyze", g, ["analyze", "{in}"], expect_analyze(g))
    for p, r in ((8, 5), (5, 24), (4, 12), (6, 8), (10, 6), (3, 20)):
        g = relabel(union(*[clique(p)] * r), rng)
        add(f"eq{p}x{r}-fall", g, ["fall", "{in}"], expect_fall(g, [p], "(P3+P1)-free"))
        add(f"eq{p}x{r}-hfree", g, ["hfree", "{in}", "--pattern", "P3+P1"],
            expect_hfree(g, "P3+P1", True))
    # (cocktail-party pairs k, clique-union vertices p, bipartite half or
    # unbalanced sides): the last kind has no fall colouring
    shapes = [(6, 10, 12, None), (8, 12, 16, None), (10, 16, 20, None), (12, 18, 24, None),
              (14, 20, 28, None), (16, 24, 32, None), (7, 9, None, (8, 10)),
              (8, 10, None, (10, 13)), (10, 12, None, (11, 14)), (12, 15, None, (15, 19))]
    for i, (k, p, half, unbalanced) in enumerate(shapes):
        h = (unbalanced_bipartite(*unbalanced, 0.15, rng) if unbalanced
             else bipartite_with_matching(half, 0.15, rng))
        pieces = [(ck.complement(union(*[path(2)] * k)), k),
                  (union(*[clique(3)] * (p // 3)), 3),
                  (ck.complement(h), None if unbalanced else half)]
        base, spectrum = p3p1_free_join(pieces)
        g = relabel(base, rng)
        add(f"join{i}-fall", g, ["fall", "{in}"], expect_fall(g, spectrum, "(P3+P1)-free"))
        add(f"join{i}-hfree", g, ["hfree", "{in}", "--pattern", "P3+P1"],
            expect_hfree(g, "P3+P1", True))
        add(f"join{i}-analyze", g, ["analyze", "{in}"], expect_analyze(g))
    for n in (40, 60, 80, 100, 120, 140):
        g = plant(random_graph(n, 0.5, rng), PATTERNS["P3+P1"], rng)
        add(f"rnd{n}-hfree-p3p1", g, ["hfree", "{in}", "--pattern", "P3+P1"],
            expect_hfree(g, "P3+P1", False))
        g = plant(random_graph(n, 0.5, rng), PATTERNS["2P2+P1"], rng)
        add(f"rnd{n}-hfree-2p2p1", g, ["hfree", "{in}", "--pattern", "2P2+P1"],
            expect_hfree(g, "2P2+P1", False))
    return out


def oracle_sweep(seed: int) -> list[Instance]:
    """Ground-truth path: every oracle on small random graphs, small cubic
    graphs and (3,3)-formulas."""
    rng = _rng("oracle-sweep", seed)
    out = []
    # (n, p, count) per oracle.  A run's throughput must not hinge on a few
    # graphs, so the sweep takes many mid-sized ones from the cells whose
    # times vary least.  Left out for run length: b-chromatic below density
    # 0.5 for n >= 11, 0.6 for n >= 12 and 0.7 for n >= 13, where single
    # graphs can take seconds, and mmm above density 0.5 for n >= 13.
    grid = [(n, p) for n in (10, 11, 12, 13, 14) for p in (0.3, 0.5, 0.7)]
    cells = {
        "chromatic": [(n, p, 6) for n, p in grid],
        "fall": [(n, p, 6) for n, p in grid],
        "bchromatic": [(10, 0.3, 5), (10, 0.5, 5), (10, 0.7, 5), (11, 0.5, 20), (11, 0.7, 10),
                       (12, 0.6, 20), (12, 0.7, 20), (13, 0.7, 6), (14, 0.7, 4)],
        # twenty of (13, 0.5) put the tail (the 21st-slowest command) inside
        # one cluster of like graphs rather than between two
        "mmm": [(10, 0.5, 5), (11, 0.5, 20), (11, 0.7, 10), (12, 0.5, 20), (12, 0.7, 10),
                (13, 0.3, 10), (13, 0.5, 20), (14, 0.3, 10), (14, 0.4, 5)],
    }
    for which, todo in cells.items():
        for i, (n, p) in enumerate((n, p) for n, p, k in todo for _ in range(k)):
            g = random_graph(n, p, rng)
            out.append(Instance(f"{which}{i}-n{n}", ["oracle", which, "{in}"], dimacs(g), ".col",
                                expect_oracle(which, g)))
    for i, n in enumerate((10, 11, 12, 13, 14) * 4):
        g = relabel(random_tight(n, rng.randint(4, 6), rng.choice((0.5, 0.7)), rng), rng)
        out.append(Instance(f"tightb{i}-n{n}", ["oracle", "tightb", "{in}"], dimacs(g), ".col",
                            expect_oracle("tightb", g)))
    cubic = [clique(4), complete_bipartite(3, 3), ladder(3), petersen(),
             ladder(4), ladder(4, mobius=True), ladder(5), ladder(5, mobius=True)]
    cubic += [random_cubic(n, rng) for n in (10, 12, 14, 16)]
    for i, g in enumerate(cubic):
        g = relabel(g, rng)
        out.append(Instance(f"edge3col{i}-n{g[0]}", ["oracle", "edge3col", "{in}"], dimacs(g),
                            ".col", expect_oracle("edge3col", g)))
    for i, v in enumerate((6, 9, 12) * 4):
        clauses = random_formula(v, rng)
        out.append(Instance(f"13sat{i}-v{v}", ["oracle", "13sat", "{in}"], cnf13(v, clauses),
                            ".cnf13", expect_oracle("13sat", formula=(v, clauses))))
    return out


def reductions(seed: int) -> list[Instance]:
    """Hardness constructions: gadget and verify on all five kinds, plus the
    tight b-colouring oracle on edge3col instances with up to 230 vertices."""
    rng = _rng("reductions", seed)
    out = []
    every = ("edge3col", "edge3col-3p2", "edge3col-2p3")
    # (source, 3-edge-colourable, kinds per command).  The 3P2 and 2P3
    # checks dominate the run time, so the larger sources run them once,
    # through verify, and a run still fits several passes.
    cubic = [("K4", clique(4), True, {"gadget": every, "verify": every}),
             ("K33", complete_bipartite(3, 3), True, {"gadget": every[:1], "verify": every}),
             ("prism", ladder(3), True, {"gadget": every[:1], "verify": every}),
             ("petersen", petersen(), False, {"verify": every}),
             ("ML4", ladder(4, mobius=True), True, {"verify": every}),
             ("CL4", ladder(4), True, {"verify": every[:1]})]
    for name, src, yes, plan in cubic:
        src = relabel(src, rng)
        for command, kinds in plan.items():
            for kind in kinds:
                inst, k = edge3col_graph(src, kind)
                out.append(Instance(f"{command}-{kind}-{name}", [command, kind, "{in}"],
                                    dimacs(src), ".col",
                                    expect_reduction(command, kind, inst, yes, k),
                                    "prefix" if command == "gadget" else "json"))
    # Exact edge counts: the instance has 8 vertices per source edge, so a
    # random count would make these commands' cost, near the median, a
    # matter of the seed.
    for i, (left, right, m) in enumerate(((3, 3, 5), (3, 3, 6), (3, 4, 6), (3, 4, 7),
                                          (4, 4, 7), (4, 4, 8))):
        src = relabel(bipartite_sized(left, right, m, rng), rng)
        inst = cobipartite_graph(src)
        mmm = ck.min_maximal_matching_reference(src)

        def measured(rep, mmm=mmm):
            got = (rep.get("measurements") or {}).get("min_maximal_matching")
            return None if got == mmm else f"min maximal matching {got}, expected {mmm}"

        for command in ("gadget", "verify"):
            out.append(Instance(f"{command}-cobipartite-{i}", [command, "cobipartite", "{in}"],
                                dimacs(src), ".col",
                                expect_reduction(command, "cobipartite", inst, None, None,
                                                 measured if command == "verify" else None),
                                "prefix" if command == "gadget" else "json"))
    formulas = [(3, FORMULA_N3_SATISFIABLE), (6, FORMULA_N6_UNSATISFIABLE)]
    formulas += [(6, random_formula(6, rng)) for _ in range(2)]
    for i, (v, clauses) in enumerate(formulas):
        yes = ck.one_in_three_reference(v, clauses)
        inst = one_in_three_complement(v, clauses)
        target = 7 * v // 3

        def spectrum(rep, want=[target] if yes else []):
            got = (rep.get("measurements") or {}).get("fall_spectrum")
            return None if got == want else f"fall spectrum {got}, expected {want}"

        for command in ("gadget", "verify"):
            out.append(Instance(f"{command}-one-in-three-{i}", [command, "one-in-three", "{in}"],
                                cnf13(v, clauses), ".cnf13",
                                expect_reduction(command, "one-in-three", inst, yes, target,
                                                 spectrum if command == "verify" else None),
                                "prefix" if command == "gadget" else "json"))
    hosts = [(f"CL{k}", ladder(k), True) for k in (5, 10, 15, 20)]
    hosts += [("ML10", ladder(10, mobius=True), True), ("petersen", petersen(), False)]
    for name, src, yes in hosts:
        g = relabel(edge3col_graph(relabel(src, rng), "edge3col")[0], rng)
        out.append(Instance(f"tightb-e3c-{name}", ["tightb", "{in}"], dimacs(g), ".col",
                            expect_tightb(g, yes, "oracle")))
    return out


CLASSIFY_TABLE = {
    # H: verdict for b, tightb, fall on H-free graphs (the dichotomies)
    "P4": ("polynomial", "polynomial", "polynomial"),
    "P3+P1": ("NP-hard", "polynomial", "polynomial"),
    "2P2+P1": ("NP-hard", "polynomial", "NP-hard"),
    "P5": ("NP-hard", "NP-complete", "NP-hard"),
    "C4": ("NP-hard", "NP-complete", "NP-hard"),
    "P4+P1": ("NP-hard", "open", "NP-hard"),
    "3P2": ("NP-hard", "NP-complete", "NP-hard"),
}
CLASSIFY_GRAPHS = {
    "P4": path(4), "P3+P1": PATTERNS["P3+P1"], "2P2+P1": PATTERNS["2P2+P1"], "P5": path(5),
    "C4": cycle(4), "P4+P1": union(path(4), empty(1)), "3P2": union(path(2), path(2), path(2)),
}


def cli_cold(seed: int) -> list[Instance]:
    """Small fixtures, each run in a fresh interpreter."""
    rng = _rng("cli-cold", seed)
    out = []

    def add(name, g, args, expect):
        out.append(Instance(name, args, dimacs(g), ".col", expect))

    for i in range(5):
        g = relabel(tight_2p2p1_family(rng.choice((8, 10, 12))), rng)
        add(f"fam{i}-analyze", g, ["analyze", "{in}"], expect_analyze(g))
        add(f"fam{i}-tightb", g, ["tightb", "{in}"], expect_tightb(g, False, "(2P2+P1)-free"))
        add(f"fam{i}-hfree", g, ["hfree", "{in}", "--pattern", "2P2+P1"],
            expect_hfree(g, "2P2+P1", True))
        base, _ = tight_clique_union(rng.randint(4, 7), rng.randint(10, 16), rng)
        g = relabel(base, rng)
        add(f"cu{i}-tightb", g, ["tightb", "{in}"], expect_tightb(g, True))
        half = rng.randint(3, 6)
        base, spectrum = p3p1_free_join([(ck.complement(bipartite_with_matching(half, 0.3, rng)),
                                          half), (union(clique(3), clique(3)), 3)])
        g = relabel(base, rng)
        add(f"join{i}-fall", g, ["fall", "{in}"], expect_fall(g, spectrum, "(P3+P1)-free"))
        g = plant(random_graph(rng.randint(10, 16), 0.5, rng), PATTERNS["P3+P1"], rng)
        add(f"rnd{i}-hfree", g, ["hfree", "{in}", "--pattern", "P3+P1"],
            expect_hfree(g, "P3+P1", False))
    for i, h in enumerate(rng.sample(sorted(CLASSIFY_TABLE), len(CLASSIFY_TABLE))):
        problem = rng.randrange(3)
        want = CLASSIFY_TABLE[h][problem]

        def verdict(rep, code, _out, want=want):
            bad = _status(rep, code, 0, "ok")
            return bad or (None if rep.get("verdict") == want
                           else f"verdict {rep.get('verdict')!r}, expected {want!r}")

        add(f"classify{i}-{h}", relabel(CLASSIFY_GRAPHS[h], rng),
            ["classify", "{in}", "--problem", ("b", "tightb", "fall")[problem]], verdict)
    k, c = rng.randint(5, 30), rng.randint(3, 12)
    shows = [("cycle", [str(k)], cycle(k)), ("crown", [str(c)], crown(c)),
             ("petersen", [], petersen())]
    for i, (family, size, g) in enumerate(shows):

        def shown(rep, code, stdout, text=dimacs(g)):
            return None if code == 0 and stdout == text else "family graph differs"

        out.append(Instance(f"show{i}-{family}", ["show", family] + size, "", "", shown, "stdout"))
    return out


WORKLOADS: dict[str, Callable[[int], list[Instance]]] = {
    "class-solve": class_solve,
    "oracle-sweep": oracle_sweep,
    "reductions": reductions,
    "cli-cold": cli_cold,
}
