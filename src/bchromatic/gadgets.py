"""Hardness-instance constructors, their witness mappings, and certificate
verification against the exact oracles.

Three families are covered:

* ``cobipartite``: replace each edge of a bipartite graph by a fixed
  10-vertex tree gadget and complement the union; the result is a
  (3P1, 2P2)-free co-bipartite graph whose b-chromatic number encodes
  minimum maximal matchings of the input.
* ``edge3col`` (with ``-3p2`` and ``-2p3`` variants): encode 3-edge-
  colourability of a cubic graph into the existence of a tight b-colouring.
  One builder: a split graph (input clique plus edge vertices) with three
  stars; the variants rewire the periphery so the output is 3P2-free,
  respectively 2P3-free, while keeping the instance tight.
* ``one-in-three``: encode 1-in-3 satisfiability of a (3,3)-monotone formula
  into the fall spectrum of the complement of a union of 5-vertex clause
  paths and variable triangles.

``REDUCTIONS`` maps each kind to its source loader and its certifier, which
``verify_reduction`` runs; the ``gadget`` and ``verify`` commands read it.
A certifier builds its read-only ``ReductionCertificate`` once, from the
structural checks and oracle answers it has computed.
Every constructor is deterministic: fresh vertices are numbered by source
element (edge or clause) first and gadget-internal position second, so
instances are byte-stable across runs.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import combinations
from typing import Any, NamedTuple

from .graphs import (Colouring, Graph, GraphError, _require_cubic, analyze_tight,
                     disjoint_union, is_fall_colouring, is_tight_b_colouring)
from .io import Formula33, load_formula, load_graph
from .oracles import (BudgetExceededError, clique_number, fall_spectrum,
                      min_maximal_matching_size, one_in_three_sat,
                      three_edge_colouring, tight_b_exact, b_chromatic_number)
from .patterns import is_free, is_split, pattern_graph


# -- named graph families ------------------------------------------------------


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                (0, 3), (1, 4), (2, 5)])


def crown_graph(n: int) -> Graph:
    """K_{n,n} minus a perfect matching (sides 0..n-1 and n..2n-1)."""
    if n < 2:
        raise GraphError("crown graph needs n >= 2")
    return Graph.from_edges(2 * n, [(i, n + j) for i in range(n) for j in range(n) if i != j])


def odd_crown_graph(n: int) -> Graph:
    """Complete bipartite graph on 2n-1 vertices minus a matching of size
    n-1 (sides of size n and n-1, each small-side vertex unmatched to one
    distinct big-side vertex).  Carries a b-colouring with n colours that is
    not a fall colouring."""
    if n < 2:
        raise GraphError("odd crown graph needs n >= 2")
    return Graph.from_edges(2 * n - 1,
                            [(i, n + j) for i in range(n) for j in range(n - 1) if i != j])


def family(name: str, n: int = 0) -> Graph:
    """Generator for the named graph families used as fixtures."""
    fixed = {"paw": lambda: pattern_graph("paw"), "petersen": petersen_graph,
             "prism": prism_graph}
    if name in fixed:
        return fixed[name]()
    if n < 2:
        raise GraphError(f"family {name!r} needs n >= 2")
    if name == "complete":
        return pattern_graph(f"K{n}")
    if name == "cycle":
        return pattern_graph(f"C{n}")
    if name == "star":
        return pattern_graph(f"K1,{n}")
    if name == "crown":
        return crown_graph(n)
    if name == "odd_crown":
        return odd_crown_graph(n)
    raise GraphError(f"unknown family {name!r}")


# -- co-bipartite hardness instance ---------------------------------------------


class CobipartiteInstance(NamedTuple):
    bipartite_union: Graph  # the union H of the per-edge gadgets
    graph: Graph            # complement of H: the actual hardness instance


def cobipartite_hardness_instance(g: Graph) -> CobipartiteInstance:
    """Replace every edge uv of a bipartite graph by the 10-vertex gadget
    (original endpoints shared, eight fresh internal vertices per edge) and
    return the complement of the union."""
    if not g.is_bipartite():
        raise GraphError("co-bipartite construction needs a bipartite input")
    edges = []
    nxt = g.n
    for u, v in g.edges():
        xu = [nxt + i for i in range(4)]       # x_uv^1..4
        xv = [nxt + 4 + i for i in range(4)]   # x_vu^1..4
        nxt += 8
        edges += [(u, xv[0]), (v, xu[0]),
                  (xu[0], xv[0]), (xu[0], xv[1]), (xv[0], xu[1]),
                  (xu[1], xv[2]), (xv[1], xu[2]),
                  (xu[2], xv[3]), (xv[2], xu[3])]
    h = Graph.from_edges(nxt, edges)
    return CobipartiteInstance(h, h.complement())


# -- edge-colouring hardness instances -------------------------------------------


EDGE3COL_VARIANTS = ("edge3col", "edge3col-3p2", "edge3col-2p3")


class EdgeColouringInstance(NamedTuple):
    variant: str  # one of EDGE3COL_VARIANTS
    source: Graph
    graph: Graph
    edge_list: tuple[tuple[int, int], ...]
    edge_vertex_of: tuple[int, ...]  # instance index of source edge j
    groups: dict[str, tuple[int, ...]]
    # forward colour of every vertex; 0 on the edge vertices, whose colour
    # is that of their source edge
    fixed_colours: tuple[int, ...]

    @property
    def advertised_colours(self) -> int:
        n, m = self.source.n, len(self.edge_list)
        return m + n + 4 if self.variant == "edge3col-2p3" else n + 3


def edge3col_instance(g: Graph, variant: str = "edge3col") -> EdgeColouringInstance:
    """Encode 3-edge-colourability of a cubic graph into the existence of a
    tight b-colouring.

    The core is a split graph: a clique on the n source vertices (forward
    colours 4..n+3) plus one vertex per source edge, adjacent to its two
    ends (the edge's colour).  The periphery depends on ``variant``:

    * ``edge3col``: three stars, centres coloured 1, 2, 3, each with n+2
      leaves taking the other colours; tight with m-degree n+3.
    * ``edge3col-3p2``: the centres form a triangle and each star keeps n
      leaves coloured 4..n+3; 3P2-free, tight with m-degree n+3.
    * ``edge3col-2p3``: three cliques A (m+1 vertices, colours n+4..),
      B (1, 2, 3) and C (4..n+3), with complete joins V-A, A-B, B-C and C-E;
      2P3-free, tight with m-degree m+n+4.
    """
    if variant not in EDGE3COL_VARIANTS:
        raise GraphError(f"unknown edge3col variant {variant!r}")
    _require_cubic(g)
    n, edges = g.n, tuple(g.edges())
    m = len(edges)
    out = list(combinations(range(n), 2))
    out += [(u, n + j) for j, (a, b) in enumerate(edges) for u in (a, b)]
    colour = list(range(4, n + 4)) + [0] * m
    groups: dict[str, tuple[int, ...]] = {}

    def add(name: str, colours) -> tuple[int, ...]:
        """Append a periphery group with these forward colours."""
        groups[name] = tuple(range(len(colour), len(colour) + len(colours)))
        colour.extend(colours)
        return groups[name]

    if variant == "edge3col-2p3":
        a = add("a", range(n + 4, m + n + 5))
        b = add("b", (1, 2, 3))
        c = add("c", range(4, n + 4))
        for grp in (a, b, c):
            out += combinations(grp, 2)
        out += [(v, x) for v in range(n) for x in a]
        out += [(x, y) for x in a for y in b]
        out += [(x, y) for x in b for y in c]
        out += [(x, n + j) for x in c for j in range(m)]
    else:
        centres = add("centres", (1, 2, 3))
        if variant == "edge3col-3p2":
            out += combinations(centres, 2)
        for r, centre in enumerate(centres):
            if variant == "edge3col":
                rest = [x for x in range(1, n + 4) if x != r + 1]
            else:
                rest = range(4, n + 4)
            out += [(centre, w) for w in add(f"leaves{r}", rest)]
    graph = Graph.from_edges(len(colour), out)
    return EdgeColouringInstance(variant, g, graph, edges, tuple(range(n, n + m)), groups,
                                 tuple(colour))


def edge_colouring_to_tight_bcolouring(inst: EdgeColouringInstance,
                                       ec: dict[tuple[int, int], int]) -> Colouring:
    """Map a proper 3-edge-colouring of the source through the construction,
    producing a tight b-colouring with the advertised number of colours."""
    if set(ec) != set(inst.edge_list):
        raise GraphError("edge colouring must cover exactly the source edges")
    if any(c not in (1, 2, 3) for c in ec.values()):
        raise GraphError("edge colours must lie in {1,2,3}")
    at: dict[int, set[int]] = {v: set() for v in range(inst.source.n)}
    for (u, v), c in ec.items():
        if c in at[u] or c in at[v]:
            raise GraphError("edge colouring is not proper")
        at[u].add(c)
        at[v].add(c)
    colour = list(inst.fixed_colours)
    for x, e in zip(inst.edge_vertex_of, inst.edge_list):
        colour[x] = ec[e]
    return Colouring.from_values(colour)


# -- 1-in-3 satisfiability instance ------------------------------------------------


class OneInThreeInstance(NamedTuple):
    formula: Formula33
    g: Graph
    gbar: Graph
    # clause j occupies vertices 5j..5j+4 = [c(x), a1, c(y), a2, c(z)]

    def c_vertex(self, clause: int, position: int) -> int:
        return 5 * clause + 2 * position

    def a_vertex(self, clause: int, which: int) -> int:
        return 5 * clause + 2 * which - 1  # which in {1, 2}

    @property
    def target(self) -> int:
        return 7 * self.formula.variables // 3


def one_in_three_graph(f: Formula33) -> OneInThreeInstance:
    """Clause gadgets are 5-vertex paths c(x) a1 c(y) a2 c(z); variable
    gadgets are triangles on the three occurrences of each variable."""
    n = f.variables
    edges = []
    occ: dict[int, list[int]] = {x: [] for x in range(n)}
    for j, cl in enumerate(f.clauses):
        base = 5 * j
        edges += [(base, base + 1), (base + 1, base + 2),
                  (base + 2, base + 3), (base + 3, base + 4)]
        for pos, x in enumerate(cl):
            occ[x].append(base + 2 * pos)
    for x, vs in occ.items():
        edges += [(vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2])]
    g = Graph.from_edges(5 * n, edges)
    return OneInThreeInstance(f, g, g.complement())


def assignment_to_fall_colouring(inst: OneInThreeInstance,
                                 assignment: tuple[bool, ...]) -> Colouring:
    """Turn a 1-in-3 satisfying assignment into a fall colouring of the
    complement with 7n/3 colours, via the clique cover of the clause graph:
    triangles of true variables, and per clause each a-vertex paired with an
    adjacent false-literal c-vertex (a1 takes the one nearest the path
    start, a2 the remaining one; the choice is forced)."""
    f = inst.formula
    if len(assignment) != f.variables:
        raise GraphError("assignment length mismatch")
    for cl in f.clauses:
        if sum(1 for x in cl if assignment[x]) != 1:
            raise GraphError("assignment is not 1-in-3 satisfying")

    cliques: list[int] = []  # the colour classes, as vertex masks
    for x in range(f.variables):
        if assignment[x]:
            cliques.append(sum(1 << inst.c_vertex(j, pos) for j, cl in enumerate(f.clauses)
                               for pos, y in enumerate(cl) if y == x))
    for j, cl in enumerate(f.clauses):
        t = next(pos for pos, x in enumerate(cl) if assignment[x])
        pairs = {0: ((1, 1), (2, 2)), 1: ((1, 0), (2, 2)), 2: ((1, 0), (2, 1))}[t]
        for which, cpos in pairs:
            cliques.append(1 << inst.a_vertex(j, which) | 1 << inst.c_vertex(j, cpos))

    result = Colouring.from_class_masks(inst.g.n, cliques)
    if not is_fall_colouring(inst.gbar, result):
        raise AssertionError("forced pairing failed fall validation")
    return result


# -- disjoint-union tricks for fall hardness -----------------------------------------

# 10-vertex triangle-free graph with fall spectrum exactly {3}, found by
# randomised search and certified by the fall oracle (see the gadget tests).
TRIANGLE_FREE_FALL_GADGET = Graph.from_edges(10, [
    (0, 1), (0, 9), (1, 3), (1, 6), (2, 6), (2, 7), (2, 9),
    (3, 5), (3, 7), (4, 7), (4, 8), (5, 6), (6, 8),
])


def fall_gadget_union(g: Graph, kind: str) -> Graph:
    """Disjoint union with a spectrum-{3} gadget.

    The union has a fall 3-colouring iff both parts do, so fall-3-
    colourability of ``g`` becomes fall-uniqueness of the union.  Kind
    ``c3free`` keeps the union triangle-free (requires triangle-free input);
    kind ``line`` uses K3 (the line graph of the claw) to stay inside line
    graphs.
    """
    if kind == "c3free":
        if not is_free(g, "C3"):
            raise GraphError("triangle-free union trick needs a triangle-free input")
        return disjoint_union(g, TRIANGLE_FREE_FALL_GADGET)
    if kind == "line":
        return disjoint_union(g, pattern_graph("C3"))
    raise GraphError(f"unknown union kind {kind!r}")


# -- reduction certificates -----------------------------------------------------------


class ReductionCertificate(NamedTuple):
    """What ``verify_reduction`` found, built once from the checks and
    oracle answers it computed.  ``equivalence_status`` is
    "structural-only", "verified" or "inconclusive"; with no backward answer
    to compare it is "structural-only" and the certificate is consistent."""

    instance: Graph
    structural_checks: list[tuple[str, bool]]
    forward_witness: Colouring | None
    forward_note: str
    backward_note: str
    measurements: dict[str, Any]
    equivalence_status: str = "structural-only"
    inconsistent: bool = False

    def structurally_sound(self) -> bool:
        return all(ok for _, ok in self.structural_checks)


def _edge3col_structural(inst: EdgeColouringInstance) -> list[tuple[str, bool]]:
    info = analyze_tight(inst.graph)
    n, m = inst.source.n, len(inst.edge_list)
    checks = [("tight", info.is_tight)]
    if inst.variant == "edge3col":
        split_part = inst.graph.subgraph(list(range(n + m)))
        checks += [("m-degree == n+3", info.m == n + 3),
                   ("clique-plus-edge part is split", is_split(split_part))]
    elif inst.variant == "edge3col-3p2":
        checks += [("m-degree == n+3", info.m == n + 3),
                   ("3P2-free", is_free(inst.graph, "3P2"))]
    else:
        degs = inst.graph.degrees()
        table = all(d == m + n + 3 for d in degs[:n])
        table &= all(degs[x] == m + n + 3 for x in inst.groups["a"])
        table &= all(degs[x] == m + n + 3 for x in inst.groups["b"])
        table &= all(degs[x] == m + n + 2 for x in inst.groups["c"])
        table &= all(degs[x] == n + 2 for x in inst.edge_vertex_of)
        checks += [("m-degree == m+n+4", info.m == m + n + 4),
                   ("degree table", table),
                   ("2P3-free", is_free(inst.graph, "2P3"))]
    return checks


def _forward(checks: list[tuple[str, bool]], solve, to_witness, valid, yes_note: str,
             no_note: str) -> tuple[bool | None, Colouring | None, str]:
    """Solve the source, map a solution through the construction and append
    "forward witness validates" to ``checks``.  Returns whether the source
    is a yes-instance, the forward witness and the forward note; None for
    the first when the source's oracle is over budget: the instance is then
    still emitted, with the forward step skipped."""
    try:
        solution = solve()
    except BudgetExceededError as exc:
        return None, None, f"forward step skipped, answer unknown: {exc}"
    if solution is None:
        return False, None, no_note
    witness = to_witness(solution)
    checks.append(("forward witness validates", valid(witness)))
    return True, witness, yes_note.format(witness.k)


def _settle(consistent: bool | None) -> tuple[str, bool]:
    """The equivalence status and the inconsistency flag of a backward
    answer that agrees with the forward one or not; None when either is
    unknown."""
    if consistent is None:
        return "inconclusive", False
    return "verified" if consistent else "structural-only", not consistent


def _certify_cobipartite(kind: str, source: Graph, budget: int | None,
                         node_budget: int | None, backward: bool) -> ReductionCertificate:
    inst = cobipartite_hardness_instance(source)
    checks = [("gadget union is bipartite", inst.bipartite_union.is_bipartite()),
              ("gadget union is C4-free", is_free(inst.bipartite_union, "C4")),
              ("instance is 3P1-free", is_free(inst.graph, "3P1")),
              ("instance is 2P2-free", is_free(inst.graph, "2P2"))]
    measurements: dict[str, Any] = {}
    if backward:
        # no asserted formula relates these two numbers; they are recorded only
        with suppress(BudgetExceededError):
            measurements["min_maximal_matching"] = min_maximal_matching_size(source, budget=budget)
        with suppress(BudgetExceededError):
            measurements["b_chromatic_number"] = b_chromatic_number(inst.graph, budget=budget)[0]
    return ReductionCertificate(inst.graph, checks, None, "", "", measurements)


def _certify_edge3col(kind: str, source: Graph, budget: int | None,
                      node_budget: int | None, backward: bool) -> ReductionCertificate:
    inst = edge3col_instance(source, kind)
    checks = _edge3col_structural(inst)
    forward_yes, witness, note = _forward(
        checks, lambda: three_edge_colouring(source, budget=budget),
        lambda ec: edge_colouring_to_tight_bcolouring(inst, ec),
        lambda w: is_tight_b_colouring(inst.graph, w) and w.k == inst.advertised_colours,
        "3-edge-colouring mapped to {} colours", "source has no 3-edge-colouring")
    if not backward:
        return ReductionCertificate(inst.graph, checks, witness, note, "", {})
    res = tight_b_exact(inst.graph, node_budget=node_budget)
    return ReductionCertificate(
        inst.graph, checks, witness, note, f"tight b-colouring search: {res.status}",
        {"backward_nodes": res.nodes},
        *_settle(None if forward_yes is None or res.status == "inconclusive"
                 else (res.status == "found") == forward_yes))


def _certify_one_in_three(kind: str, source: Formula33, budget: int | None,
                          node_budget: int | None, backward: bool) -> ReductionCertificate:
    inst = one_in_three_graph(source)
    checks = [("|V| == 5n", inst.g.n == 5 * source.variables),
              ("clique number 3", clique_number(inst.g) == 3)]
    checks += [(f"complement is {name}-free", is_free(inst.gbar, name))
               for name in ("C5", "2P2", "P2+2P1", "4P1")]
    forward_yes, witness, note = _forward(
        checks, lambda: one_in_three_sat(source, budget=budget),
        lambda assignment: assignment_to_fall_colouring(inst, assignment),
        lambda w: w.k == inst.target and is_fall_colouring(inst.gbar, w),
        "1-in-3 assignment mapped to {} fall colours", "formula is not 1-in-3 satisfiable")
    if not backward:
        return ReductionCertificate(inst.gbar, checks, witness, note, "", {})
    try:
        spectrum = fall_spectrum(inst.gbar, budget=budget)
    except BudgetExceededError as exc:
        return ReductionCertificate(inst.gbar, checks, witness, note,
                                    f"backward step skipped, answer unknown: {exc}", {},
                                    *_settle(None))
    return ReductionCertificate(
        inst.gbar, checks, witness, note, "", {"fall_spectrum": list(spectrum.values)},
        *_settle(None if forward_yes is None
                 else spectrum.values == ((inst.target,) if forward_yes else ())))


# Reduction kind -> (source loader, certifier).  The loaders look their
# function up when called, so a wrapper put on the module attribute later
# (bench/spans.py traces that way) still sees the call.
REDUCTIONS = {
    "cobipartite": (lambda path: load_graph(path), _certify_cobipartite),
    **{v: (lambda path: load_graph(path), _certify_edge3col) for v in EDGE3COL_VARIANTS},
    "one-in-three": (lambda path: load_formula(path), _certify_one_in_three),
}


def verify_reduction(kind: str, source, *, budget: int | None = None,
                     node_budget: int | None = None,
                     backward: bool = True) -> ReductionCertificate:
    """Build the named reduction instance, run its structural checks, map an
    oracle solution of the source forward through the construction, and
    with ``backward`` solve the instance for consistency.  ``budget`` is the
    vertex limit of every oracle run and ``node_budget`` that of the tight
    b-colouring search; None leaves each oracle its own.

    A validated forward witness combined with a backward refutation marks
    the certificate inconsistent: that combination would falsify the
    construction and must fail loudly in the test suite.
    """
    if kind not in REDUCTIONS:
        raise GraphError(f"unknown reduction kind {kind!r}")
    return REDUCTIONS[kind][1](kind, source, budget, node_budget, backward)


# frozen (3,3)-monotone formulas: a 1-in-3 satisfiable one on 3 variables and
# a non-satisfiable one on 6 variables (found by exhaustive search, pinned by
# the oracle in the test suite)
FORMULA_N3_SATISFIABLE = Formula33(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
FORMULA_N6_UNSATISFIABLE = Formula33(6, ((0, 1, 3), (0, 1, 4), (0, 2, 5),
                                         (1, 2, 5), (2, 3, 4), (3, 4, 5)))
