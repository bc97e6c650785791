"""Command-line behaviour: reports, exit codes, file round trips."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic.cli import build_parser, main
from bchromatic.fall import FallUniqueness
from bchromatic.gadgets import REDUCTIONS, petersen_graph
from bchromatic.graphs import (Colouring, FallSpectrum, Graph, is_fall_colouring,
                               is_tight_b_colouring, proper_violation)
from bchromatic.io import graph_digest, parse_dimacs, write_dimacs
from bchromatic.oracles import Formula33, TightSearch
from bchromatic.patterns import pattern_graph
from bchromatic.tight import TightSolve

from helpers import (circular_ladder, cyclic_formula, footnote_graph, k4_free_complement,
                     write_formula)


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, g in [("c3", pattern_graph("C3")), ("c4", pattern_graph("C4")),
                    ("k5", pattern_graph("K5")), ("paw", pattern_graph("paw")),
                    ("p4", pattern_graph("P4")), ("p5", pattern_graph("P5")),
                    ("2p2", pattern_graph("2P2")), ("p5p1", pattern_graph("P5+P1")),
                    ("foot", footnote_graph()), ("k4", pattern_graph("K4")),
                    ("petersen", petersen_graph())]:
        path = tmp_path / f"{name}.col"
        path.write_text(write_dimacs(g))
        out[name] = str(path)
    formula = tmp_path / "f3.cnf13"
    formula.write_text(write_formula(Formula33(3, ((0, 1, 2),) * 3)))
    out["f3"] = str(formula)
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 1\ne 1 x\n")
    out["bad"] = str(bad)
    out["dir"] = tmp_path
    return out


def run(capsys, *argv):
    code = main(list(argv))
    text = capsys.readouterr().out
    return code, json.loads(text)


def test_analyze(files, capsys):
    code, rep = run(capsys, "analyze", files["c3"])
    assert code == 0 and rep["schema"] == 1
    assert rep["m_degree"] == 3 and rep["tight"]
    code, rep = run(capsys, "analyze", files["c4"])
    assert rep["m_degree"] == 3 and not rep["tight"]


def test_tightb_exit_codes(files, capsys):
    code, rep = run(capsys, "tightb", files["foot"])
    assert code == 1 and rep["status"] == "no" and rep["path"] == "(2P2+P1)-free"
    code, rep = run(capsys, "tightb", files["k5"])
    assert code == 0 and rep["status"] == "ok" and rep["witness"]["k"] == 5
    code, rep = run(capsys, "tightb", files["c4"])
    assert code == 3 and rep["status"] == "error"


def test_tightb_witness_revalidates(files, capsys):
    code, rep = run(capsys, "tightb", files["p5"])
    assert code == 0
    g = parse_dimacs(write_dimacs(pattern_graph("P5")))
    col = Colouring.from_values(rep["witness"]["colours"])
    assert is_tight_b_colouring(g, col)


def test_tightb_polynomial_path_agrees_with_oracle(files, capsys):
    for name in ("foot", "k5", "p5"):
        code1, rep1 = run(capsys, "tightb", files[name])
        code2, rep2 = run(capsys, "oracle", "tightb", files[name])
        assert rep1["path"] == "(2P2+P1)-free"
        assert code1 == code2
        assert rep1["status"] == rep2["status"]


def test_fall_command(files, capsys):
    from bchromatic.graphs import is_fall_colouring
    code, rep = run(capsys, "fall", files["paw"])
    assert code == 1 and rep["spectrum"] == [] and rep["status"] == "no"
    code, rep = run(capsys, "fall", files["c3"])
    assert code == 0 and rep["spectrum"] == [3] and rep["fall_unique"]
    witness = Colouring.from_values(rep["witnesses"]["3"]["colours"])
    assert is_fall_colouring(pattern_graph("C3"), witness)
    code, rep = run(capsys, "fall", files["c4"])
    assert rep["spectrum"] == [2] and rep["fall_chromatic"] == 2


def test_fall_on_a_cograph_past_the_oracle_limit(files, capsys):
    """Five disjoint claws: 20 vertices, P4-free, with an induced P3+P1.
    The split answers without the oracle, whose limit is 14 vertices."""
    claws = Graph.from_edges(20, [(4 * i, 4 * i + j) for i in range(5) for j in (1, 2, 3)])
    path = files["dir"] / "claws.col"
    path.write_text(write_dimacs(claws))
    code, rep = run(capsys, "fall", str(path))
    assert code == 0 and rep["path"] == "modular" and rep["spectrum"] == [2]
    witness = Colouring.from_values(rep["witnesses"]["2"]["colours"])
    assert is_fall_colouring(claws, witness)


def test_analyze_empty_graph(files, capsys):
    path = files["dir"] / "empty.col"
    path.write_text("p edge 0 0\n")
    code, rep = run(capsys, "analyze", str(path))
    assert code == 0 and rep["m_degree"] == 0 and not rep["tight"]


def test_tightb_random_class_member_matches_oracle(files, capsys):
    import random
    from helpers import sample_tight_in_class
    rng = random.Random(99)
    g = sample_tight_in_class(rng, 1, "2P2+P1", (9, 9))[0]
    path = files["dir"] / "rand9.col"
    path.write_text(write_dimacs(g))
    code1, rep1 = run(capsys, "tightb", str(path))
    code2, rep2 = run(capsys, "oracle", "tightb", str(path))
    assert rep1["path"] != "oracle" and rep2["nodes_explored"] is not None
    assert code1 == code2 and rep1["status"] == rep2["status"]


def test_classify_command(files, capsys):
    code, rep = run(capsys, "classify", files["2p2"], "--problem", "tightb")
    assert code == 0 and rep["verdict"] == "polynomial"
    code, rep = run(capsys, "classify", files["2p2"], "--problem", "b")
    assert rep["verdict"] == "NP-hard"
    code, rep = run(capsys, "classify", files["2p2"], "--problem", "fall")
    assert rep["verdict"] == "NP-hard"


def test_hfree_command(files, capsys):
    code, rep = run(capsys, "hfree", files["c4"], "--pattern", "2P2")
    assert code == 0 and rep["free"]
    code, rep = run(capsys, "hfree", files["p5"], "--pattern", "2P2")
    assert not rep["free"] and rep["witness"] == [0, 1, 3, 4]


def test_hfree_rejects_an_empty_pattern(files, capsys):
    code, rep = run(capsys, "hfree", files["c4"], "--pattern", "P0")
    assert code == 3 and rep == {"schema": 1, "status": "error",
                                 "error": "pattern 'P0' has no vertices"}


def test_oracle_commands(files, capsys):
    code, rep = run(capsys, "oracle", "chromatic", files["k5"])
    assert code == 0 and rep["value"] == 5
    code, rep = run(capsys, "oracle", "bchromatic", files["c4"])
    assert code == 0 and rep["value"] == 2
    code, rep = run(capsys, "oracle", "fall", files["paw"])
    assert code == 1 and rep["value"] == []
    code, rep = run(capsys, "oracle", "13sat", files["f3"])
    assert code == 0 and sum(rep["witness"]) == 1
    code, rep = run(capsys, "oracle", "edge3col", files["petersen"])
    assert code == 1 and rep["value"] is False
    code, rep = run(capsys, "oracle", "mmm", files["p4"])
    assert rep["value"] == 1
    code, rep = run(capsys, "oracle", "tightb", files["foot"])
    assert code == 1 and rep["nodes_explored"] is not None


def test_gadget_emit_and_reparse(files, capsys):
    prefix = str(files["dir"] / "out")
    code, rep = run(capsys, "gadget", "edge3col-2p3", files["k4"], "--out", prefix)
    assert code == 0
    emitted = parse_dimacs((files["dir"] / "out.col").read_text())
    assert graph_digest(emitted) == rep["digest"]
    cert = json.loads((files["dir"] / "out.json").read_text())
    assert cert["structural_checks"]["2P3-free"]


def test_verify_command(files, capsys):
    code, rep = run(capsys, "verify", "edge3col", files["k4"])
    assert code == 0 and rep["equivalence"] == "verified" and not rep["inconsistent"]
    code, rep = run(capsys, "verify", "one-in-three", files["f3"])
    assert code == 0 and rep["measurements"]["fall_spectrum"] == [7]


@pytest.mark.parametrize("kind", list(REDUCTIONS))
def test_gadget_and_verify_share_one_path(files, capsys, kind):
    source = {"cobipartite": files["c4"], "one-in-three": files["f3"]}.get(kind, files["k4"])
    prefix = files["dir"] / kind
    code, gadget = run(capsys, "gadget", kind, source, "--out", str(prefix))
    assert code == 0 and gadget["status"] == "ok"
    code, verify = run(capsys, "verify", kind, source)
    assert code == 0 and verify["status"] == "ok"
    assert gadget["digest"] == verify["digest"]
    assert gadget["structural_checks"] == verify["structural_checks"]
    assert (gadget["forward"], gadget["forward_witness"]) == \
        (verify["forward"], verify["forward_witness"])
    emitted = parse_dimacs(prefix.with_suffix(".col").read_text())
    assert graph_digest(emitted) == gadget["digest"]
    subcommands = build_parser()._subparsers._group_actions[0].choices
    for command in ("gadget", "verify"):
        kinds = next(a.choices for a in subcommands[command]._actions if a.dest == "kind")
        assert tuple(kinds) == tuple(REDUCTIONS)


def test_reduction_over_the_forward_oracle_limit(files, capsys):
    """The circular ladder CL9 has 18 vertices, past the 3-edge-colouring
    oracle: the instance is still emitted, and verify is inconclusive."""
    rungs = 9
    cl9 = Graph.from_edges(2 * rungs, [e for i in range(rungs) for e in (
        (i, (i + 1) % rungs), (rungs + i, rungs + (i + 1) % rungs), (i, rungs + i))])
    src = files["dir"] / "cl9.col"
    src.write_text(write_dimacs(cl9))
    prefix = files["dir"] / "cl9-gadget"
    code, rep = run(capsys, "gadget", "edge3col", str(src), "--out", str(prefix))
    assert code == 0 and rep["status"] == "ok" and rep["forward_witness"] is None
    assert "n<=16" in rep["forward"]
    assert graph_digest(parse_dimacs(prefix.with_suffix(".col").read_text())) == rep["digest"]
    code, rep = run(capsys, "verify", "edge3col", str(src), "--budget", "1000")
    assert code == 2 and rep["status"] == "inconclusive"
    assert rep["equivalence"] == "inconclusive" and not rep["inconsistent"]
    assert rep["forward_witness"] is None and "n<=16" in rep["forward"]
    assert all(rep["structural_checks"].values())


@pytest.mark.parametrize("command", ["gadget", "verify"])
def test_reduction_under_oracle_budget(files, capsys, monkeypatch, command):
    """``ORACLE_BUDGET`` reaches the forward oracle of gadget and verify: at
    20 it admits CL9's 18 vertices, as it does for ``oracle edge3col``."""
    src = files["dir"] / "cl9.col"
    src.write_text(write_dimacs(circular_ladder(9)))
    monkeypatch.setenv("ORACLE_BUDGET", "20")
    if command == "gadget":
        argv = ["--out", str(files["dir"] / "cl9-gadget")]
    else:
        argv = ["--budget", "1000"]
    code, rep = run(capsys, command, "edge3col", str(src), *argv)
    assert code == 0 and rep["status"] == "ok"
    assert rep["forward_witness"]["k"] == 21
    if command == "verify":
        assert rep["equivalence"] == "verified" and not rep["inconsistent"]


def test_error_exit_code(files, capsys):
    code, rep = run(capsys, "analyze", str(files["dir"] / "missing.col"))
    assert code == 3 and rep["status"] == "error"
    bad = files["dir"] / "bad-number.col"
    bad.write_text("p edge 3 1\ne 1 x\n")
    code, rep = run(capsys, "analyze", str(bad))
    assert code == 3 and rep["error"] == "line 2: malformed number 'x'"


@pytest.mark.parametrize("witness", [(0, 1), (0, 1, 0), (0, 1, 7), (-1, 0, 1)],
                         ids=["short", "repeated", "past-n", "negative"])
def test_induced_embedding_check_rejects(witness):
    from bchromatic.cli import _is_induced_embedding
    p4, p3 = pattern_graph("P4"), pattern_graph("P3")
    assert _is_induced_embedding(p4, p3, (0, 1, 2))
    assert not _is_induced_embedding(p4, p3, witness)


def test_package_names_resolve_on_first_access():
    import bchromatic
    from bchromatic import Matching, maximum_matching
    assert maximum_matching(pattern_graph("P4")) == Matching({(0, 1), (2, 3)})
    for name in bchromatic.__all__:
        assert getattr(bchromatic, name) is not None, name
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        bchromatic.nosuch
    # the exceptions the oracles raise are still importable from oracles
    from bchromatic import graphs, io, oracles
    assert (oracles.NotCubicError, oracles.NotTightError, oracles.FormulaError) == (
        graphs.NotCubicError, graphs.NotTightError, io.FormulaError)


@pytest.mark.parametrize("argv, error", [
    (["tightb", "{c3}", "--bogus"], "bchromatic: unrecognized arguments: --bogus"),
    (["nosuch", "{c3}"], "bchromatic: argument cmd: invalid choice: 'nosuch'"),
    (["tightb", "{c3}", "--budget", "abc"], "bchromatic tightb: argument --budget: invalid int"),
    ([], "bchromatic: the following arguments are required: cmd"),
    (["oracle", "tightb", "{c3}", "--budget", "-3"], "--budget must be a whole number >= 0, got -3"),
    (["tightb", "{c3}", "--budget", "-1"], "--budget must be a whole number >= 0, got -1"),
    (["verify", "edge3col", "{c3}", "--budget", "-2"], "--budget must be a whole number >= 0, got -2"),
    (["verify", "nosuch", "{c3}"], "bchromatic verify: argument kind: invalid choice: 'nosuch'"),
    (["gadget", "nosuch", "{c3}"], "bchromatic gadget: argument kind: invalid choice: 'nosuch'"),
    (["classify", "{c3}", "--problem", "zzz"],
     "bchromatic classify: argument --problem: invalid choice: 'zzz'"),
])
def test_usage_errors_are_one_json_error(files, capsys, argv, error):
    code = main([a.replace("{c3}", files["c3"]) for a in argv])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 3 and rep["status"] == "error" and rep["error"].startswith(error)
    assert err == ""


def test_help_and_version_exit_zero(capsys):
    for argv in (["--version"], ["tightb", "--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out


def test_unwritable_out_reports_on_stdout(files, capsys):
    out = files["dir"] / "missing" / "report.json"
    code, rep = run(capsys, "analyze", files["c3"], "--out", str(out))
    assert code == 3 and rep["status"] == "error" and str(out) in rep["error"]


def test_oracle_budget_env(files, capsys, monkeypatch):
    big = Graph.empty(20)
    path = files["dir"] / "big.col"
    path.write_text(write_dimacs(big))
    code, rep = run(capsys, "oracle", "chromatic", str(path))
    assert code == 3 and rep["error"] == "chromatic oracle limited to n<=16, got n=20"
    monkeypatch.setenv("ORACLE_BUDGET", "25")
    code, rep = run(capsys, "oracle", "chromatic", str(path))
    assert code == 0 and rep["value"] == 1
    for value in ("abc", "-1", "2.5"):
        monkeypatch.setenv("ORACLE_BUDGET", value)
        for argv in (["oracle", "chromatic", str(path)], ["fall", files["c3"]]):
            code, rep = run(capsys, *argv)
            assert code == 3 and rep == {
                "schema": 1, "status": "error",
                "error": f"ORACLE_BUDGET must be a whole number >= 0, got {value!r}"}


def test_oracle_chromatic_past_the_default_limit(files, capsys):
    """A 20-vertex graph of independence number 3 is admitted past the
    16-vertex limit; its chi is ceil(20/3), which the witness meets."""
    g = k4_free_complement(random.Random(0), 20)
    path = files["dir"] / "a20.col"
    path.write_text(write_dimacs(g))
    code, rep = run(capsys, "oracle", "chromatic", str(path))
    assert code == 0 and rep["status"] == "ok" and rep["value"] == 7
    w = Colouring(tuple(rep["witness"]["colours"]), rep["witness"]["k"])
    assert w.k == 7 and proper_violation(g, w) is None


@pytest.mark.parametrize("which", ["chromatic", "fall"])
def test_oracle_budget_env_below_the_raised_limit(files, capsys, monkeypatch, which):
    """An explicit ``ORACLE_BUDGET`` is the limit, also for a graph of
    independence number 3 that the oracle's own limit admits."""
    g = Graph.from_edges(18, [(u, v) for u in range(18) for v in range(u + 1, 18)
                              if u // 3 != v // 3])
    path = files["dir"] / "k6x3.col"
    path.write_text(write_dimacs(g))
    code, rep = run(capsys, "oracle", which, str(path))
    assert code == 0 and rep["value"] == (6 if which == "chromatic" else [6])
    monkeypatch.setenv("ORACLE_BUDGET", "10")
    code, rep = run(capsys, "oracle", which, str(path))
    assert code == 3 and rep["status"] == "error"
    assert f"{which} oracle limited to n<=10, got n=18" in rep["error"]


@pytest.mark.parametrize("argv", [["show", "cycle", "50"], ["analyze", "{c3}"]])
def test_broken_pipe_writes_nothing_more(files, monkeypatch, argv):
    import sys

    class ClosedPipe:
        def __init__(self):
            self.writes = 0

        def write(self, text):
            self.writes += 1
            raise BrokenPipeError(32, "Broken pipe")

    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main([a.replace("{c3}", files["c3"]) for a in argv])
    replaced = sys.stdout
    replaced.close()
    assert code == 3 and pipe.writes == 1 and replaced is not pipe


@pytest.mark.parametrize("name, g, command, calls, path", [
    ("foot", footnote_graph(), "tightb", 1, "(2P2+P1)-free"),
    # tight clique union with an induced 2P2+P1 across three of its K2s
    ("k4-3k2", pattern_graph("K4+3P2"), "tightb", 1, "(P3+P1)-free"),
    ("paw", pattern_graph("paw"), "fall", 0, "(P3+P1)-free"),
])
def test_class_recognised_once(files, capsys, monkeypatch, name, g, command, calls, path):
    import bchromatic.patterns
    counted = []
    search = bchromatic.patterns.contains_induced

    def counting(*args):
        counted.append(args)
        return search(*args)

    monkeypatch.setattr(bchromatic.patterns, "contains_induced", counting)
    src = files["dir"] / f"{name}.col"
    src.write_text(write_dimacs(g))
    code, rep = run(capsys, command, str(src))
    assert code in (0, 1) and rep["path"] == path
    assert len(counted) == calls


def test_no_assert_statements_in_package():
    """``python -O`` strips ``assert``, so runtime checks must raise."""
    import ast
    from pathlib import Path

    import bchromatic
    for path in sorted(Path(bchromatic.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_hfree_deep_pattern(files, capsys):
    """A 1100-vertex pattern is placed 1100 levels deep; the search keeps its
    own stack, so this is a report, not a RecursionError."""
    src = files["dir"] / "p1200.col"
    src.write_text(write_dimacs(pattern_graph("P1200")))
    code, rep = run(capsys, "hfree", str(src), "--pattern", "P1100")
    assert code == 0 and rep["status"] == "ok" and not rep["free"]
    assert rep["witness"] == list(range(1100))


def test_hfree_pattern_of_many_copies(files, capsys):
    """A pattern name of 100,000 copies expands in one pass, so the answer
    comes at once."""
    code, rep = run(capsys, "hfree", files["p5"], "--pattern", "100000P1")
    assert code == 0 and rep["status"] == "ok" and rep["free"]


# a witness each command's solver never returns, replaced into the solver
# the command runs: (argv, module, solver, what it returns, error text)
BAD_WITNESSES = [
    (["hfree", "{p5}", "--pattern", "2P2"], "patterns", "contains_induced", (0, 1, 2, 3),
     "hfree returned an invalid witness"),
    (["fall", "{c3}"], "fall", "fall_uniqueness_report",
     FallUniqueness(True, FallSpectrum((2,), {2: Colouring.from_values((1, 1, 2))}), "modular"),
     "colouring is improper on edge (0, 1)"),
    (["fall", "{c4}"], "fall", "fall_uniqueness_report",
     FallUniqueness(True, FallSpectrum((4,), {4: Colouring.from_values((1, 2, 3, 4))}), "modular"),
     "fall returned an invalid witness on the modular path"),
    (["tightb", "{foot}"], "tight", "solve_tight",
     TightSolve("oracle", "found", Colouring.from_values((1, 1, 2, 3, 4, 5)), 5, 7),
     "tightb returned an invalid witness on the oracle path"),
    (["oracle", "bchromatic", "{c4}"], "oracles", "b_chromatic_number",
     (2, Colouring.from_values((1, 1, 2, 2))),
     "colouring is improper on edge (0, 1)"),
    (["oracle", "bchromatic", "{c4}"], "oracles", "b_chromatic_number",
     (3, Colouring.from_values((1, 2, 1, 3))),
     "oracle bchromatic returned an invalid witness"),
    (["oracle", "bchromatic", "{c4}"], "oracles", "b_chromatic_number",
     (3, Colouring.from_values((1, 2, 1, 2))),
     "oracle bchromatic returned an invalid witness"),
    (["oracle", "chromatic", "{c4}"], "oracles", "chromatic_number",
     (2, Colouring.from_values((1, 1, 2, 2))),
     "oracle chromatic returned an invalid witness"),
    (["oracle", "chromatic", "{c4}"], "oracles", "chromatic_number",
     (3, Colouring.from_values((1, 2, 1, 2))),
     "oracle chromatic returned an invalid witness"),
    (["oracle", "tightb", "{foot}"], "oracles", "tight_b_exact",
     TightSearch("found", Colouring.from_values((1, 1, 2, 3, 4, 5)), 7),
     "oracle tightb returned an invalid witness"),
    (["oracle", "fall", "{c4}"], "oracles", "fall_spectrum",
     FallSpectrum((3,), {3: Colouring.from_values((1, 2, 1, 2))}),
     "oracle fall returned an invalid witness"),
    (["oracle", "edge3col", "{k4}"], "oracles", "three_edge_colouring",
     {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 3, (1, 3): 2, (2, 3): 2},
     "oracle edge3col returned an invalid witness"),
    (["oracle", "13sat", "{f3}"], "oracles", "one_in_three_sat", (True, True, False),
     "oracle 13sat returned an invalid witness"),
]


@pytest.mark.parametrize("argv, module, solver, result, error", BAD_WITNESSES,
                         ids=["-".join(argv[:2] if argv[0] == "oracle" else argv[:1])
                              for argv, *_ in BAD_WITNESSES])
def test_an_invalid_witness_is_an_error_report(files, capsys, monkeypatch, argv, module, solver,
                                               result, error):
    """Every kind of report with a witness checks it before writing it: an
    improper colouring, a proper one that misses the kind's condition, a
    colouring whose k is not the reported value or spectrum key, an
    embedding that is not induced, a 3-edge-colouring with two equal
    colours at a vertex and an assignment with two true variables in one
    clause each end in one JSON error with exit 3."""
    import importlib
    monkeypatch.setattr(importlib.import_module(f"bchromatic.{module}"), solver,
                        lambda *args, **kwargs: result)
    code, rep = run(capsys, *[a.format(**files) for a in argv])
    assert code == 3 and rep == {"schema": 1, "status": "error", "error": error}


def test_every_kind_with_a_witness_has_a_check():
    """``_CHECKS`` has one row for each command whose report carries a
    witness, and no other: every ``oracle`` kind the parser offers but
    ``mmm``, which reports a size alone, and ``tightb``, ``fall`` and
    ``hfree``.  ``analyze``, ``classify`` and ``show`` report no witness,
    and ``gadget`` and ``verify`` are checked by the reduction certifier."""
    from bchromatic.cli import _CHECKS
    subcommands = build_parser()._subparsers._group_actions[0].choices
    kinds = next(a.choices for a in subcommands["oracle"]._actions if a.dest == "which")
    no_witness = {"analyze", "classify", "show", "gadget", "verify", "oracle", "oracle mmm"}
    expected = {*subcommands, *(f"oracle {k}" for k in kinds)} - no_witness
    assert set(_CHECKS) == expected


SOLVERS = {"oracles", "matching", "patterns", "tight", "fall", "gadgets"}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["analyze", "{c3}"], {"cli", "graphs", "io"}, SOLVERS),
    (["hfree", "{c3}", "--pattern", "P3"], {"cli", "graphs", "io", "patterns"},
     SOLVERS - {"patterns"}),
    (["classify", "{c3}", "--problem", "fall"], {"cli", "graphs", "io", "patterns"},
     SOLVERS - {"patterns"}),
    (["tightb", "{c3}"], {"tight"}, {"gadgets", "fall", "oracles"}),
    (["fall", "{c3}"], {"fall"}, {"gadgets", "tight", "oracles"}),
    (["show", "petersen"], {"gadgets"}, {"tight", "fall"}),
    (["tightb", "{p5p1}"], {"tight", "oracles"}, {"gadgets", "fall"}),
    (["fall", "{petersen}"], {"fall", "oracles"}, {"gadgets", "tight"}),
    (["analyze", "{bad}"], {"cli", "graphs", "io"}, SOLVERS),
], ids=["analyze", "hfree", "classify", "tightb", "fall", "show", "tightb-oracle", "fall-oracle",
        "analyze-error"])
def test_each_command_imports_only_what_it_runs(files, argv, loaded, absent):
    """A fresh process running one command loads the package modules that
    the command's work runs, and none of ``absent``: ``tightb`` and
    ``fall`` load ``oracles`` only on an input that falls back to it, and
    an error report loads nothing more than the failed command did.  No
    command imports ``dataclasses`` or the ``inspect`` it would pull in,
    which together cost about 7 ms of a cold start; the probe counts only
    what the command adds to the modules the interpreter started with."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bchromatic
    probe = ("import sys; before = set(sys.modules); import bchromatic.cli; "
             "bchromatic.cli.main(sys.argv[1:]); print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(bchromatic.__file__).parent.parent))
    out = files["dir"] / "report.json"
    extra = [] if argv[0] == "show" else ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", probe,
                           *[a.format(**files) for a in argv], *extra],
                          capture_output=True, text=True, env=env, check=True)
    added = set(proc.stdout.splitlines()[-1].split())
    modules = {m.removeprefix("bchromatic.") for m in added if m.startswith("bchromatic.")}
    assert loaded <= modules and not modules & absent, sorted(modules)
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_one_in_three_over_the_fall_oracle_limit(files, capsys):
    """Nine variables give a 45-vertex instance, past the fall oracle: the
    backward step is skipped and verify is inconclusive."""
    import random
    rng = random.Random(9)
    while True:
        slots = [x for x in range(9) for _ in range(3)]
        rng.shuffle(slots)
        clauses = tuple(tuple(slots[i:i + 3]) for i in range(0, 27, 3))
        if all(len(set(cl)) == 3 for cl in clauses):
            break
    src = files["dir"] / "f9.cnf13"
    src.write_text(write_formula(Formula33(9, clauses)))
    code, rep = run(capsys, "gadget", "one-in-three", str(src), "--out",
                    str(files["dir"] / "f9-gadget"))
    assert code == 0 and rep["n"] == 45
    code, rep = run(capsys, "verify", "one-in-three", str(src))
    assert code == 2 and rep["status"] == "inconclusive"
    assert rep["equivalence"] == "inconclusive" and not rep["inconsistent"]
    assert "n<=14" in rep["backward"] and rep["measurements"] == {}
    assert all(rep["structural_checks"].values())


def test_one_in_three_over_the_sat_oracle_limit(files, capsys):
    """240 variables are past the 1-in-3 oracle: gadget still emits the
    1200-vertex instance with the forward step skipped, verify is
    inconclusive, and the oracle itself refuses the formula."""
    src = files["dir"] / "cyclic240.cnf13"
    src.write_text(write_formula(cyclic_formula(240)))
    code, rep = run(capsys, "gadget", "one-in-three", str(src), "--out",
                    str(files["dir"] / "cyclic240-gadget"))
    assert code == 0 and rep["status"] == "ok" and rep["n"] == 1200
    assert rep["forward"].startswith("forward step skipped") and rep["forward_witness"] is None
    code, rep = run(capsys, "verify", "one-in-three", str(src))
    assert code == 2 and rep["status"] == "inconclusive"
    assert rep["equivalence"] == "inconclusive" and not rep["inconsistent"]
    assert "n<=30" in rep["forward"] and all(rep["structural_checks"].values())
    code, rep = run(capsys, "oracle", "13sat", str(src))
    assert code == 3 and rep["error"] == "1-in-3 oracle limited to n<=30, got n=240"


def test_oracle_13sat_on_a_3000_variable_formula(files, capsys, monkeypatch):
    """With the limit raised, the 1-in-3 oracle answers the cyclic formula
    on 3,000 variables instead of running out of recursion depth."""
    src = files["dir"] / "cyclic3000.cnf13"
    src.write_text(write_formula(cyclic_formula(3000)))
    monkeypatch.setenv("ORACLE_BUDGET", "3000")
    code, rep = run(capsys, "oracle", "13sat", str(src))
    assert code == 0 and rep["value"] is True and sum(rep["witness"]) == 1000


def test_unexpected_exception_is_a_json_error(files, capsys, monkeypatch):
    """An exception of no known input type, raised anywhere in a command,
    becomes one JSON error report with its type name, exit 3 and no
    traceback."""
    import bchromatic.cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(bchromatic.cli, "cmd_oracle", boom)
    code = main(["oracle", "tightb", files["k4"]])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 3 and rep["status"] == "error" and err == ""
    assert rep["error"] == "RuntimeError: boom"


# A suffix and the command that reads such a file.
SUFFIX_COMMANDS = [(".col", ["analyze"]), (".el", ["analyze"]), ("", ["analyze"]),
                   (".cnf13", ["oracle", "13sat"])]
# Valid starts, and bytes of the formats' own characters, so that some of
# the texts parse.
PREFIXES = [b"", b"p edge 3 1\ne 1 ", b"p edge 4 0\n", b"n 4\n0 ", b"0 1\n",
            b"p 13sat 3\n1 2 3\n1 2 3\n1 2 3\n", b"c \xff\n"]
DATA = st.one_of(st.binary(max_size=40), st.text("epcn#0123 \n", max_size=30).map(str.encode))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(SUFFIX_COMMANDS), st.sampled_from(PREFIXES), DATA)
def test_arbitrary_bytes_give_a_report_or_one_json_error(tmp_path_factory, case, prefix, data):
    """Any bytes in any input format: a valid report, or exactly one JSON
    error object with exit 3; nothing on stdout or stderr, no traceback."""
    suffix, command = case
    folder = tmp_path_factory.mktemp("bytes")
    path, out = folder / f"input{suffix}", folder / "report.json"
    path.write_bytes(prefix + data)
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main([*command, str(path), "--out", str(out)])
    assert stdout.getvalue() == stderr.getvalue() == ""
    rep = json.loads(out.read_text())
    if code == 3:
        assert rep.keys() == {"schema", "status", "error"} and rep["status"] == "error"
        assert isinstance(rep["error"], str) and "Traceback" not in rep["error"]
    else:
        assert code in (0, 1, 2) and rep["schema"] == 1 and rep["command"] == " ".join(command)
        assert rep["status"] == ["ok", "no", "inconclusive"][code]


def test_oracle_tightb_on_a_1329_vertex_instance(files, capsys):
    """The tight b-colouring search keeps its own stack, so the edge3col
    instance of CL120 (1329 vertices, about 1,100 levels deep) gets an
    answer, with a witness that passes the validator."""
    from bchromatic.gadgets import edge3col_instance
    g = edge3col_instance(circular_ladder(120)).graph
    src = files["dir"] / "cl120-edge3col.col"
    src.write_text(write_dimacs(g))
    code, rep = run(capsys, "oracle", "tightb", str(src))
    assert code == 0 and rep["status"] == "ok" and rep["value"] is True
    witness = Colouring.from_values(rep["witness"]["colours"])
    assert witness.k == rep["witness"]["k"] and is_tight_b_colouring(g, witness)


def test_oracle_vacuous_witnesses_are_ok(files, capsys):
    """The 0-vertex graph is cubic with the empty 3-edge-colouring, and the
    0-variable formula is satisfied by the empty assignment: both are yes
    answers whose witness is empty, not "no"."""
    src = files["dir"] / "empty.col"
    src.write_text(write_dimacs(Graph.empty(0)))
    code, rep = run(capsys, "oracle", "edge3col", str(src))
    assert code == 0 and rep["status"] == "ok"
    assert rep["value"] is True and rep["witness"] == {}
    formula = files["dir"] / "f0.cnf13"
    formula.write_text(write_formula(Formula33(0, ())))
    code, rep = run(capsys, "oracle", "13sat", str(formula))
    assert code == 0 and rep["status"] == "ok"
    assert rep["value"] is True and rep["witness"] == []


def test_cached_parser_keeps_no_state_between_calls(files, capsys, monkeypatch):
    """Calls in one process that differ only in options report exactly what
    a fresh process reports; the parser is built once, and a command
    function replaced after it was built is the one that runs."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bchromatic.cli

    assert build_parser() is build_parser()
    src = files["dir"] / "k4-3k2.col"
    src.write_text(write_dimacs(pattern_graph("K4+3P2")))
    env = dict(os.environ, PYTHONPATH=str(Path(bchromatic.__file__).parent.parent))
    argvs = [["tightb", str(src)], ["oracle", "tightb", str(src), "--budget", "5"],
             ["oracle", "tightb", str(src)]]
    seen = []
    for argv in argvs:
        code, rep = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "bchromatic.cli", *argv],
                               capture_output=True, text=True, env=env)
        expected = json.loads(fresh.stdout)
        rep.pop("timing_ms")
        expected.pop("timing_ms")
        assert (code, rep) == (fresh.returncode, expected)
        seen.append((rep.get("path"), rep["status"]))
    # the options took effect: these three reports all differ
    assert seen == [("(P3+P1)-free", "ok"), (None, "inconclusive"), (None, "ok")]
    shown = []
    monkeypatch.setattr(bchromatic.cli, "cmd_show", lambda args: shown.append(args.name) or 0)
    assert main(["show", "petersen"]) == 0 and shown == ["petersen"]
