"""Command-line behaviour: reports, exit codes, file round trips."""

import json

import pytest

from bchromatic.cli import main
from bchromatic.gadgets import petersen_graph
from bchromatic.graphs import Colouring, Graph, is_tight_b_colouring
from bchromatic.io import graph_digest, parse_dimacs, write_dimacs, write_formula
from bchromatic.oracles import Formula33
from bchromatic.patterns import pattern_graph

from helpers import footnote_graph


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, g in [("c3", pattern_graph("C3")), ("c4", pattern_graph("C4")),
                    ("k5", pattern_graph("K5")), ("paw", pattern_graph("paw")),
                    ("p4", pattern_graph("P4")), ("p5", pattern_graph("P5")),
                    ("2p2", pattern_graph("2P2")),
                    ("foot", footnote_graph()), ("k4", pattern_graph("K4")),
                    ("petersen", petersen_graph())]:
        path = tmp_path / f"{name}.col"
        path.write_text(write_dimacs(g))
        out[name] = str(path)
    formula = tmp_path / "f3.cnf13"
    formula.write_text(write_formula(Formula33(3, ((0, 1, 2),) * 3)))
    out["f3"] = str(formula)
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
        code2, rep2 = run(capsys, "tightb", files[name], "--force-oracle")
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
    code2, rep2 = run(capsys, "tightb", str(path), "--force-oracle")
    assert rep1["path"] != "oracle" and rep2["path"] == "oracle"
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


def test_error_exit_code(files, capsys):
    code, rep = run(capsys, "analyze", str(files["dir"] / "missing.col"))
    assert code == 3 and rep["status"] == "error"


def test_oracle_budget_env(files, capsys, monkeypatch):
    big = Graph.empty(20)
    path = files["dir"] / "big.col"
    path.write_text(write_dimacs(big))
    code, rep = run(capsys, "oracle", "chromatic", str(path))
    assert code == 3
    monkeypatch.setenv("ORACLE_BUDGET", "25")
    code, rep = run(capsys, "oracle", "chromatic", str(path))
    assert code == 0 and rep["value"] == 1


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
    for path in sorted(Path(bchromatic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"
