"""The repository tools under ``tools/``."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def _tree(root: Path, files: dict) -> str:
    for name, report in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report))
    return str(root)


def test_compare_reports_exit_codes(tmp_path, capsys):
    """0 on identical trees and on a difference in ``timing_ms`` alone, 1
    on a differing common report, and 2 when the comparison checks
    nothing: a missing directory, or no file in common."""
    a = _tree(tmp_path / "a", {"x/r.json": {"spectrum": [2], "timing_ms": 1.0}, "s.json": {}})
    same = _tree(tmp_path / "same", {"x/r.json": {"spectrum": [2], "timing_ms": 9.0},
                                     "t.json": {}})
    differ = _tree(tmp_path / "differ", {"x/r.json": {"spectrum": [3], "timing_ms": 1.0}})
    apart = _tree(tmp_path / "apart", {"y/r.json": {"spectrum": [2]}})
    assert compare_reports.main(a, a) == 0
    assert compare_reports.main(a, same) == 0
    assert compare_reports.main(a, differ) == 1
    capsys.readouterr()
    assert compare_reports.main(a, str(tmp_path / "typo")) == 2
    assert compare_reports.main(a, apart) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"not a directory: {tmp_path / 'typo'}", f"no file in common: {a} and {apart}"]


def test_compare_reports_names_the_differing_keys(tmp_path, capsys):
    """Each differing JSON object is printed with its differing top-level
    keys, a key on one side only among them, and ``timing_ms`` never; a
    report that is not an object, and a non-JSON file, with its path
    alone."""
    a = _tree(tmp_path / "a", {"out/r.json": {"value": 3, "witness": [1], "timing_ms": 1.0},
                               "out/s.json": {"value": 3, "status": "ok"},
                               "out/t.json": [1, 2], "same.json": {"value": 1}})
    b = _tree(tmp_path / "b", {"out/r.json": {"value": 3, "witness": [2], "timing_ms": 2.0},
                               "out/s.json": {"value": 4, "error": "x"},
                               "out/t.json": [2, 1], "same.json": {"value": 1}})
    Path(a, "out", "u.col").write_text("p edge 1 0\n")
    Path(b, "out", "u.col").write_text("p edge 2 0\n")
    assert compare_reports.main(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "common 5  differ 4  only in A 0  only in B 0  one-sided repeats 0",
        "differs: out/r.json [witness]",
        "differs: out/s.json [error, status, value]",
        "differs: out/t.json",
        "differs: out/u.col",
    ]


def test_compare_reports_counts_one_sided_repeats(tmp_path, capsys):
    """A repeat copy ``<name>.r<k>.json`` or ``.col`` on one side only is
    counted on the summary line, not listed, when both trees hold its first
    run ``<name>.json``; any other one-sided file is still listed, and
    neither fails the check."""
    a = _tree(tmp_path / "a", {"out/g.json": {}, "out/g.r1.json": {}, "out/g.r2.json": {},
                               "out/h.r1.json": {}, "out/x.json": {}})
    b = _tree(tmp_path / "b", {"out/g.json": {}, "out/g.r1.json": {}, "out/y.json": {}})
    Path(a, "out", "g.r2.col").write_text("p edge 1 0\n")
    Path(b, "out", "g.r3.col").write_text("p edge 1 0\n")
    assert compare_reports.main(a, b) == 0
    assert capsys.readouterr().out.splitlines() == [
        "common 2  differ 0  only in A 2  only in B 1  one-sided repeats 3",
        f"only in {a}: out/h.r1.json",
        f"only in {a}: out/x.json",
        f"only in {b}: out/y.json",
    ]


_COUNT_SPEC = importlib.util.spec_from_file_location(
    "count_lines", Path(__file__).resolve().parents[1] / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_COUNT_SPEC)
_COUNT_SPEC.loader.exec_module(count_lines)


def test_count_lines_leaves_out_docstrings_comments_and_blanks(tmp_path, capsys):
    """Module, class and function docstrings, one line or several,
    comment-only lines and blank lines are not counted; a string that
    opens no body and a line with a trailing comment are.  One line per
    file, the total last."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('''"""Module
docstring."""

# a comment
import sys  # counted: code before the comment


class A:
    """Class docstring."""

    x = 1


def f():
    """Function
    docstring.
    """
        # an indented comment
    s = """not a docstring"""
    return s
''')
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert count_lines.code_lines((tmp_path / "pkg" / "a.py").read_text()) == 6
    assert count_lines.main(str(tmp_path)) == 8
    out = capsys.readouterr().out.splitlines()
    assert out == [f"     2 {tmp_path / 'b.py'}", f"     6 {tmp_path / 'pkg' / 'a.py'}",
                   "     8 total"]
