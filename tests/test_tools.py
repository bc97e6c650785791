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
