"""Compare the reports of two benchmark work trees.

    python tools/compare_reports.py A/.bench_work B/.bench_work

Every file under A is matched with the file at the same relative path under
B.  ``.json`` files are compared as parsed JSON with the top-level
``timing_ms`` removed; every other file is compared byte for byte.  Prints
the common, differing and one-sided counts, then each differing path, with
the top-level keys whose values differ when both sides are JSON objects
(``differs: out/r.json [witness]``), and each one-sided path.  A one-sided
repeat copy, ``<name>.r<k>.json`` or ``<name>.r<k>.col`` beside a first run
``<name>.json`` that both trees hold, is not listed: it only shows that one
run fitted more passes, so the summary line counts these copies apart.
Exits 1 when a common file differs; files on one side only are listed but
do not fail the check.  Exits 2 when either argument is not a directory or
the two trees have no file in common, since such a comparison checks
nothing.
"""

import json
import re
import sys
from pathlib import Path

_REPEAT = re.compile(r"(.+)\.r\d+\.(json|col)")


def _content(path: Path):
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    try:
        report = json.loads(data)
    except ValueError:
        return data
    if isinstance(report, dict):
        report.pop("timing_ms", None)
    return report


def _differing_keys(old, new) -> list[str]:
    """The top-level keys whose values differ, or are on one side only,
    when both reports are JSON objects; otherwise none."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return []
    return sorted(k for k in old.keys() | new.keys()
                  if k not in old or k not in new or old[k] != new[k])


def _is_repeat(path: Path, shared: set[Path]) -> bool:
    """Whether ``path`` is a repeat copy of a first run in ``shared``."""
    match = _REPEAT.fullmatch(path.name)
    return match is not None and path.with_name(f"{match[1]}.json") in shared


def main(a: str, b: str) -> int:
    for root in (a, b):
        if not Path(root).is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    files = [{p.relative_to(root) for p in Path(root).rglob("*") if p.is_file()}
             for root in (a, b)]
    shared = files[0] & files[1]
    common = sorted(shared)
    if not common:
        print(f"no file in common: {a} and {b}", file=sys.stderr)
        return 2
    differ = []
    for p in common:
        before, after = _content(Path(a, p)), _content(Path(b, p))
        if before != after:
            differ.append((p, _differing_keys(before, after)))
    only, repeats = [], 0
    for root, side in ((a, files[0] - files[1]), (b, files[1] - files[0])):
        first = [p for p in side if not _is_repeat(p, shared)]
        repeats += len(side) - len(first)
        only.append((root, sorted(first)))
    print(f"common {len(common)}  differ {len(differ)}  only in A {len(only[0][1])}  "
          f"only in B {len(only[1][1])}  one-sided repeats {repeats}")
    for p, keys in differ:
        print(f"differs: {p}" + (f" [{', '.join(keys)}]" if keys else ""))
    for root, paths in only:
        for p in paths:
            print(f"only in {root}: {p}")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
