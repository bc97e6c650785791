"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    names: dict = {}
    exec(compile(code, "README quick tour", "exec"), names)
    # the results the tour's comments promise
    assert names["colouring"].colours == (3, 1, 2, 3, 1)
    assert names["oracle"].status == "found"
    assert names["verdict"].family == "P4+sP1 (s=1)"
    assert names["spectrum"].values == (4,)
    assert names["spectrum"].witnesses[4].colours == (1, 2, 3, 4)
