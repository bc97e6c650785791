"""Span tracing from outside the package.

``Tracer.install()`` replaces every public function of the ``bchromatic``
modules by a wrapper that records a span: name, start, end and the span that
was open when it was called.  Every module attribute bound to a wrapped
function is replaced, so aliases made by ``from .x import f`` (for example
``tight.is_free`` next to ``patterns.is_free``) are traced too.  Nothing in
the package is edited; ``uninstall()`` puts the originals back.

A span's self time is its duration minus the part of it that its child
spans cover.  Spans stay in memory until the benchmark aggregates them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("graphs", "io", "patterns", "matching", "oracles", "tight", "fall", "gadgets", "cli")

# Called once per vertex or bit inside other traced functions: wrapping them
# would cost more than the work they do and tell nothing a caller's span
# does not.
NOT_TRACED = {"graphs.bits", "graphs.is_b_chromatic_vertex"}

# Results worth keeping on the span: whether an induced copy was found, and
# the search outcome of the tight b-colouring oracle.
NOTES = {
    "patterns.contains_induced": lambda out: out is not None,
    "oracles.tight_b_exact": lambda out: (out.nodes, out.status),
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end, note = self.begin, self.end, NOTES.get(name)

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(idx)
            if note is not None:
                self.spans[idx][4] = note(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "bchromatic") -> None:
        """Wrap the public functions of each module in MODULES."""
        targets = {}
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_TRACED):
                    targets[id(obj)] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, targets[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named there,
    so nested and recursive calls are counted once."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out
