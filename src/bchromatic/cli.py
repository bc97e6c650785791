"""Command-line front end.

Every command prints one JSON report (``schema: 1``) with deterministic key
order, either to stdout or to ``--out``.  Exit codes: 0 for ok/yes answers,
1 for proven "no", 2 for inconclusive, 3 for errors; any failure is one JSON
error report with exit 3.  The only environment override is
``ORACLE_BUDGET``, a vertex limit that ``oracle``, ``fall``, ``gadget`` and
``verify`` pass to every exponential oracle they run (for the 1-in-3 oracle
it limits the formula's variables); unset, each oracle keeps its own limit.
``--budget`` is the node budget of the tight b-colouring search and keeps
that oracle's default of 10^7 when omitted.  Either budget must be a whole
number >= 0; any other value is an error report that names it.

Each command imports only the modules it runs: its solver inside its
``cmd_*`` function, and the tables behind ``kind`` and ``--problem`` only
when a value is checked, so ``analyze`` loads ``graphs`` and ``io`` alone.
Where no bytecode cache is written (a read-only install,
``PYTHONDONTWRITEBYTECODE``), every fresh process compiles each module it
imports from source, and for a small input that is most of a command's time.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .graphs import (Colouring, Graph, analyze_tight, bits, co_components,
                     is_fall_colouring, is_tight_b_colouring)
from .io import (graph_digest, load_formula, load_graph, write_dimacs)

# report status -> exit code
EXIT_CODES = {"ok": 0, "no": 1, "inconclusive": 2, "error": 3}
# the report status of a search outcome ("found" | "absent" | "inconclusive")
SEARCH_STATUS = {"found": "ok", "absent": "no", "inconclusive": "inconclusive"}


def _oracle_budget() -> int | None:
    """``ORACLE_BUDGET`` as a vertex limit, or None for each oracle's own."""
    value = os.environ.get("ORACLE_BUDGET")
    if not value:
        return None
    if not value.strip().isdecimal():
        raise ValueError(f"ORACLE_BUDGET must be a whole number >= 0, got {value!r}")
    return int(value)


def _witness(c: Colouring | None):
    return None if c is None else {"k": c.k, "colours": list(c.colours)}


def _emit(report: dict, out: str | None) -> int:
    """Write the report; the exit code of its status."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_CODES[report["status"]]


def _report(command: str, path: str, g: Graph | None) -> dict:
    rep = {"schema": 1, "command": command, "input": path}
    if g is not None:
        rep["digest"] = graph_digest(g)
    return rep


def cmd_analyze(args) -> int:
    g = load_graph(args.path)
    info = analyze_tight(g)
    rep = _report("analyze", args.path, g)
    rep.update({
        "status": "ok",
        "n": g.n,
        "edges": g.edge_count(),
        "degrees": g.degrees(),
        "m_degree": info.m,
        "dense": sorted(info.dense),
        "boundary": sorted(info.boundary),
        "tight": info.is_tight,
        "co_components": [list(c) for c in co_components(g)],
    })
    return _emit(rep, args.out)


def cmd_tightb(args) -> int:
    from .oracles import NotTightError
    from .tight import solve_tight
    g = load_graph(args.path)
    rep = _report("tightb", args.path, g)
    t0 = time.perf_counter()
    try:
        res = solve_tight(g, node_budget=args.budget)
    except NotTightError as exc:
        info = analyze_tight(g)
        rep.update({"status": "error", "error": str(exc),
                    "m_degree": info.m, "dense": sorted(info.dense)})
        return _emit(rep, args.out)
    rep.update({
        "path": res.path,
        "m_degree": res.m,
        "timing_ms": round(1000 * (time.perf_counter() - t0), 3),
        "nodes": res.nodes,
        "witness": _witness(res.colouring),
        "status": SEARCH_STATUS[res.status],
    })
    if res.colouring is not None and not is_tight_b_colouring(g, res.colouring):
        raise ValueError(f"the {res.path} path returned an invalid tight b-colouring")
    return _emit(rep, args.out)


def cmd_fall(args) -> int:
    from .fall import fall_uniqueness_report
    g = load_graph(args.path)
    rep = _report("fall", args.path, g)
    t0 = time.perf_counter()
    res = fall_uniqueness_report(g, budget=_oracle_budget())
    values = list(res.spectrum.values)
    rep.update({
        "path": res.path,
        "status": "ok" if values else "no",
        "spectrum": values,
        "fall_chromatic": values[0] if values else 0,
        "fall_achromatic": values[-1] if values else 0,
        "fall_unique": res.fall_unique,
        "witnesses": {str(k): _witness(c) for k, c in sorted(res.spectrum.witnesses.items())},
        "timing_ms": round(1000 * (time.perf_counter() - t0), 3),
    })
    if not all(w.k == k and is_fall_colouring(g, w) for k, w in res.spectrum.witnesses.items()):
        raise ValueError(f"the {res.path} path returned an invalid fall colouring")
    return _emit(rep, args.out)


def cmd_classify(args) -> int:
    from .patterns import classify
    h = load_graph(args.path)
    v = classify(h, args.problem)
    rep = _report("classify", args.path, h)
    rep.update({"status": "ok", "problem": args.problem, "verdict": v.verdict.value,
                "reason": v.reason, "family": v.family})
    return _emit(rep, args.out)


def _is_induced_embedding(g: Graph, h: Graph, witness: tuple[int, ...]) -> bool:
    """Injective, and each pattern vertex's image sees exactly the images of
    its pattern neighbours among the images: every edge and non-edge kept."""
    if len(witness) != h.n or len(set(witness)) != h.n or not all(0 <= x < g.n for x in witness):
        return False
    image = sum(1 << x for x in witness)
    return all(g.adj[witness[a]] & image == sum(1 << witness[b] for b in bits(h.adj[a]))
               for a in range(h.n))


def cmd_hfree(args) -> int:
    from .patterns import contains_induced, pattern_graph
    g = load_graph(args.path)
    h = pattern_graph(args.pattern)
    witness = contains_induced(g, h)
    if witness is not None and not _is_induced_embedding(g, h, witness):
        raise ValueError(f"the search returned an invalid {args.pattern} witness")
    rep = _report("hfree", args.path, g)
    rep.update({"status": "ok", "pattern": args.pattern, "free": witness is None,
                "witness": list(witness) if witness else None})
    return _emit(rep, args.out)


def cmd_oracle(args) -> int:
    from .oracles import (b_chromatic_number, chromatic_number, fall_spectrum, tight_b_exact,
                          min_maximal_matching_size, one_in_three_sat, three_edge_colouring)
    rep = {"schema": 1, "command": f"oracle {args.which}", "input": args.path}
    t0 = time.perf_counter()
    status, value, witness, nodes = "ok", None, None, None
    budget = _oracle_budget()
    if args.which == "13sat":
        f = load_formula(args.path)
        assignment = one_in_three_sat(f, budget=budget)
        value = assignment is not None
        witness = None if assignment is None else list(assignment)
        status = "ok" if value else "no"
    else:
        g = load_graph(args.path)
        rep["digest"] = graph_digest(g)
        if args.which == "chromatic":
            value, col = chromatic_number(g, budget=budget)
            witness = _witness(col)
        elif args.which == "bchromatic":
            value, col = b_chromatic_number(g, budget=budget)
            witness = _witness(col)
        elif args.which == "tightb":
            res = tight_b_exact(g, node_budget=args.budget)
            status = SEARCH_STATUS[res.status]
            value = res.status == "found"
            witness, nodes = _witness(res.colouring), res.nodes
        elif args.which == "fall":
            spectrum = fall_spectrum(g, budget=budget)
            value = list(spectrum.values)
            witness = {str(k): _witness(c) for k, c in sorted(spectrum.witnesses.items())}
            status = "ok" if value else "no"
        elif args.which == "edge3col":
            ec = three_edge_colouring(g, budget=budget)
            value = ec is not None
            witness = None if ec is None else {f"{u},{v}": c for (u, v), c in sorted(ec.items())}
            status = "ok" if value else "no"
        elif args.which == "mmm":
            value = min_maximal_matching_size(g, budget=budget)
    rep.update({"status": status, "value": value, "witness": witness,
                "nodes_explored": nodes,
                "timing_ms": round(1000 * (time.perf_counter() - t0), 3)})
    return _emit(rep, args.out)


def _reduction(args, **kw) -> tuple:
    """The ``ReductionCertificate`` of ``args.kind`` on the source at
    ``args.path``, the report fields that ``gadget`` and ``verify`` share,
    and the instance as DIMACS text, built once for the digest and the
    ``.col`` file."""
    from .gadgets import REDUCTIONS, verify_reduction
    load, _ = REDUCTIONS[args.kind]
    cert = verify_reduction(args.kind, load(args.path), budget=_oracle_budget(), **kw)
    dimacs = write_dimacs(cert.instance)
    rep = {"schema": 1, "command": f"{args.cmd} {args.kind}", "input": args.path,
           "digest": graph_digest(dimacs),
           "structural_checks": dict(cert.structural_checks),
           "forward": cert.forward_note, "forward_witness": _witness(cert.forward_witness)}
    return cert, rep, dimacs


def cmd_gadget(args) -> int:
    cert, rep, dimacs = _reduction(args, backward=False)
    out_prefix = args.out_prefix or "gadget"
    col_path = Path(f"{out_prefix}.col")
    col_path.write_text(dimacs)
    rep.update({
        "status": "ok" if cert.structurally_sound() else "error",
        "instance": str(col_path), "n": cert.instance.n, "edges": cert.instance.edge_count(),
    })
    Path(f"{out_prefix}.json").write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
    return _emit(rep, None)


def cmd_verify(args) -> int:
    cert, rep, _ = _reduction(args, node_budget=args.budget)
    rep.update({
        "backward": cert.backward_note,
        "measurements": cert.measurements,
        "equivalence": cert.equivalence_status,
        "inconsistent": cert.inconsistent,
        "status": "error" if (cert.inconsistent or not cert.structurally_sound())
                  else ("inconclusive" if cert.equivalence_status == "inconclusive" else "ok"),
    })
    return _emit(rep, args.out)


def cmd_show(args) -> int:
    from .gadgets import family
    g = family(args.name, args.n)
    sys.stdout.write(write_dimacs(g))
    return EXIT_CODES["ok"]


class _Choices:
    """The keys of a table in another module, imported only when argparse
    checks or lists a value (``in`` iterates them).  Each argument that
    takes them names an explicit metavar, which argparse would otherwise
    build from the keys, so building the parser imports no solver."""

    def __init__(self, module: str, table: str):
        self.module, self.table = module, table

    def __iter__(self):
        return iter(getattr(importlib.import_module(f".{self.module}", __package__), self.table))


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, which ``main`` reports as one JSON error;
    the subparsers are built from the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process and shared by every call:
    parsing keeps no state in it, and building it costs more than most
    commands' own work.  Callers must not change it."""
    p = _Parser(prog="bchromatic", description="exact b-, tight b- and fall colouring toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("analyze", help="m-degree, dense set, boundary, tightness, co-components")
    sp.add_argument("path")
    common(sp)

    sp = sub.add_parser("tightb", help="tight b-colouring (class dispatch, oracle fallback)")
    sp.add_argument("path")
    sp.add_argument("--budget", type=int, help="oracle node budget")
    common(sp)

    sp = sub.add_parser("fall", help="fall spectrum (polynomial class or oracle)")
    sp.add_argument("path")
    common(sp)

    sp = sub.add_parser("classify", help="complexity verdict for H-free inputs, H given as a graph file")
    sp.add_argument("path")
    sp.add_argument("--problem", choices=_Choices("patterns", "DICHOTOMIES"),
                    metavar="PROBLEM", required=True, help="one of %(choices)s")
    common(sp)

    sp = sub.add_parser("hfree", help="induced-pattern check")
    sp.add_argument("path")
    sp.add_argument("--pattern", required=True)
    common(sp)

    sp = sub.add_parser("oracle", help="exact exponential solvers")
    sp.add_argument("which", choices=("chromatic", "bchromatic", "tightb", "fall",
                                      "edge3col", "13sat", "mmm"))
    sp.add_argument("path")
    sp.add_argument("--budget", type=int, help="node budget for tightb")
    common(sp)

    sp = sub.add_parser("gadget", help="emit a hardness instance as DIMACS plus a JSON certificate")
    sp.add_argument("kind", choices=_Choices("gadgets", "REDUCTIONS"), metavar="kind",
                    help="one of %(choices)s")
    sp.add_argument("path")
    sp.add_argument("--out", dest="out_prefix",
                    help="output prefix (writes PREFIX.col and PREFIX.json)")

    sp = sub.add_parser("verify", help="re-run structural checks and both oracle directions")
    sp.add_argument("kind", choices=_Choices("gadgets", "REDUCTIONS"), metavar="kind",
                    help="one of %(choices)s")
    sp.add_argument("path")
    sp.add_argument("--budget", type=int, help="backward-solve node budget")
    common(sp)

    sp = sub.add_parser("show", help="print a named family graph as DIMACS")
    sp.add_argument("name")
    sp.add_argument("n", type=int, nargs="?", default=0)

    return p


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise ValueError(f"--budget must be a whole number >= 0, got {args.budget}")
        # looked up per call, not kept in the cached parser, so a cmd_*
        # function replaced after the first call is the one that runs
        return globals()[f"cmd_{args.cmd}"](args)
    except BrokenPipeError:
        # The reader has gone: write nothing more, not even the error report.
        sys.stdout = open(os.devnull, "w")
        return EXIT_CODES["error"]
    except Exception as exc:
        # the types a user's input raises keep their bare message
        from .oracles import BudgetExceededError
        known = isinstance(exc, (BudgetExceededError, ValueError, OSError))
        report = {"schema": 1, "status": "error",
                  "error": str(exc) if known else f"{type(exc).__name__}: {exc}"}
        try:
            return _emit(report, getattr(args, "out", None))
        except OSError:  # --out itself cannot be written: report on stdout
            return _emit(report, None)


if __name__ == "__main__":
    sys.exit(main())
