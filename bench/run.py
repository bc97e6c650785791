"""bchromatic benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload class-solve --seed 1 --seconds 20 --trace 0

One client runs one command at a time (a closed loop).  Each pass runs every
instance of the workload's pool once, in a seeded order, and after the first
pass runs cheap instances again (``run_passes``); passes repeat until one
more as long as the last would overrun ``--seconds``.  Commands run
in-process through ``bchromatic.cli.main(argv)`` with ``--out`` writing JSON
to disk, except in ``cli-cold``, where each is a fresh
``python -m bchromatic.cli`` process.
Every report is checked (``check.py``) and must be identical, timing fields
aside, in every pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced passes in turn and prints the per-layer metrics.  The last line
of standard output is one JSON object.

Every time is reported at a reference host speed: a fixed pure-Python
kernel (``speed_sample``) runs after every 100 ms of commands, and each
command's time is scaled by REFERENCE_SAMPLE_S over the median of the six
samples nearest it, three before and three after.  On a shared host whose
speed drifts within seconds the figures then track the program, not the
neighbours; the wall times are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import gen
import spans as sp

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
COLD_PROBES = 5
COLD_TIMEOUT_S = 60
# A speed sample after every SAMPLE_GAP_S seconds of commands.
SAMPLE_GAP_S = 0.1
# speed_sample's median time on an unloaded 2-vCPU Xeon host with CPython
# 3.11 (3.4 ms at a load that slowed a plain loop by 10%); times are
# reported as if the host ran at that speed.
REFERENCE_SAMPLE_S = 0.0033
# After the first pass an instance runs up to MAX_RUNS times a pass, about
# REPEAT_S seconds' worth.
MAX_RUNS = 5
REPEAT_S = 0.02


# -- host speed -----------------------------------------------------------------------


def _speed_graph(n: int = 240, p: float = 0.5) -> list[set[int]]:
    rng = random.Random(0)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return adj


# Large enough (about a megabyte of sets) to feel cache contention the way
# the package's searches on a few hundred vertices do.
SPEED_GRAPH = _speed_graph()


def speed_sample() -> float:
    """Seconds for a fixed kernel of the kind the package runs (set lookups
    over adjacency sets: induced P3s, then neighbourhood classes), timed
    after one untimed round that brings it back into the caches."""
    for _ in range(2):
        t0 = perf_counter()
        for v in range(0, len(SPEED_GRAPH), 12):
            nb = sorted(SPEED_GRAPH[v])
            for i, a in enumerate(nb[:24]):
                sum(1 for b in nb[i + 1:] if b not in SPEED_GRAPH[a])
        {frozenset(nbrs): v for v, nbrs in enumerate(SPEED_GRAPH)}
    return perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """Scale from host time to reference time, from samples taken around
    the timed work."""
    return REFERENCE_SAMPLE_S / statistics.median(samples)


# -- set-up ---------------------------------------------------------------------


class Job:
    """One instance bound to its files: the argv the CLI gets and where its
    report lands (repeat ``copy`` of the instance in a pass has its own)."""

    def __init__(self, inst: gen.Instance, folder: Path, copy: int = 0):
        self.inst = inst
        self.folder = folder
        src = folder / f"{inst.name}{inst.suffix}"
        self.stem = f"{inst.name}.r{copy}" if copy else inst.name
        self.report_path = folder / "out" / f"{self.stem}.json"
        self.argv = [a.replace("{in}", str(src.relative_to(ROOT))) for a in inst.args]
        if inst.output == "json":
            self.argv += ["--out", str(self.report_path.relative_to(ROOT))]
        elif inst.output == "prefix":
            self.argv += ["--out", str(self.report_path.with_suffix("").relative_to(ROOT))]
        self.src = src

    def copy(self, k: int) -> "Job":
        return Job(self.inst, self.folder, k)


def import_package():
    """Fresh import of the package from ./src, as a user's process does."""
    for name in [m for m in sys.modules if m == "bchromatic" or m.startswith("bchromatic.")]:
        del sys.modules[name]
    cli = importlib.import_module("bchromatic.cli")
    if not Path(cli.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"bchromatic imported from {cli.__file__}, not from ./src")
    return cli


def make_jobs(workload: str, seed: int) -> tuple[list[Job], str]:
    """The workload's instances in the pass order, and their digest."""
    jobs = [Job(inst, WORK / workload) for inst in gen.WORKLOADS[workload](seed)]
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(f"{job.inst.name} {' '.join(job.inst.args)}\n".encode())
        if job.inst.suffix:
            digest.update(job.inst.text.encode())
    random.Random(f"order:{workload}:{seed}").shuffle(jobs)
    return jobs, digest.hexdigest()


def write_inputs(workload: str, jobs: list[Job]) -> None:
    (WORK / workload / "out").mkdir(parents=True)
    for job in jobs:
        if job.inst.suffix:
            job.src.write_text(job.inst.text)


def warm_up(jobs: list[Job], runner) -> None:
    """Run the smallest instance of each command once."""
    first: dict[tuple[str, ...], Job] = {}
    for job in sorted(jobs, key=lambda j: len(j.inst.text)):
        first.setdefault(tuple(job.inst.args[:2]), job)
    runner(list(first.values()))


def setup(workload: str, seed: int):
    """Import the package, generate and write the inputs and warm up, each
    of SETUP_REPEATS times timed at reference speed from the speed samples
    around it; (the times, jobs, input digest, runner).  Writing the input
    files is left out of the time: it is the shared disk's time, which
    moved by 2-3x between runs, and the package has no part in it."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(WORK / workload, ignore_errors=True)
        samples = [speed_sample() for _ in range(3)]
        t0 = perf_counter()
        cli = import_package()
        jobs, digest = make_jobs(workload, seed)
        t1 = perf_counter()
        write_inputs(workload, jobs)
        t2 = perf_counter()
        runner = ColdRunner() if workload == "cli-cold" else InProcessRunner(cli)
        warm_up(jobs, runner)
        seconds = perf_counter() - t2 + t1 - t0
        samples += [speed_sample() for _ in range(3)]
        times.append(seconds * speed_factor(samples))
    return times, jobs, digest, runner


# -- running commands ---------------------------------------------------------------


class InProcessRunner:
    def __init__(self, cli, tracer: sp.Tracer | None = None):
        self.cli = cli
        self.tracer = tracer

    def __call__(self, jobs: list[Job]) -> list[tuple[float, int | None, str, list | None]]:
        """Run each job once; (latency s, exit code or None, stdout, spans)."""
        out = []
        sink = io.StringIO()
        for job in jobs:
            sink.seek(0)
            sink.truncate()
            if self.tracer is not None:
                self.tracer.spans = []
                root = self.tracer.begin("command")
            t0 = perf_counter()
            try:
                with redirect_stdout(sink):
                    code = self.cli.main(list(job.argv))
            except (Exception, SystemExit) as exc:  # a failed command, counted below
                code = None
                sink.write(f"\n{type(exc).__name__}: {exc}")
            latency = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end(root)
            out.append((latency, code, sink.getvalue(),
                        self.tracer.spans if self.tracer is not None else None))
        return out


class ColdRunner:
    """Each command in a fresh interpreter; with ``traced`` the child is
    bench/cold_child.py, which records spans and writes them to a file."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def __call__(self, jobs: list[Job]):
        out = []
        span_file = WORK / "cold-spans.json"
        for job in jobs:
            if self.traced:
                argv = [sys.executable, str(Path(__file__).with_name("cold_child.py")),
                        str(span_file), *job.argv]
            else:
                argv = [sys.executable, "-m", "bchromatic.cli", *job.argv]
            t0 = perf_counter()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                      text=True, timeout=COLD_TIMEOUT_S)
                code, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, stdout = None, "timed out"
            latency = perf_counter() - t0
            spans = None
            if self.traced:
                spans = [["command", t0, t0 + latency, -1, None]]
                if span_file.exists():
                    spans += json.loads(span_file.read_text())
                    span_file.unlink()
            out.append((latency, code, stdout, spans))
        return out


def cold_probe(code: str) -> float:
    """Median wall time in ms of ``python -c code`` over COLD_PROBES runs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(COLD_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=COLD_TIMEOUT_S)
        times.append(1000 * (perf_counter() - t0))
    return statistics.median(times)


# -- checking -------------------------------------------------------------------------


class Gate:
    """Checks every command: exit code and answer on the first pass, and an
    unchanged report (timing fields removed) on every later pass."""

    def __init__(self):
        self.first: dict[str, tuple[str, str | None]] = {}
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check_pass(self, jobs: list[Job], results) -> None:
        for job, (_, code, stdout, _) in zip(jobs, results):
            self.attempted += 1
            problem = self._check(job, code, stdout)
            if problem:
                self.failed += 1
                self.failures.setdefault(job.inst.name, problem)

    def _check(self, job: Job, code, stdout: str) -> str | None:
        if code is None:
            return f"raised or timed out: {stdout.strip()[-200:]}"
        report = None
        if job.inst.output == "stdout":
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        else:
            try:
                # a repeat's report names its own output file
                report = json.loads(job.report_path.read_text().replace(job.stem, job.inst.name))
            except (OSError, ValueError) as exc:
                return f"no readable report: {exc}"
            digest = gen.ck.report_digest(report)
        name = job.inst.name
        if name not in self.first:
            try:
                problem = job.inst.expect(report, code, stdout)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problem = f"malformed report: {type(exc).__name__}: {exc}"
            self.first[name] = (digest, problem)
            return problem
        first_digest, first_problem = self.first[name]
        return "report differs from the first pass" if digest != first_digest else first_problem


def clear_reports(jobs: list[Job]) -> None:
    for job in jobs:
        for path in (job.report_path, job.report_path.with_suffix(".col")):
            path.unlink(missing_ok=True)


def one_pass(jobs, runner, gate: Gate):
    """Every job once, with a speed sample before the first, after every
    SAMPLE_GAP_S of commands and after the last; (results, wall seconds of
    the jobs, each job's speed factor from the six samples nearest the
    group of jobs it ran in)."""
    clear_reports(jobs)
    res, samples, groups, seconds, since = [], [speed_sample()], [0], 0.0, 0.0
    for i, job in enumerate(jobs):
        t0 = perf_counter()
        res += runner([job])
        since += perf_counter() - t0
        if since >= SAMPLE_GAP_S or i == len(jobs) - 1:
            samples.append(speed_sample())
            groups.append(i + 1)
            seconds += since
            since = 0.0
    factors = []
    for g in range(len(groups) - 1):
        factor = speed_factor(samples[max(0, g - 2):g + 4])
        factors += [factor] * (groups[g + 1] - groups[g])
    gate.check_pass(jobs, res)
    return res, seconds, factors


def run_passes(jobs, runner, gate: Gate, seconds: float):
    """Closed loop: passes until one more as long as the last would overrun
    ``seconds``.  After the first pass, an instance that took t seconds at
    reference speed runs min(MAX_RUNS, REPEAT_S / t) times in each pass, the
    repeats in later rounds of the pass, so that a cheap instance's median
    rests on more than a few samples.  (latencies at reference speed by
    instance name, wall seconds per pass, reference seconds per pass)."""
    runs = {job.inst.name: [] for job in jobs}
    pass_times, ref_times, todo = [], [], jobs
    while not pass_times or sum(pass_times) + pass_times[-1] <= seconds:
        res, t, factors = one_pass(todo, runner, gate)
        scaled = [r[0] * f for r, f in zip(res, factors)]
        for job, s in zip(todo, scaled):
            runs[job.inst.name].append(s)
        pass_times.append(t)
        ref_times.append(sum(scaled))
        if todo is jobs:
            reps = {j.inst.name: min(MAX_RUNS, max(1, int(REPEAT_S / runs[j.inst.name][0])))
                    for j in jobs}
            todo = jobs + [j.copy(k) for k in range(1, MAX_RUNS) for j in jobs
                           if reps[j.inst.name] > k]
    return runs, pass_times, ref_times


def run_traced(jobs, runner, gate: Gate, seconds: float, cold: bool):
    """Pairs of an untraced and a traced pass, which goes first alternating,
    until the next pair would overrun ``seconds``, so both sides see the same
    machine; (traced results, overhead fraction at reference speed, median
    speed factor of the traced passes)."""
    tracer = sp.Tracer()
    traced_runner = ColdRunner(traced=True) if cold else InProcessRunner(runner.cli, tracer)
    traced, factors, wall, ref = [], [], [], {False: [], True: []}
    while not wall or sum(wall) + sum(wall) / len(ref[True]) <= seconds:
        for with_trace in (False, True) if len(wall) % 4 == 0 else (True, False):
            if with_trace and not cold:
                tracer.install()
            try:
                res, t, f = one_pass(jobs, traced_runner if with_trace else runner, gate)
            finally:
                tracer.uninstall()
            wall.append(t)
            ref[with_trace].append(sum(r[0] * x for r, x in zip(res, f)))
            if with_trace:
                traced += res
                factors += f
    print("pass seconds at reference speed, untraced / traced:", " ".join(
        f"{a:.3f}/{b:.3f}" for a, b in zip(ref[False], ref[True])))
    overhead = statistics.median(b / a for a, b in zip(ref[False], ref[True])) - 1
    return traced, overhead, statistics.median(factors)


# -- metrics ----------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    values beyond it, nearest-rank."""
    n = len(latencies)
    q = max([p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10], default=50)
    return q, sorted(latencies)[max(0, math.ceil(q / 100 * n) - 1)]


def end_to_end(workload, runs, pass_times, ref_times, setup_s) -> dict:
    """Every figure comes from per-instance latencies at reference speed,
    each the median of the instance's runs, so a command slowed once on a
    shared machine moves none of them; in a closed loop the throughput is the
    instance count over their sum."""
    lat = [statistics.median(r) for r in runs.values()]
    n = len(lat)
    q, tail_s = tail(lat)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    counts = [len(r) for r in runs.values()]
    print(f"latency tail is p{q}: {n - math.ceil(q / 100 * n)} of {n} instances beyond it, "
          f"each the median of {min(counts)} to {max(counts)} runs over {len(pass_times)} passes")
    print("pass seconds, wall:", " ".join(f"{t:.3f}" for t in pass_times))
    print("pass seconds, reference speed:", " ".join(f"{t:.3f}" for t in ref_times))
    return {
        "instances_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


# Inclusive time of the outermost calls of these functions, per command.
INCLUSIVE_MS = {
    "patterns.contains_induced_ms": {"patterns.contains_induced"},
    "patterns.cocomponent_kind_ms": {"patterns.cocomponent_kind"},
    "patterns.classify_ms": {"patterns.classify_b", "patterns.classify_tight",
                             "patterns.classify_fall"},
    "oracles.b_chromatic_ms": {"oracles.b_chromatic_number"},
    "oracles.chromatic_ms": {"oracles.chromatic_number"},
    "oracles.fall_spectrum_ms": {"oracles.fall_spectrum"},
    "oracles.edge3col_ms": {"oracles.three_edge_colouring"},
    "oracles.one_in_three_ms": {"oracles.one_in_three_sat"},
    "oracles.mmm_ms": {"oracles.min_maximal_matching_size"},
    "oracles.tight_exact_ms": {"oracles.tight_b_exact"},
    "tight.forcings_ms": {"tight.boundary_forcings"},
    "tight.extend_ms": {"tight.extend_partial"},
    "matching.bipartite_ms": {"matching.max_bipartite_matching"},
    "matching.general_ms": {"matching.maximum_matching", "matching.perfect_matching"},
    "graphs.analyze_tight_ms": {"graphs.analyze_tight"},
    "graphs.co_components_ms": {"graphs.co_components"},
    "graphs.validate_ms": {"graphs.is_b_colouring", "graphs.is_fall_colouring",
                           "graphs.is_tight_b_colouring", "graphs.proper_violation",
                           "graphs.is_maximal_independent_set"},
    "gadgets.build_ms": {"gadgets.cobipartite_hardness_instance", "gadgets.edge3col_instance",
                         "gadgets.edge3col_3p2_free_instance",
                         "gadgets.edge3col_2p3_free_instance", "gadgets.one_in_three_graph"},
    "io.load_ms": {"io.load_graph", "io.load_formula"},
    "io.digest_ms": {"io.graph_digest"},
}
# Self time, per command, of a module's spans or of one function's spans.
SELF_MS = {
    "tight.solve_self_ms": "tight",
    "fall.solve_self_ms": "fall",
    "cli.self_ms": "cli",
    "gadgets.verify_self_ms": "gadgets.verify_reduction",
}
TIGHT_SOLVERS = {"tight.tight_b_2p2p1_free", "tight.tight_b_p3p1_free", "tight.tight_b_clique_union"}
SHARE_MODULES = sp.MODULES + ("unattributed",)


def per_layer(results, overhead: float, factor: float, cold: dict) -> dict:
    """Per-layer metrics from the traced commands' spans (each command's list
    starts with its root span); times at reference speed by ``factor``."""
    n_cmd = len(results)
    total = sum(r[0] for r in results)
    incl = {k: 0.0 for k in INCLUSIVE_MS}
    selfs = {k: 0.0 for k in SELF_MS}
    module_self = {m: 0.0 for m in sp.MODULES}
    count = {"ci": 0, "ci_found": 0, "bcw": 0, "nodes": 0, "inconclusive": 0,
             "extend": 0, "solver": 0, "matching": 0}
    matching_fns = INCLUSIVE_MS["matching.bipartite_ms"] | INCLUSIVE_MS["matching.general_ms"]
    for _, _, _, spans in results:
        own = sp.self_times(spans)
        for (name, start, end, _, note), self_s in zip(spans, own):
            module = name.split(".")[0]
            if module in module_self:
                module_self[module] += self_s
            for key, target in SELF_MS.items():
                if name == target or module == target:
                    selfs[key] += self_s
            if name == "patterns.contains_induced":
                count["ci"] += 1
                count["ci_found"] += bool(note)
            elif name == "oracles.b_colouring_with":
                count["bcw"] += 1
            elif name == "oracles.tight_b_exact":
                count["nodes"] += note[0]
                count["inconclusive"] += note[1] == "inconclusive"
            elif name == "tight.extend_partial":
                count["extend"] += 1
        for key, names in INCLUSIVE_MS.items():
            incl[key] += sum(spans[i][2] - spans[i][1] for i in sp.outermost(spans, names))
        count["solver"] += len(sp.outermost(spans, TIGHT_SOLVERS))
        count["matching"] += len(sp.outermost(spans, matching_fns))

    per_cmd_ms = lambda s: 1000 * s * factor / n_cmd  # noqa: E731
    m = {k: (per_cmd_ms(v), "ms/cmd") for k, v in incl.items()}
    m.update({k: (per_cmd_ms(v), "ms/cmd") for k, v in selfs.items()})
    m["patterns.contains_induced_calls"] = (count["ci"] / n_cmd, "1/cmd")
    m["patterns.witness_frac"] = (count["ci_found"] / count["ci"] if count["ci"] else 0.0, "frac")
    m["oracles.b_colouring_with_calls"] = (count["bcw"] / n_cmd, "1/cmd")
    m["oracles.tight_exact_nodes"] = (count["nodes"] / n_cmd, "1/cmd")
    m["oracles.inconclusive"] = (count["inconclusive"] / n_cmd, "1/cmd")
    m["tight.extend_reached_frac"] = (count["extend"] / count["solver"] if count["solver"] else 0.0,
                                      "frac")
    m["matching.calls"] = (count["matching"] / n_cmd, "1/cmd")
    m["cold.interpreter_ms"] = (cold["interpreter"] * factor, "ms")
    m["cold.import_ms"] = (cold["import"] * factor, "ms")
    m["trace.overhead_frac"] = (overhead, "frac")
    attributed = sum(module_self.values())
    for module in sp.MODULES:
        m[f"{module}.share"] = (module_self[module] / total, "frac")
    m["unattributed.share"] = ((total - attributed) / total, "frac")
    return m


# -- main ---------------------------------------------------------------------------------


# The end-to-end metric each layer should move, and where it should not.
LAYER_MOVES = {
    "patterns": "latency_p50_ms, instances_per_s on class-solve; latency_tail_ms on reductions;"
                " flat on oracle-sweep",
    "oracles": "instances_per_s, latency_tail_ms on oracle-sweep (tight_exact: latency_p50_ms"
               " on reductions and oracle-sweep); flat on class-solve",
    "tight": "latency_p50_ms on class-solve",
    "fall": "latency_p50_ms on class-solve",
    "matching": "latency_p50_ms on class-solve",
    "graphs": "latency_p50_ms on class-solve",
    "gadgets": "latency_p50_ms on reductions",
    "io": "latency_p50_ms on cli-cold and on small class-solve instances",
    "cli": "latency_p50_ms on cli-cold and on small class-solve instances",
    "unattributed": "cli-cold: interpreter start and import (cold.* metrics) move latency_p50_ms;"
                    " elsewhere loop overhead",
}


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(gen.WORKLOADS) + ["all"], required=True,
                   help="'all' runs every workload in turn, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bchromatic" / "__init__.py").is_file():
        print("bench/run.py must run from a checkout root holding src/bchromatic", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                                ).returncode for w in gen.WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("ORACLE_BUDGET", None)  # the oracles run with their default limits

    setup_times, jobs, digest, runner = setup(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} instances, "
          f"input digest {digest}")
    gate = Gate()
    if args.trace == 0:
        runs, pass_times, ref_times = run_passes(jobs, runner, gate, args.seconds)
        print("set-up seconds at reference speed:", " ".join(f"{t:.3f}" for t in setup_times))
        metrics = end_to_end(args.workload, runs, pass_times, ref_times,
                             statistics.median(setup_times))
    else:
        traced, overhead, factor = run_traced(jobs, runner, gate, args.seconds,
                                              args.workload == "cli-cold")
        cold = {"interpreter": cold_probe("pass"), "import": cold_probe("import bchromatic")}
        metrics = per_layer(traced, overhead, factor, cold)
        print("layer shares and the end-to-end metric each should move:")
        for module in SHARE_MODULES:
            print(f"  {module:13s} {100 * metrics[module + '.share'][0]:6.2f}%  {LAYER_MOVES[module]}")
    print(f"failed_frac {gate.failed / gate.attempted:.4f} ({gate.failed}/{gate.attempted})")
    for name, problem in sorted(gate.failures.items()):
        print(f"  FAILED {name}: {problem}")
    print_table("metrics:", metrics)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
