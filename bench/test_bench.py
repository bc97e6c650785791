"""Self-tests of the benchmark: stable inputs, span arithmetic, and an answer
gate that really rejects wrong answers.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check as ck  # noqa: E402
import gen  # noqa: E402
import spans as sp  # noqa: E402


def _snapshot(workload, seed):
    return [(i.name, i.args, i.text, i.suffix) for i in gen.WORKLOADS[workload](seed)]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generators_are_byte_stable(workload):
    assert _snapshot(workload, 5) == _snapshot(workload, 5)
    assert _snapshot(workload, 5) != _snapshot(workload, 6)


def test_family_is_tight_and_has_the_dense_structure():
    g = gen.tight_2p2p1_family(12)
    facts = ck.tight_facts(g)
    assert facts["tight"] and facts["m"] == 12 and facts["dense"] == list(range(12))
    assert facts["boundary"] == list(range(12, 18))


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["command", 0.0, 10.0, -1, None],
        ["patterns.is_free", 1.0, 4.0, 0, None],
        ["patterns.contains_induced", 2.0, 3.0, 1, None],
        ["oracles.tight_b_exact", 5.0, 9.0, 0, None],
    ]
    assert sp.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_outermost_counts_nested_calls_once():
    spans = [
        ["tight.tight_b_p3p1_free", 0.0, 5.0, -1, None],
        ["tight.tight_b_2p2p1_free", 1.0, 2.0, 0, None],
        ["tight.tight_b_2p2p1_free", 3.0, 4.0, -1, None],
    ]
    names = {"tight.tight_b_p3p1_free", "tight.tight_b_2p2p1_free"}
    assert sp.outermost(spans, names) == [0, 2]


def test_tracer_wraps_every_alias_and_restores_them():
    import bchromatic.patterns
    import bchromatic.tight

    original = bchromatic.patterns.is_free
    tracer = sp.Tracer()
    tracer.install()
    try:
        assert bchromatic.tight.is_free is bchromatic.patterns.is_free
        assert bchromatic.tight.is_free is not original
        bchromatic.tight.tight_b_2p2p1_free(bchromatic.patterns.pattern_graph("P5"))
    finally:
        tracer.uninstall()
    assert bchromatic.tight.is_free is original and bchromatic.patterns.is_free is original
    names = [s[0] for s in tracer.spans]
    assert "patterns.is_free" in names and "patterns.contains_induced" in names
    called = names.index("patterns.is_free")
    assert tracer.spans[called][3] == names.index("tight.tight_b_2p2p1_free")


def _instance(workload, name):
    return next(i for i in gen.WORKLOADS[workload](3) if i.name == name)


def _run(tmp_path, inst):
    from bchromatic.cli import main

    src = tmp_path / f"in{inst.suffix}"
    src.write_text(inst.text)
    out = tmp_path / "out.json"
    code = main([a.replace("{in}", str(src)) for a in inst.args] + ["--out", str(out)])
    return json.loads(out.read_text()), code


def test_checker_accepts_the_real_answer_and_rejects_a_corrupted_witness(tmp_path):
    inst = _instance("class-solve", "cu80-tightb")
    report, code = _run(tmp_path, inst)
    assert inst.expect(report, code, "") is None
    colours = report["witness"]["colours"]
    # give a vertex its neighbour's colour: the colouring is no longer proper
    g = ck.from_edges(*_edges_from_dimacs(inst.text))
    u, v = ck.edges_of(g)[0]
    colours[u] = colours[v]
    assert inst.expect(report, code, "") is not None


def test_checker_rejects_a_wrong_verdict(tmp_path):
    inst = _instance("class-solve", "fam28-hfree")
    report, code = _run(tmp_path, inst)
    assert inst.expect(report, code, "") is None
    report["free"] = False
    report["witness"] = [0, 1, 2, 3, 4]
    assert inst.expect(report, code, "") is not None
    assert inst.expect(report, 3, "") is not None


def test_gate_counts_a_corrupted_report_as_failed(tmp_path, monkeypatch):
    import run
    from bchromatic.cli import main

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.chdir(tmp_path)
    inst = _instance("class-solve", "fam28-analyze")
    job = run.Job(inst, tmp_path)
    job.report_path.parent.mkdir(parents=True)
    job.src.write_text(inst.text)
    code = main(job.argv)
    gate = run.Gate()
    gate.check_pass([job], [(0.0, code, "", None)])
    assert (gate.attempted, gate.failed) == (1, 0)
    report = json.loads(job.report_path.read_text())
    report["m_degree"] += 1
    job.report_path.write_text(json.dumps(report))
    gate.check_pass([job], [(0.0, code, "", None)])
    assert (gate.attempted, gate.failed) == (2, 1)


def test_gate_checks_every_repeat_against_the_first_run(tmp_path, monkeypatch):
    import run
    from bchromatic.cli import main

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.chdir(tmp_path)
    inst = _instance("reductions", "gadget-edge3col-K4")
    job = run.Job(inst, tmp_path)
    job.report_path.parent.mkdir(parents=True)
    job.src.write_text(inst.text)
    repeats = [job.copy(1), job.copy(2)]
    todo = [job] + repeats
    gate = run.Gate()
    gate.check_pass(todo, [(0.0, main(j.argv), "", None) for j in todo])
    # each repeat wrote, and named, its own output files
    assert len({j.report_path for j in todo}) == 3
    assert (gate.attempted, gate.failed) == (3, 0)
    report = json.loads(repeats[1].report_path.read_text())
    report["n"] += 1
    repeats[1].report_path.write_text(json.dumps(report))
    gate.check_pass(repeats, [(0.0, 0, "", None)] * 2)
    assert (gate.attempted, gate.failed) == (5, 1)


def test_speed_factor_is_one_at_reference_speed():
    import run

    assert run.speed_factor([run.REFERENCE_SAMPLE_S] * 3) == pytest.approx(1.0)
    # a host at half speed takes twice as long; its times are halved
    slow = [2 * run.REFERENCE_SAMPLE_S] * 5 + [100.0]
    assert run.speed_factor(slow) == pytest.approx(0.5)
    assert run.speed_sample() > 0


def _edges_from_dimacs(text):
    lines = text.split("\n")
    n = int(lines[0].split()[2])
    return n, [(int(a) - 1, int(b) - 1) for _, a, b in (ln.split() for ln in lines[1:] if ln)]


def test_reference_searches_agree_with_the_oracles():
    import random

    from bchromatic import oracles
    from bchromatic.graphs import Graph

    rng = random.Random(0)
    for n, p in [(6, 0.3), (7, 0.5), (8, 0.5), (8, 0.7), (9, 0.4)] * 4:
        g = gen.random_graph(n, p, rng)
        pkg = Graph.from_edges(n, ck.edges_of(g))
        assert ck.chromatic_reference(g) == oracles.chromatic_number(pkg)[0]
        assert ck.fall_spectrum_reference(g) == list(oracles.fall_spectrum(pkg).values)
        assert ck.min_maximal_matching_reference(g) == oracles.min_maximal_matching_size(pkg)
        b = oracles.b_chromatic_number(pkg)[0]
        assert ck.b_colouring_refuted_above(g, b) and not ck.b_colouring_refuted_above(g, b - 1)
    for _ in range(10):
        g = gen.random_tight(9, rng.randint(3, 5), 0.5, rng)
        pkg = Graph.from_edges(9, ck.edges_of(g))
        assert ck.tight_b_colourable_reference(g) == (oracles.tight_b_exact(pkg).status == "found")
