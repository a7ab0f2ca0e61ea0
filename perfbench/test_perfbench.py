"""Self-test and smoke test of the benchmark.

Run from the root of the repository with ``python3 -m pytest perfbench``
(about 30 s: every workload runs once at its tiny size, traced and
untraced).
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Instance, load  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be measured, not zero, on the workloads the
# layer table lists them for.  The tiny tons-n3 pass is two rounds, where
# HiGHS runs dual simplex, so crossover iterations are not expected there.
MEASURED_ON = {
    "exact-small": [
        "lp.solve.calls", "lp.solve.s", "lp.solve.self_s", "lp.highs.calls",
        "lp.verify_certificate.calls", "lp.verify_certificate.s",
        "lp.certified_per_verify", "lp.float_assisted_frac", "lp.vars",
        "lp.rows", "lp.nnz", "nsvalues.ns_value.s", "nsvalues.ns_value.self_s",
        "nsvalues.eps_ns_value.s", "nsvalues.eps_ns_value.self_s",
        "nsvalues.single_round_guessing.s",
        "nsvalues.single_round_guessing.self_s",
        "tons.tons_guessing_probability.s", "tons.build_guessing_lp.s",
        "tons.build_guessing_lp.self_s", "tons.build_causal_constraints.s",
        "tons.build_causal_constraints.rows", "games.product_behavior.s",
        "ksattack.tripartite_attack.s", "ksattack.tripartite_attack.self_s",
        "ksattack.verify_behavior.s", "ksattack.verify_behavior.self_s",
        "ksattack.build_orth_graph.calls", "ksattack.build_orth_graph.s",
        "ksattack.bipartite_from_assignment.calls",
        "ksattack.bipartite_from_assignment.s", "ksattack.blocks_per_attempt",
        "ksattack.attack_affine_dimension.s", "trace.top_span_coverage"],
    "tons-n3": [
        "lp.solve.calls", "lp.highs.calls", "lp.highs.s", "lp.highs.nit",
        "lp.vars", "lp.rows", "lp.nnz", "tons.tons_guessing_probability.s",
        "tons.build_guessing_lp.s", "tons.build_guessing_lp.self_s",
        "tons.build_causal_constraints.s",
        "tons.build_causal_constraints.rows", "games.product_behavior.s",
        "trace.top_span_coverage"],
}


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_entry_point_knows_every_workload():
    assert run.WORKLOADS == WORKLOADS


def test_wrong_or_raising_answers_count_as_failed():
    ctx = load("exact-small")
    items = [Instance("ns-value", (), F(8, 9)),
             Instance("ns-value", (), F(7, 9)),        # wrong expected value
             Instance("magic-square", (5,), F(1)),     # raises: no input 5
             Instance("magic-square", (0,), F(1))]
    _, records = worker.run_pass(ctx, items, 0)
    errors = [r["error"] for r in records]
    assert errors[0] is None and errors[3] is None
    assert errors[1] == "8/9 != 7/9"
    assert errors[2].startswith("GameError")


def test_renamed_layer_reads_missing_not_zero(monkeypatch):
    layers = [("nsrand.lp", "no_such_solve", "lp.solve")] + \
        [layer for layer in tracing.LAYERS if layer[2] != "lp.solve"]
    monkeypatch.setattr(tracing, "LAYERS", tuple(layers))
    ctx = load("exact-small")
    tracer = tracing.Tracer()
    with tracer.installed():
        wall, _ = worker.run_pass(ctx, [Instance("ns-value", (), F(8, 9))],
                                  0, tracer)
    metrics = tracer.metrics(1, wall, wall)
    assert tracer.missing == ["lp.solve"]
    assert metrics["lp.solve.calls"] is None
    assert metrics["lp.certified_per_verify"] is None
    assert metrics["lp.verify_certificate.calls"] >= 1
    assert metrics["nsvalues.ns_value.s"] > 0


def test_self_time_excludes_children_and_recursion():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                    ["a", 5.0, 7.0, 0, None]]
    totals = tracer.layer_totals()
    assert totals["a"] == {"calls": 2, "s": 10.0, "self_s": 5.0 + 2.0}
    assert totals["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(m["value"] is not None for m in metrics.values())
    must_move = MEASURED_ON[workload] if trace else list(metrics)
    assert [k for k in must_move if not metrics[k]["value"] > 0] == []


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "exact-small", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
