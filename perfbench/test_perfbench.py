"""Tests of the benchmark's own logic: statistics, oracles, inputs, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
from outcome import END_TO_END, PER_LAYER, Outcome  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, q, beyond", [
    (1000, 99.0, 10), (5000, 99.0, 50), (100, 90.0, 10), (40, 75.0, 10), (11, 100 / 11, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, q, beyond):
    t = stats.tail(list(range(n)))
    assert t.q == pytest.approx(q)
    assert (t.samples, t.beyond) == (n, beyond)
    assert t.value == pytest.approx(stats.percentile(list(range(n)), q))


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_failures_count_as_missing_the_limit():
    values = [1.0] * 980 + [math.inf] * 20
    assert stats.tail(values).value == math.inf
    assert stats.median(values) == 1.0


# -- knee -------------------------------------------------------------------------

RATES = [100.0, 200.0, 300.0, 400.0]
KEPT_UP = RATES


def test_knee_interpolates_log_latency_up_to_the_limit():
    got = stats.knee(RATES, [10.0, 20.0, 40.0, 80.0], KEPT_UP, limit=50.0)
    assert got == pytest.approx(300.0 + 100.0 * math.log(1.25) / math.log(2.0))


def test_knee_stops_at_the_first_failing_rung():
    # Rung 3 recovers, but the knee is below the first failure.
    got = stats.knee(RATES, [10.0, 60.0, 20.0, 30.0], KEPT_UP, limit=50.0)
    assert 100.0 < got < 200.0


def test_knee_under_backlog_interpolates_the_keep_up_score():
    got = stats.knee(RATES, [10.0, 20.0, 30.0, 40.0], [100.0, 200.0, 250.0, 260.0], limit=50.0)
    lo_s, hi_s = 0.95, 0.95 * 300.0 / 250.0
    assert got == pytest.approx(200.0 - 100.0 * math.log(lo_s) / math.log(hi_s / lo_s))
    # Collapsed throughput still gives a value inside the step.
    got = stats.knee(RATES, [10.0, 20.0, 30.0, 40.0], [100.0, 200.0, 150.0, 0.0], limit=50.0)
    assert 200.0 < got < 210.0
    # Both criteria fail: the lower crossing wins.
    both = stats.knee(RATES, [10.0, 20.0, 80.0, 90.0], [100.0, 200.0, 150.0, 0.0], limit=50.0)
    assert both == pytest.approx(got)


@pytest.mark.parametrize("p99s, achieved, want", [
    ([10.0, 20.0, 30.0, 40.0], KEPT_UP, 400.0),                  # never fails
    ([70.0, 80.0, 90.0, 99.0], KEPT_UP, 100.0 / 1.4),            # first rung fails
    ([math.inf, 20.0, 30.0, 40.0], KEPT_UP, 0.0),                # ... with failures
    ([10.0, 20.0, math.inf, 40.0], KEPT_UP, 200.0),              # failed requests
    ([10.0, 20.0, 30.0, 40.0], [100.0, 200.0, 0.0, 0.0], 200.0),  # nothing answered
])
def test_knee_edge_cases(p99s, achieved, want):
    assert stats.knee(RATES, p99s, achieved, limit=50.0) == want


def test_knee_rejects_unsorted_ladders():
    with pytest.raises(ValueError):
        stats.knee([200.0, 100.0], [1.0, 2.0], [200.0, 100.0], limit=5.0)


# -- oracle tolerances --------------------------------------------------------------

def test_close_uses_the_solver_tolerance():
    assert stats.close(1.0, 1.0 + 5e-10)
    assert not stats.close(1.0, 1.0 + 2e-9)
    assert stats.close(-3e12, -3e12 * (1 + 9e-10))
    assert not stats.close(math.nan, math.nan)
    assert stats.close(math.inf, math.inf)


def test_same_compares_structures_and_numbers():
    want = {"names": ["a", "b"], "procs": [1.0, 2.0], "makespan": 3.0, "scheduler": "fair"}
    assert stats.same({**want, "procs": [1.0 + 1e-12, 2.0]}, want)
    assert not stats.same({**want, "procs": [1.0 + 1e-6, 2.0]}, want)
    assert not stats.same({**want, "procs": [1.0]}, want)
    assert not stats.same({**want, "scheduler": "0cache"}, want)
    assert not stats.same({k: v for k, v in want.items() if k != "makespan"}, want)
    assert stats.same({"x": np.array([1.0, 2.0])}, {"x": np.array([1.0, 2.0 + 1e-12])})


def test_figure_oracle_counts_wrong_cells():
    from wl_figures import wrong_cells

    ref = {"fair": {"makespan": np.ones((2, 3)), "proc_min": np.ones((2, 3))}}

    class Result:
        data = {"fair": {"makespan": np.ones((2, 3)), "proc_min": np.ones((2, 3))}}

    assert wrong_cells(Result, ref) == 0
    Result.data["fair"]["makespan"][0, 1] *= 1 + 1e-8
    Result.data["fair"]["proc_min"][0, 1] *= 1 + 1e-8     # same cell: counted once
    Result.data["fair"]["proc_min"][1, 2] *= 1 + 1e-10    # within tolerance
    assert wrong_cells(Result, ref) == 1


def test_serve_oracle_counts_errors_refusals_and_wrong_answers():
    from wl_serve import check

    decision = {"names": ["a"], "procs": [4.0], "cache": [0.5], "times": [2.0],
                "makespan": 2.0, "scheduler": "fair"}
    answers = {0: ("fp0", decision)}

    def body(**change):
        return json.dumps({"request_id": "fp0", "decision": {**decision, **change}}).encode()

    phase = inputs.Phase("ref", 1.0, np.zeros(5), np.zeros(5, dtype=int))
    result = loadgen.PhaseResult(
        latency_s=np.full(5, 1e-3), lateness_s=np.zeros(5),
        status=np.array([200, 200, 200, 503, 0]),
        bodies=[body(), body(makespan=2.0 * (1 + 1e-12)), body(makespan=2.0 * (1 + 1e-6)),
                b'{"error": "busy"}', None])
    out = Outcome()
    latency_ms = check(result, phase, answers, out)
    assert (out.attempted, out.failed) == (5, 3)
    assert np.isfinite(latency_ms).tolist() == [True, True, False, False, False]


@pytest.mark.parametrize("policy", ["dominant-minratio", "fair"])
def test_chaos_oracle_recomputes_each_resolve(policy):
    from repro.machine.presets import get_preset
    from repro.online.engine import make_policy_allocator
    from repro.workloads.synthetic import npb_synth
    from wl_chaos import count_wrong

    workload = npb_synth(6, np.random.default_rng(0))
    platform = get_preset("taihulight")
    active = np.array([True, True, False, True, True, True])
    seq_left = workload.seq * workload.work * 0.5
    par_left = (1 - workload.seq) * workload.work * 0.25
    procs, factors = make_policy_allocator(workload, platform, policy)(
        0.0, active, seq_left, par_left)
    call = (workload, platform, policy, active, seq_left, par_left, procs, factors)
    assert count_wrong([call]) == 0
    nudged = procs.copy()
    nudged[[0, 1]] += np.array([1, -1]) * 1e-6 * procs[0]   # same total, off by 1e-6
    assert count_wrong([call[:6] + (nudged, factors), call]) == 1


def test_serve_traffic_follows_the_figure_grids():
    from repro.experiments.figures import NAPPS_POINTS, build_figure, figure_ids

    mix = dict(inputs.scheduler_mix())
    assert abs(sum(mix.values()) - 1.0) < 1e-12
    assert set(mix) == {s for f in figure_ids() for s in build_figure(f, reps=1).schedulers}
    assert max(mix, key=mix.get) == "dominant-minratio"     # every grid evaluates it
    assert set(inputs.napps_choices()) <= set(NAPPS_POINTS.astype(int).tolist())


# -- seeded inputs ------------------------------------------------------------------

PLAN = [("a", 200.0, 0.5), ("b", 400.0, 0.25)]


def _serve_bytes(seed: int) -> bytes:
    got = inputs.ServeInputs(seed, PLAN)
    phases = [got.phase(k) for k in range(len(PLAN))]
    return b"".join(got.bodies) + b"".join(
        p.due.tobytes() + p.body_index.tobytes() for p in phases)


def _chaos_bytes(seed: int) -> bytes:
    return b"".join(
        sc.key.encode() + sc.workload.work.tobytes() + sc.workload.seq.tobytes()
        + sc.arrivals.tobytes() + str(sc.fault_seed).encode()
        for sc in inputs.chaos_scenarios(seed, 0))


@pytest.mark.parametrize("make", [_serve_bytes, _chaos_bytes,
                                  lambda s: np.array(inputs.figure_seeds(s, 0)).tobytes()])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_serve_inputs_mix_hits_and_unique_bodies():
    got = inputs.ServeInputs(3, [("a", 1000.0, 2.0)])
    index = got.phase(0).body_index
    share = float((index < got.hot).mean())
    assert abs(share - inputs.HOT_SHARE) < 0.05
    unique = index[index >= got.hot]
    assert len(set(unique.tolist())) == len(unique)          # unique bodies never repeat
    assert len(set(got.bodies)) == len(got.bodies)


# -- tracing ---------------------------------------------------------------------------

def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    inner.start, inner.end = 1.0, 3.0
    outer.start, outer.end = 0.0, 5.0
    totals = tracer.totals()
    assert totals["outer"] == (1, 5.0, 3.0)
    assert totals["inner"] == (1, 2.0, 2.0)
    assert inner.parent == outer.sid


def test_wrap_records_one_span_per_call_and_keeps_results():
    tracer = Tracer()
    tracer.group = "g1"
    double = tracer.wrap(lambda x: 2 * x, "layer")
    assert [double(i) for i in range(3)] == [0, 2, 4]
    assert tracer.totals()["layer"][0] == 3
    assert set(tracer.by_group("layer")) == {"g1"}


# -- contract ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    import run

    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert spec["command"][1:] == ["perfbench/run.py"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
