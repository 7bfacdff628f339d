"""Golden old-vs-new equivalence: the kernel refactor changes nothing.

Every test here is marked ``kernel_equivalence`` (CI runs the marker as
its own job) and asserts **bit-identical** results — ``==`` on floats,
not ``approx`` — between the verbatim pre-kernel reference loops in
:mod:`tests.golden.legacy_engines` and the kernel-backed engines, over
seeded sweeps of workloads, schedules, arrival patterns, and queues;
and between the kernel and its earlier per-application phase loop,
under the online and chaos engines.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.chaos.runner
import repro.online.engine
import repro.simulate.engine
from repro.chaos import run_chaos
from repro.core import Workload, get_scheduler
from repro.machine import taihulight
from repro.online import simulate_online
from repro.pipeline import jittered_arrivals, simulate_batch_queue
from repro.simulate import simulate_schedule
from repro.workloads import npb_synth, random_workload

from .legacy_engines import (
    legacy_run_phase_kernel,
    legacy_simulate_batch_queue,
    legacy_simulate_online,
    legacy_simulate_schedule,
)

pytestmark = pytest.mark.kernel_equivalence

SEEDS = range(5)
OFFLINE_SCHEDULERS = ("dominant-minratio", "dominantrev-maxratio", "fair",
                      "0cache", "speedup-aware")
ONLINE_POLICIES = ("dominant", "fair", "fcfs", "dominant-minratio")


def _workload(seed: int, n: int = 8):
    rng = np.random.default_rng(seed)
    return (npb_synth if seed % 2 else random_workload)(n, rng)


@pytest.fixture(scope="module")
def pf():
    return taihulight()


class TestOfflineEngine:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", OFFLINE_SCHEDULERS)
    @pytest.mark.parametrize("policy", ["static", "work-conserving"])
    def test_bit_identical(self, pf, seed, name, policy):
        wl = _workload(seed)
        s = get_scheduler(name)(wl, pf, np.random.default_rng(1))
        finish, events, peak = legacy_simulate_schedule(s, policy=policy)
        res = simulate_schedule(s, policy=policy)
        assert np.array_equal(finish, res.finish_times)
        assert events == res.events
        # The legacy loop sampled its "peak" once from the t=0
        # allocation total and never re-sampled; the kernel samples
        # usage at every event.  Compare like-for-like via the kernel's
        # t=0 sample — under work-conserving redistribution the in-use
        # total can drift a few ulps above the initial sum, so the
        # max-over-time peak only matches approximately.
        assert peak == res.processor_usage[0][1]
        assert res.peak_processors == pytest.approx(peak)
        assert float(finish.max()) == res.makespan


class TestOnlineEngine:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("pattern", ["zeros", "stagger", "waves", "shift"])
    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_bit_identical(self, pf, seed, pattern, policy):
        wl = _workload(seed)
        horizon = get_scheduler("dominant-minratio")(wl, pf, None).makespan()
        arrivals = {
            "zeros": np.zeros(8),
            "stagger": np.sort(
                np.random.default_rng(seed + 10).uniform(0, horizon, 8)),
            "waves": np.array([0.0] * 4 + [horizon / 2] * 4),
            "shift": np.full(8, horizon),
        }[pattern]
        finish, events = legacy_simulate_online(
            wl, pf, arrivals, policy=policy, rng=np.random.default_rng(7))
        res = simulate_online(
            wl, pf, arrivals, policy=policy, rng=np.random.default_rng(7))
        assert np.array_equal(finish, res.finish_times)
        assert events == res.events

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_randomized_policy(self, pf, seed):
        """Same rng stream -> the randomized registry policy replays."""
        wl = _workload(seed)
        arrivals = np.zeros(8)
        finish, events = legacy_simulate_online(
            wl, pf, arrivals, policy="randompart",
            rng=np.random.default_rng(seed))
        res = simulate_online(wl, pf, arrivals, policy="randompart",
                              rng=np.random.default_rng(seed))
        assert np.array_equal(finish, res.finish_times)
        assert events == res.events


class TestBatchQueue:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("capacity", [None, 0, 2, 5])
    def test_bit_identical(self, seed, capacity):
        rng = np.random.default_rng(seed + 20)
        arrivals = jittered_arrivals(60, 10.0, rng, jitter=0.3)
        service = rng.uniform(4.0, 16.0, 60)
        completed, dropped, latencies, depth, makespan = (
            legacy_simulate_batch_queue(arrivals, service,
                                        buffer_capacity=capacity))
        stats = simulate_batch_queue(arrivals, service,
                                     buffer_capacity=capacity)
        assert completed == stats.completed
        assert dropped == stats.dropped
        assert np.array_equal(latencies, stats.latencies)
        assert depth == stats.max_queue_depth
        assert makespan == stats.makespan


#: Churn plus crashes that destroy and re-queue work, at the time scale
#: of the 8-application taihulight instances below.
CHAOS_SPEC = "churn:period=2e10,drop=0.25+crash:hazard=1e-11,delay=1e9,lost=0.5"


def _twinned_workload(seed: int) -> Workload:
    """Four drawn applications, each twice: twins cross every phase
    boundary at the same event.  One twin pair is purely sequential, so
    each of its ``seq-done`` and ``done`` fall in the same event."""
    apps = [replace(a, name=f"{a.name}.{k}")
            for k, a in enumerate(list(_workload(seed, 4)) * 2)]
    for k in (3, 7):
        apps[k] = replace(apps[k], seq_fraction=1.0)
    return Workload(apps)


def _phase_runs(monkeypatch, run):
    """``run()`` on the kernel, then on the per-application legacy loop."""
    new = run()
    with monkeypatch.context() as m:
        for module in (repro.online.engine, repro.chaos.runner,
                       repro.simulate.engine):
            m.setattr(module, "run_phase_kernel", legacy_run_phase_kernel)
        old = run()
    return new, old


def _same_instant_crossings(log) -> tuple[int, int]:
    """Largest number of phase-boundary events logged at one instant,
    and how many applications left both phases at one instant."""
    events = log.as_tuples("seq-done", "done")
    times = [t for t, _, _ in events]
    both = sum((t, "seq-done", i) in events
               for t, kind, i in events if kind == "done")
    return max(times.count(t) for t in set(times)), both


class TestPhaseBoundaryPass:
    """The kernel's vector phase-boundary pass against the per-application
    loop it replaced: identical finish times, event counts, usage
    samples, and event logs, with and without injected faults."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("pattern", ["zeros", "stagger"])
    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_online(self, pf, monkeypatch, seed, pattern, policy):
        wl = _twinned_workload(seed)
        arrivals = (np.zeros(8) if pattern == "zeros" else np.repeat(
            np.sort(np.random.default_rng(seed).uniform(0, 1e10, 4)), 2))
        new, old = _phase_runs(monkeypatch, lambda: simulate_online(
            wl, pf, arrivals, policy=policy))
        assert np.array_equal(new.finish_times, old.finish_times)
        assert new.events == old.events
        assert new.processor_usage == old.processor_usage
        assert new.log.as_tuples() == old.log.as_tuples()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_chaos(self, pf, monkeypatch, seed, policy):
        wl = _twinned_workload(seed)
        new, old = _phase_runs(monkeypatch, lambda: run_chaos(
            wl, pf, faults=CHAOS_SPEC, policy=policy,
            fault_rng=np.random.default_rng(seed)))
        assert np.array_equal(new.finish_times, old.finish_times)
        assert new.events == old.events
        assert new.processor_usage == old.processor_usage
        assert new.log.as_tuples() == old.log.as_tuples()
        assert new.probe.as_rows() == old.probe.as_rows()
        assert new.pool_timeline == old.pool_timeline
        assert (new.crashes, new.lost_work) == (old.crashes, old.lost_work)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_work_conserving_completion_hook(self, pf, monkeypatch, seed):
        """``on_complete`` sees the same alive masks, in the same order."""
        wl = _twinned_workload(seed)
        s = get_scheduler("fair")(wl, pf, None)
        new, old = _phase_runs(monkeypatch, lambda: simulate_schedule(
            s, policy="work-conserving"))
        assert np.array_equal(new.finish_times, old.finish_times)
        assert new.events == old.events
        assert new.processor_usage == old.processor_usage

    def test_sweep_covers_the_hard_cases(self, pf):
        """Crashes that restore work, churn, and several applications
        crossing a phase boundary in one event all occur in the sweep."""
        crashes = lost = churn = crossings = both = 0
        for seed in SEEDS:
            wl = _twinned_workload(seed)
            res = run_chaos(wl, pf, faults=CHAOS_SPEC, policy="fair",
                            fault_rng=np.random.default_rng(seed))
            clean = simulate_online(wl, pf, np.zeros(8), policy="fair")
            crashes += res.crashes
            lost += res.lost_work
            churn += len(res.pool_timeline) - 1
            for log in (res.log, clean.log):
                most, pairs = _same_instant_crossings(log)
                crossings = max(crossings, most)
                both += pairs
        assert crashes > 0 and lost > 0
        assert churn > 0
        assert crossings >= 2
        assert both > 0
