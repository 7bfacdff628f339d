"""Tests for Lemma 2 and the equal-finish binary search."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, Workload
from repro.core.execution import execution_times, sequential_times
from repro.core.processor_allocation import (
    build_equal_finish_schedule,
    equal_finish_allocation,
    equal_finish_makespan,
    lemma2_processor_allocation,
    perfectly_parallel_makespan,
)
from repro.machine import taihulight


@pytest.fixture
def pf():
    return taihulight()


class TestLemma2:
    def test_sums_to_p(self, npb6_pp, pf):
        x = np.full(6, 1 / 6)
        procs = lemma2_processor_allocation(npb6_pp, pf, x)
        assert procs.sum() == pytest.approx(pf.p)

    def test_equalizes_finish_times(self, npb6_pp, pf):
        x = np.full(6, 1 / 6)
        procs = lemma2_processor_allocation(npb6_pp, pf, x)
        times = execution_times(npb6_pp, pf, procs, x)
        assert times.max() - times.min() < 1e-6 * times.max()

    def test_lemma3_makespan(self, npb6_pp, pf):
        """Common finish time equals (1/p) sum Exe(1, x)."""
        x = np.full(6, 1 / 6)
        procs = lemma2_processor_allocation(npb6_pp, pf, x)
        times = execution_times(npb6_pp, pf, procs, x)
        assert times[0] == pytest.approx(perfectly_parallel_makespan(npb6_pp, pf, x))

    def test_optimality_vs_perturbations(self, npb6_pp, pf, rng):
        """Any other allocation summing to p has a larger makespan."""
        x = np.full(6, 1 / 6)
        procs = lemma2_processor_allocation(npb6_pp, pf, x)
        best = execution_times(npb6_pp, pf, procs, x).max()
        for _ in range(30):
            raw = rng.random(6) + 0.01
            alt = pf.p * raw / raw.sum()
            span = execution_times(npb6_pp, pf, alt, x).max()
            assert span >= best * (1 - 1e-12)


def paper_bisection(seq, c, p, xtol=1e-12):
    """The paper's literal binary search for ``g(K) = p`` (Section 5).

    ``g(K) = sum_i (1-s_i) / (K/c_i - s_i)``, bracketed by every
    application on ``p`` processors and on one, the upper end doubled
    until ``g`` drops to ``p``.
    """
    def g(K):
        denom = K / c - seq
        if np.any(denom <= 0):
            return np.inf
        return float(((1.0 - seq) / denom).sum())

    lo = float(((seq + (1.0 - seq) / p) * c).max())
    hi = float(c.max())
    while g(hi) > p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= xtol * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


class TestEqualFinish:
    def test_single_app(self, pf):
        wl = Workload([Application(name="x", work=1e9, seq_fraction=0.2,
                                   access_freq=0.5, miss_rate=0.01)])
        procs, K = equal_finish_allocation(wl, pf, np.array([1.0]))
        assert procs[0] == pytest.approx(pf.p)
        expected = execution_times(wl, pf, np.array([pf.p]), np.array([1.0]))[0]
        assert K == pytest.approx(expected)

    def test_matches_lemma2_for_perfectly_parallel(self, npb6_pp, pf):
        x = np.full(6, 1 / 6)
        procs, K = equal_finish_allocation(npb6_pp, pf, x)
        closed = lemma2_processor_allocation(npb6_pp, pf, x)
        assert np.allclose(procs, closed, rtol=1e-8)
        assert K == pytest.approx(perfectly_parallel_makespan(npb6_pp, pf, x))

    def test_equal_finish_amdahl(self, npb6_amdahl, pf):
        x = np.full(6, 1 / 6)
        sched = build_equal_finish_schedule(npb6_amdahl, pf, x)
        assert sched.finish_time_spread() < 1e-8
        assert sched.procs.sum() == pytest.approx(pf.p, rel=1e-8)

    def test_hybrid_matches_paper_bisection(self, npb6_amdahl, pf):
        x = np.full(6, 1 / 6)
        k_hybrid = equal_finish_makespan(npb6_amdahl, pf, x)
        c = sequential_times(npb6_amdahl, pf, x)
        k_bisect = paper_bisection(npb6_amdahl.seq, c, pf.p)
        assert k_hybrid == pytest.approx(k_bisect, rel=1e-8)

    def test_more_apps_than_processors(self, rng):
        """n > p forces fractional allocations below 1."""
        from repro.machine import taihulight
        from repro.workloads import npb_synth

        pf = taihulight(p=8.0)
        wl = npb_synth(32, rng)
        sched = build_equal_finish_schedule(wl, pf, np.zeros(32))
        assert sched.is_feasible()
        assert sched.finish_time_spread() < 1e-8
        assert np.any(sched.procs < 1.0)

    def test_fully_sequential_app(self, pf):
        """s = 1 applications get epsilon processors and finish at c."""
        wl = Workload([
            Application(name="seq", work=1e9, seq_fraction=1.0,
                        access_freq=0.5, miss_rate=0.01),
            Application(name="par", work=1e12, seq_fraction=0.0,
                        access_freq=0.5, miss_rate=0.01),
        ])
        sched = build_equal_finish_schedule(wl, pf, np.zeros(2))
        assert sched.is_feasible()
        c_seq = sequential_times(wl, pf, np.zeros(2))[0]
        assert sched.times()[0] == pytest.approx(c_seq)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=2, max_value=24))
    @settings(max_examples=25, deadline=None)
    def test_property_equal_finish_and_budget(self, seed, n):
        """For any workload: all finish together and sum(p_i) ~= p."""
        from repro.workloads import npb_synth

        pf = taihulight()
        wl = npb_synth(n, np.random.default_rng(seed))
        x = np.zeros(n)
        sched = build_equal_finish_schedule(wl, pf, x)
        assert sched.finish_time_spread() < 1e-6
        assert sched.procs.sum() <= pf.p * (1 + 1e-6)
        assert sched.procs.sum() >= pf.p * (1 - 1e-6)


def test_solvers_do_not_import_scipy():
    """The offline solver and the online allocator run on NumPy alone."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from repro.core.processor_allocation import equal_finish_allocation
        from repro.machine import taihulight
        from repro.online import remaining_equal_finish
        from repro.workloads import npb_synth

        wl = npb_synth(8, np.random.default_rng(0))
        equal_finish_allocation(wl, taihulight(), np.zeros(8))
        remaining_equal_finish(wl.seq * wl.work, (1 - wl.seq) * wl.work,
                               np.ones(8), 16.0)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
