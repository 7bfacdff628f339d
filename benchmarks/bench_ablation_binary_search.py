"""Ablation: equal-finish solver - Brent's method vs paper's bisection.

Both must agree to high precision; Brent needs fewer iterations.  The
two benchmark entries time a full 64-application solve each way.  The
package itself ships only the hybrid Newton solver
(:func:`repro.core.processor_allocation.equal_finish_batch`), so both
root finders live here, over a local ``g(K) - p``; the hybrid solve is
checked against them too.
"""

import numpy as np
import pytest

from repro.core.execution import sequential_times
from repro.core.processor_allocation import equal_finish_makespan
from repro.machine import taihulight
from repro.workloads import npb_synth

XTOL = 1e-12


def _bracket(seq, c, p):
    """``g(K) - p`` and the paper's bracket: all apps on p procs / on 1."""
    def g(K):
        denom = K / c - seq
        if np.any(denom <= 0):
            return np.inf
        return float(((1.0 - seq) / denom).sum()) - p

    lo = float(((seq + (1.0 - seq) / p) * c).max())
    hi = float(c.max())
    while g(hi) > 0:
        hi *= 2.0
    return g, lo, hi


def brentq_makespan(seq, c, p):
    from scipy.optimize import brentq

    g, lo, hi = _bracket(seq, c, p)
    return float(brentq(g, lo, hi, xtol=XTOL * lo, rtol=1e-14))


def bisect_makespan(seq, c, p):
    """Plain binary search on the decreasing ``g``, paper-style."""
    g, lo, hi = _bracket(seq, c, p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= XTOL * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def instance():
    pf = taihulight()
    wl = npb_synth(64, np.random.default_rng(0))
    x = np.zeros(64)
    return wl, pf, x


def _solve(solver, wl, pf, x):
    return solver(wl.seq, sequential_times(wl, pf, x), pf.p)


def test_solver_brentq(benchmark, instance):
    wl, pf, x = instance
    k = benchmark(lambda: _solve(brentq_makespan, wl, pf, x))
    assert k > 0


def test_solver_bisect(benchmark, instance):
    wl, pf, x = instance
    k = benchmark(lambda: _solve(bisect_makespan, wl, pf, x))
    assert k > 0
    # both solvers find the same root, and so does the package's solver
    kb = _solve(brentq_makespan, wl, pf, x)
    assert abs(kb - k) / kb < 1e-8
    assert abs(equal_finish_makespan(wl, pf, x) - kb) / kb < 1e-8
