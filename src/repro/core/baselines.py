"""Baseline scheduling strategies of Section 6.3.

* :func:`all_proc_cache` — no co-scheduling: applications run in
  sequence, each on all ``p`` processors with the whole LLC.  Every
  figure in the paper is normalized against this strategy (or against
  DominantMinRatio).
* :func:`fair` — every application gets ``p/n`` processors and a cache
  share proportional to its access frequency, ``x_i = f_i / sum_j f_j``.
* :func:`zero_cache` — nobody gets cache (``x_i = 0``); processors are
  assigned so all applications finish together.  Isolates the value of
  the *cache-allocation* decision: the only difference between this and
  the dominant heuristics is the cache partition.
* :func:`random_partition` — a uniformly random subset shares the
  cache with Theorem-3 fractions inside it; processors equal-finish.
  Isolates the value of choosing a *dominant* subset rather than an
  arbitrary one.

Each baseline has a ``*_batch`` twin over a
:class:`~repro.core.batch.BatchProblem` whose rows are bit-identical to
the scalar function on that instance alone (randomized rows draw from
their own generator, exactly as the scalar call would).
"""

from __future__ import annotations

import numpy as np

from .application import Workload
from .batch import (
    BatchProblem,
    BatchSchedule,
    equal_finish_allocation_batch,
    execution_times_batch,
)
from .dominance import (
    cache_weights,
    cache_weights_batch,
    optimal_cache_fractions,
    optimal_cache_fractions_batch,
)
from .platform import Platform
from .processor_allocation import build_equal_finish_schedule
from .schedule import Schedule, SequentialSchedule

__all__ = [
    "all_proc_cache",
    "fair",
    "zero_cache",
    "random_partition",
    "all_proc_cache_batch",
    "fair_batch",
    "zero_cache_batch",
    "random_partition_batch",
]


def all_proc_cache(workload: Workload, platform: Platform) -> SequentialSchedule:
    """Sequential execution, whole machine per application (AllProcCache)."""
    return SequentialSchedule(workload, platform)


def fair(workload: Workload, platform: Platform) -> Schedule:
    """Equal processors, frequency-proportional cache shares (Fair).

    When every application has ``f == 0`` the cache is split equally —
    the shares are irrelevant in that case since nobody accesses data.
    """
    n = workload.n
    procs = np.full(n, platform.p / n)
    total_freq = float(workload.freq.sum())
    if total_freq > 0:
        cache = workload.freq / total_freq
    else:
        cache = np.full(n, 1.0 / n)
    return Schedule(workload, platform, procs, cache)


def zero_cache(workload: Workload, platform: Platform) -> Schedule:
    """No cache for anyone; equal-finish processor allocation (0cache)."""
    x = np.zeros(workload.n)
    return build_equal_finish_schedule(workload, platform, x)


def random_partition(
    workload: Workload,
    platform: Platform,
    rng: np.random.Generator | None = None,
) -> Schedule:
    """Random cache subset with Theorem-3 fractions inside (RandomPart).

    Each application joins the cache subset independently with
    probability 1/2, restricted to applications that can profit from
    cache (positive weight).  If the draw selects nobody, the schedule
    degenerates to 0cache — exactly the paper's "for those in cache"
    formulation.
    """
    rng = rng if rng is not None else np.random.default_rng()
    weights = cache_weights(workload, platform)
    eligible = weights > 0
    mask = eligible & (rng.random(workload.n) < 0.5)
    if mask.any():
        x = optimal_cache_fractions(workload, platform, mask)
    else:
        x = np.zeros(workload.n)
    return build_equal_finish_schedule(workload, platform, x)


def all_proc_cache_batch(problem: BatchProblem) -> list[SequentialSchedule]:
    """Batched :func:`all_proc_cache`, each row carrying its times."""
    procs = np.broadcast_to(problem.p[:, None], problem.valid.shape)
    times = execution_times_batch(problem, procs, np.ones(problem.valid.shape))
    return [SequentialSchedule(wl, pf, times=times[i, :wl.n].copy())
            for i, (wl, pf) in enumerate(problem.instances)]


def fair_batch(problem: BatchProblem) -> BatchSchedule:
    """Batched :func:`fair`.

    The frequency totals come from each workload's own ``freq.sum()``
    (NumPy's pairwise summation), the exact reduction the scalar
    function uses — a padded row would reassociate it differently.
    """
    totals = np.array([float(wl.freq.sum()) for wl, _ in problem.instances])
    counts = problem.counts[:, None]
    procs = np.where(problem.valid, problem.p[:, None] / counts, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = problem.freq / totals[:, None]
    cache = np.where(totals[:, None] > 0, shares, 1.0 / counts)
    return BatchSchedule(problem, procs, np.where(problem.valid, cache, 0.0))


def zero_cache_batch(problem: BatchProblem) -> BatchSchedule:
    """Batched :func:`zero_cache`."""
    x = np.zeros(problem.valid.shape)
    procs, _ = equal_finish_allocation_batch(problem, x)
    return BatchSchedule(problem, procs, x)


def random_partition_batch(
    problem: BatchProblem,
    rngs=None,
) -> BatchSchedule:
    """Batched :func:`random_partition`.

    Row ``i`` draws its ``n_i`` coin flips from ``rngs[i]`` (a fresh
    unseeded generator when None), the same stream the scalar call
    would consume.  Rows whose draw selects nobody get zero fractions,
    as in the scalar 0cache degeneration.
    """
    weights = cache_weights_batch(problem)
    masks = (weights > 0) & problem.valid
    if rngs is None:
        rngs = [None] * len(problem)
    for i, (rng, n) in enumerate(zip(rngs, problem.counts.tolist())):
        rng = rng if rng is not None else np.random.default_rng()
        masks[i, :n] &= rng.random(n) < 0.5
    x = optimal_cache_fractions_batch(problem, masks, weights=weights)
    procs, _ = equal_finish_allocation_batch(problem, x)
    return BatchSchedule(problem, procs, x)
