"""Golden batch-vs-scalar equivalence: the SoA batch path changes nothing.

Marked ``kernel_equivalence`` like the engine-refactor goldens: every
assertion is **bit-identical** (``==`` on floats, never ``approx``)
over seeded ragged sweeps — mixed instance sizes (including n = 1),
mixed platforms, every registered scheduler (extensions included), the
randomized heuristics under replayed per-row generator streams, the
batched equal-finish solver, the batched simulation kernel, and the
experiment engine's batch grouping.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.extensions  # noqa: F401  (registers speedup-aware & co.)
from repro.core import (
    PAPER_BASELINES,
    BatchProblem,
    dominant_schedule_batch,
    equal_finish_allocation,
    equal_finish_allocation_batch,
    equal_finish_batch,
    get_scheduler,
    optimal_cache_fractions_batch,
    dominant_partition_batch,
    schedule_batch,
    scheduler_names,
)
from repro.core.processor_allocation import ROW_BY_ROW_MAX_ROWS
from repro.machine import small_llc, taihulight, xeon_e5_2690
from repro.simulate import simulate_schedule, simulate_schedule_batch
from repro.workloads import npb_synth, random_workload

pytestmark = pytest.mark.kernel_equivalence

SEEDS = range(5)


def _instances(seed: int, n_rows: int = 20, mixed_platforms: bool = False):
    """A seeded ragged batch: n in [1, 14], alternating datasets."""
    platforms = ([taihulight(), xeon_e5_2690(), small_llc()]
                 if mixed_platforms else [taihulight()])
    rng = np.random.default_rng(1000 * seed)
    out = []
    for i in range(n_rows):
        n = int(rng.integers(1, 15))
        wl = (npb_synth if (seed + i) % 2 else random_workload)(n, rng)
        out.append((wl, platforms[i % len(platforms)]))
    return out


def _assert_schedules_identical(batch, scalar):
    for i, (b, s) in enumerate(zip(batch, scalar)):
        assert type(b) is type(s), i
        # Concurrent schedules carry procs/cache/times; composite ones
        # (e.g. the pairwise-matching extension) only expose makespan.
        if hasattr(s, "procs"):
            assert np.array_equal(s.procs, b.procs), i
            assert np.array_equal(s.cache, b.cache), i
        if hasattr(s, "times"):
            assert np.array_equal(s.times(), b.times()), i
        assert s.makespan() == b.makespan(), i


class TestSchedulerBatchPath:
    """schedule_batch == one scalar registry call per instance."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(scheduler_names()))
    def test_bit_identical(self, seed, name):
        entry = get_scheduler(name)
        instances = _instances(seed)
        rngs = ([np.random.default_rng(seed * 100 + i)
                 for i in range(len(instances))]
                if entry.randomized else None)
        batch = schedule_batch(name, instances, rngs)
        scalar = [
            entry(wl, pf,
                  np.random.default_rng(seed * 100 + i)
                  if entry.randomized else None)
            for i, (wl, pf) in enumerate(instances)
        ]
        _assert_schedules_identical(batch, scalar)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_platforms(self, seed):
        instances = _instances(seed, mixed_platforms=True)
        batch = schedule_batch("dominant-minratio", instances)
        scalar = [get_scheduler("dominant-minratio")(wl, pf, None)
                  for wl, pf in instances]
        _assert_schedules_identical(batch, scalar)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_padding_invariance(self, seed):
        """A row's result does not depend on how wide its batch is."""
        instances = _instances(seed)
        narrow = schedule_batch("dominant-minratio", instances[:1])
        wide = schedule_batch("dominant-minratio", instances)
        assert np.array_equal(narrow[0].procs, wide[0].procs)
        assert np.array_equal(narrow[0].cache, wide[0].cache)


class TestEqualFinishBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_bit_identical(self, seed):
        instances = _instances(seed, mixed_platforms=True)
        problem = BatchProblem(instances)
        masks = dominant_partition_batch(problem)
        x = optimal_cache_fractions_batch(problem, masks)
        procs, K = equal_finish_allocation_batch(problem, x)
        for i, (wl, pf) in enumerate(instances):
            n = wl.n
            ref_procs, ref_K = equal_finish_allocation(wl, pf, x[i, :n])
            assert np.array_equal(procs[i, :n], ref_procs), i
            assert K[i] == ref_K, i
            assert not procs[i, n:].any(), i


    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rows", range(2, 7))
    def test_small_batches_match_row_solves(self, seed, rows):
        """B = 2..6 straddles the row-by-row cut: every size reproduces
        each row solved alone (B = 1) and the scalar allocation."""
        assert 2 <= ROW_BY_ROW_MAX_ROWS < 6
        instances = _instances(seed + 10 * rows, n_rows=rows,
                               mixed_platforms=True)
        problem = BatchProblem(instances)
        x = optimal_cache_fractions_batch(
            problem, dominant_partition_batch(problem))
        procs, K = equal_finish_allocation_batch(problem, x)
        for i, (wl, pf) in enumerate(instances):
            n = wl.n
            row = BatchProblem([(wl, pf)])
            alone_procs, alone_K = equal_finish_allocation_batch(row, x[i:i + 1, :n])
            assert np.array_equal(procs[i, :n], alone_procs[0]), i
            assert K[i] == alone_K[0], i
            ref_procs, ref_K = equal_finish_allocation(wl, pf, x[i, :n])
            assert np.array_equal(procs[i, :n], ref_procs), i
            assert K[i] == ref_K, i
            assert not procs[i, n:].any(), i

    @pytest.mark.parametrize("rows", range(2, 7))
    def test_solver_cut_is_invisible(self, rows):
        """The raw solver on random (B, N) inputs: row-by-row and
        vectorized paths agree with per-row solves bit for bit."""
        rng = np.random.default_rng(rows)
        N = 9
        counts = rng.integers(1, N + 1, size=rows)
        valid = np.arange(N)[None, :] < counts[:, None]
        seq = np.where(valid, rng.uniform(0.0, 0.3, (rows, N)), 0.0)
        c = np.where(valid, rng.uniform(1e9, 1e11, (rows, N)), 1.0)
        p = rng.uniform(4.0, 512.0, rows)
        procs, K = equal_finish_batch(seq, c, valid, p)
        for i in range(rows):
            one_procs, one_K = equal_finish_batch(
                seq[i:i + 1], c[i:i + 1], valid[i:i + 1], p[i:i + 1])
            assert np.array_equal(procs[i], one_procs[0]), i
            assert K[i] == one_K[0], i


class TestSimulationBatchPath:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernel_bit_identical(self, seed):
        instances = _instances(seed, mixed_platforms=True)
        problem = BatchProblem(instances)
        bs = dominant_schedule_batch(problem)
        res = simulate_schedule_batch(bs)
        for i, s in enumerate(bs.schedules()):
            ref = simulate_schedule(s)
            n = instances[i][0].n
            assert np.array_equal(ref.finish_times,
                                  res.finish_times[i, :n]), i
            assert ref.makespan == res.makespans[i], i
            assert not res.finish_times[i, n:].any(), i


class TestEngineBatchGrouping:
    # Two seeds, not five: each case runs the experiment grid twice
    # (batched + scalar) and the scheduler-level sweep above already
    # covers the per-instance equivalence exhaustively.
    # reps=3 exercises the serial backend's single cross-rep batch.
    @pytest.mark.parametrize("reps", [2, 3])
    @pytest.mark.parametrize("seed", range(2))
    def test_run_experiment_unchanged(self, seed, reps, monkeypatch):
        """The engine's batch grouping changes no experiment floats."""
        from repro.experiments import build_figure, run_experiment
        from repro.experiments import engine as engine_mod

        exp = build_figure("fig1", reps=reps, seed=2017 + seed,
                           points=np.array([2.0, 5.0, 9.0]))
        batched = run_experiment(exp, use_cache=False)

        # Disable every batch_fn: same tasks, pure scalar evaluation.
        real_get_entry = engine_mod.get_entry

        class _ScalarOnly:
            def __init__(self, entry):
                self._entry = entry
                self.batch_fn = None

            def __getattr__(self, name):
                return getattr(self._entry, name)

            def __call__(self, *args, **kwargs):
                return self._entry(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "get_entry",
                            lambda name: _ScalarOnly(real_get_entry(name)))
        scalar = run_experiment(exp, use_cache=False)

        assert batched.schedulers == scalar.schedulers
        for name in batched.schedulers:
            for metric in batched.data[name]:
                assert np.array_equal(batched.samples(name, metric),
                                      scalar.samples(name, metric)), (name, metric)


class TestFigureSchedulersBatched:
    def test_every_figure_scheduler_has_batch_fn(self):
        """The 18 figure grids never fall back to scalar registry calls."""
        from repro.experiments import build_figure, figure_ids

        names = {name for fid in figure_ids()
                 for name in build_figure(fid, reps=1).schedulers}
        assert set(PAPER_BASELINES) <= names
        for name in sorted(names):
            assert get_scheduler(name).batch_fn is not None, name


class TestDispatcherBaselineGroups:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_batch_matches_compute_decision(self, seed):
        """Coalesced baseline groups of 2-6 requests decide exactly what
        one compute_decision per request decides."""
        from repro.service import AllocationRequest, compute_decision
        from repro.service.dispatcher import Dispatcher

        rng = np.random.default_rng(seed)
        instances = iter(_instances(seed, n_rows=6 * len(PAPER_BASELINES),
                                    mixed_platforms=True))
        requests = []
        for name in PAPER_BASELINES:
            for _ in range(int(rng.integers(2, 7))):
                wl, pf = next(instances)
                requests.append(AllocationRequest(
                    applications=tuple(wl), platform=pf, scheduler=name,
                    seed=int(rng.integers(0, 1000))))
        order = rng.permutation(len(requests))
        requests = [requests[i] for i in order]
        with Dispatcher(workers=2) as dispatcher:
            batched = dispatcher.evaluate(requests)
        assert batched == [compute_decision(req) for req in requests]
