"""figures: all 18 paper figure grids through ``run_experiment``.

Serial backend, result cache off, every pass covers all 18 grids.  An
op is one grid cell ``(rep, point, scheduler)``; the latency of one
figure grid is what ``repro figure figN`` spends computing.
"""

from __future__ import annotations

import contextlib
import dataclasses
from time import perf_counter

import numpy as np

import common
import stats
from inputs import FIGURE_REPS, FIGURE_SEED_SETS, figure_seeds
from outcome import Outcome, layer_defaults
from tracing import Tracer, traced_registry

SETUP_CODE = "import repro.cli\nimport repro.experiments.figures"


def experiments(seed: int, index: int):
    from repro.experiments.figures import build_figure, figure_ids

    return [build_figure(fid, reps=FIGURE_REPS, seed=s)
            for fid, s in zip(figure_ids(), figure_seeds(seed, index))]


def cells(exp) -> int:
    return exp.reps * exp.points.size * len(exp.schedulers)


def reference(exp) -> dict[str, dict[str, np.ndarray]]:
    """The grid evaluated cell by cell through the scalar scheduler entries.

    Independent of the engine's batching, memo and assembly: each cell
    rebuilds its instance from the task's seed and calls the registry
    entry directly, the definition the batch path must reproduce.
    """
    from repro.core.registry import get_entry
    from repro.experiments.engine import generate_tasks

    data = {name: {m: np.empty((exp.reps, exp.points.size)) for m in exp.metrics}
            for name in exp.schedulers}
    for task in generate_tasks(exp):
        workload, platform = exp.factory(
            task.point, np.random.default_rng(task.instance_seed))
        schedule = get_entry(task.scheduler)(
            workload, platform, np.random.default_rng(task.scheduler_seed))
        for metric, fn in exp.metrics.items():
            data[task.scheduler][metric][task.rep, task.point_index] = fn(schedule)
    return data


def wrong_cells(result, ref) -> int:
    """Cells where any metric differs from the reference beyond the tolerance."""
    wrong = 0
    for name, per_metric in ref.items():
        ok = np.all([stats.close_array(result.data[name][m], want)
                     for m, want in per_metric.items()], axis=0)
        wrong += int((~ok).sum())
    return wrong


@contextlib.contextmanager
def traced_grid(tracer: Tracer):
    """Time ``generate_tasks`` where ``run_experiment`` calls it."""
    import repro.experiments.runner as runner

    original = runner.generate_tasks
    runner.generate_tasks = tracer.wrap(original, "experiments.grid")
    try:
        yield
    finally:
        runner.generate_tasks = original


def traced_copy(exp, tracer: Tracer):
    return dataclasses.replace(
        exp,
        factory=tracer.wrap(exp.factory, "workloads.factory"),
        metrics={m: tracer.wrap(fn, "core.metric") for m, fn in exp.metrics.items()},
    )


def one_pass(exps, refs, out: Outcome, run_experiment, tracer: Tracer | None = None,
             tag: str = "", calibration: list[float] | None = None):
    """Run every grid once; returns (pass seconds, per-grid seconds).

    With *calibration*, the host calibration is timed after every grid.
    """
    grid_s = []
    t_pass = perf_counter()
    for exp, ref in zip(exps, refs):
        t0 = perf_counter()
        if tracer is None:
            result = run_experiment(exp, backend="serial", use_cache=False)
        else:
            tracer.group = f"{tag}{exp.experiment_id}"
            result = tracer.call("experiments.run", run_experiment, exp,
                                 backend="serial", use_cache=False)
        grid_s.append(perf_counter() - t0)
        out.attempted += cells(exp)
        out.failed += wrong_cells(result, ref)
        if calibration is not None:
            calibration.append(common.calibration_s())
    return perf_counter() - t_pass, grid_s


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    from repro.experiments.runner import run_experiment

    sets = [experiments(seed, k) for k in range(FIGURE_SEED_SETS)]
    refs = [[reference(e) for e in exps] for exps in sets]
    per_pass_cells = sum(cells(e) for e in sets[0])
    out.note(f"figures: 18 grids x {FIGURE_REPS} reps = {per_pass_cells} cells per pass, "
             f"passes cycling through {FIGURE_SEED_SETS} seed sets")

    if trace:
        return _run_traced(sets[0], refs[0], seconds, out, run_experiment, per_pass_cells)

    setup = common.SetupTimer(lambda: common.time_ready(SETUP_CODE),
                              "launch to `import repro.cli` and the figure modules done")
    setup.sample(3)
    # per_grid[k][g]: grid g of seed set k, one time per pass over that set.
    per_grid = [[[] for _ in exps] for exps in sets]
    calibration = [common.calibration_s()]
    start = perf_counter()
    k = 0
    while k < len(sets) or perf_counter() - start < seconds:
        _, grid_s = one_pass(sets[k % len(sets)], refs[k % len(sets)], out, run_experiment,
                             calibration=calibration)
        for times, t in zip(per_grid[k % len(sets)], grid_s):
            times.append(t)
        k += 1
        if k % len(sets) == 0:
            # One set-up sample per seed-set cycle, kept off the clock.
            paused = perf_counter()
            setup.sample()
            start += perf_counter() - paused
    setup.fill()
    slow = common.host_speed(calibration)
    grid_ms = [1e3 * t for per_set in per_grid for times in per_set for t in times]
    tail = stats.tail(grid_ms)
    # Each grid's median over its passes, so one slow pass moves nothing.
    busy = sum(stats.median(t) for per_set in per_grid for t in per_set)
    raw_ops, raw_p50 = len(sets) * per_pass_cells / busy, stats.median(grid_ms)
    out.metrics = {
        "setup_s": setup.value(),
        "ops_per_s": raw_ops * slow,
        "p50_ms": raw_p50 / slow,
        "p99_ms": tail.value / slow,
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    out.note(f"ops_per_s = cells / sum of each grid's median time over {k} passes")
    out.note(f"host {slow:.3f}x the reference host's time ({len(calibration)} "
             f"calibrations): as measured, ops_per_s {raw_ops:.6g}, p50_ms {raw_p50:.6g}")
    out.note(f"p50_ms/p99_ms = figure-grid latency; p99_ms is p{tail.q:.2f} "
             f"of {tail.samples} grids, {tail.beyond} beyond")
    out.note(setup.describe())
    return out


def _run_traced(exps, refs, seconds, out, run_experiment, per_pass_cells) -> Outcome:
    tracer = Tracer()
    traced_exps = [traced_copy(e, tracer) for e in exps]
    plain_s, traced_s = [], []
    start = perf_counter()
    k = 0
    while not traced_s or perf_counter() - start < seconds:
        plain_s.append(one_pass(exps, refs, out, run_experiment)[0])
        with traced_registry(tracer), traced_grid(tracer):
            traced_s.append(one_pass(traced_exps, refs, out, run_experiment,
                                     tracer, tag=f"pass{k}/")[0])
        k += 1
    totals = tracer.totals()

    def per_pass(name, idx):
        return totals.get(name, (0, 0.0, 0.0))[idx] / k

    out.metrics = layer_defaults()
    out.metrics.update(common.import_profile())
    out.metrics.update({
        "experiments.cells": per_pass_cells,
        "experiments.grid_s": per_pass("experiments.grid", 1),
        "experiments.other_s": per_pass("experiments.run", 2),
        "workloads.factory_s": per_pass("workloads.factory", 2),
        "workloads.factory_calls": per_pass("workloads.factory", 0),
        "core.batch_s": per_pass("core.batch", 2),
        "core.batch_calls": per_pass("core.batch", 0),
        "core.batch_rows": tracer.counters.get("core.batch_rows", 0) / k,
        "core.scalar_s": per_pass("core.scalar", 2),
        "core.scalar_calls": per_pass("core.scalar", 0),
        "core.metric_s": per_pass("core.metric", 2),
        "core.metric_calls": per_pass("core.metric", 0),
        "trace.overhead_pct": 100.0 * (stats.median(traced_s) / stats.median(plain_s) - 1.0),
    })
    tracer.dump(common.OUT / "trace-figures.json")
    out.note(f"{k} untraced and {k} traced passes; layer times are self "
             "seconds per pass")
    return out
