"""online_chaos: clean online run, fault-injected run and audit per scenario.

A scenario is one (seed, napps, policy) triple: ``simulate_online``
without faults, then ``FaultSpec.compile`` + ``run_chaos`` under the
churn + crash spec, then ``check_invariants``.  This is the scalar
core used once per event (the policy re-solves the shrinking instance
at every arrival, completion and fault).  An op is one
re-solve, i.e. one call of the allocation hook the kernel makes at
each event (arrival, completion, fault): the response time of the
online scheduler.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import numpy as np

import common
import stats
from inputs import CHAOS_FAULTS, CHAOS_NAPPS, CHAOS_POLICIES, chaos_scenarios
from outcome import Outcome, layer_defaults
from tracing import Tracer, traced_registry

SETUP_CODE = "import repro.cli\nimport repro.chaos\nimport repro.online"

#: Scenario sets per second of --seconds.  The count depends on the
#: arguments only, never on the machine's speed, so counts such as
#: simulate.events repeat exactly.  A set takes ~2.5 s on a 2-vCPU
#: host, so each of the two passes takes about --seconds; fewer sets
#: would let the seed's draw of workloads dominate the spread.
SETS_PER_SECOND = 0.4
#: Re-solves whose latency p50_ms and p99_ms report.  ``fair`` is a
#: closed-form builtin that never enters the scheduler registry; its
#: re-solves are counted in ops_per_s and their p50 is printed.
LATENCY_POLICY = "dominant-minratio"
#: Every VERIFY_STRIDE-th re-solve of a checked pass is recomputed
#: independently (~0.7 ms each).  A wrong allocator is wrong on many
#: re-solves, and checking all ~17k would add ~12 s to every run.
VERIFY_STRIDE = 4


def scenario_list(seed: int, seconds: float):
    sets = max(1, round(seconds * SETS_PER_SECOND))
    return [sc for j in range(sets) for sc in chaos_scenarios(seed, j)]


class Resolves:
    """Per re-solve: its seconds and its policy, in kernel call order.

    With ``keep_calls`` every VERIFY_STRIDE-th call's inputs and outputs
    are copied into :attr:`calls` (outside the timed region) for
    :func:`count_wrong`.
    """

    def __init__(self, keep_calls: bool = False):
        self.seconds: list[float] = []
        self.policy: list[str] = []
        self.calls: list[tuple] | None = [] if keep_calls else None


@contextlib.contextmanager
def timed_allocators(sink: Resolves):
    """Record the duration of every allocation-hook call (one per event).

    ``make_policy_allocator`` is the single policy seam of both
    ``simulate_online`` and ``run_chaos``; the hooks it returns are
    wrapped with two clock reads each.
    """
    import repro.chaos.runner as runner
    import repro.online.engine as engine

    original = engine.make_policy_allocator

    def make(workload, platform, policy, **kwargs):
        allocate = original(workload, platform, policy, **kwargs)

        def timed(now, active, seq_left, par_left):
            t0 = perf_counter()
            out = allocate(now, active, seq_left, par_left)
            sink.seconds.append(perf_counter() - t0)
            sink.policy.append(policy)
            if sink.calls is not None and len(sink.seconds) % VERIFY_STRIDE == 1:
                sink.calls.append((workload, platform, policy, active.copy(),
                                   seq_left.copy(), par_left.copy(),
                                   np.array(out[0]), np.array(out[1])))
            return out
        return timed

    engine.make_policy_allocator = runner.make_policy_allocator = make
    try:
        yield
    finally:
        engine.make_policy_allocator = runner.make_policy_allocator = original


def expected_allocation(workload, platform, policy, active, seq_left, par_left):
    """(procs, access-cost factors) one re-solve must return, computed apart.

    ``fair`` is the paper's Fair baseline: equal processors and cache
    shares proportional to access frequency.  A registered policy
    re-solves the snapshot of the active applications, each carrying its
    remaining work and that remainder's sequential fraction, through
    the registry's batch path (``schedule_batch``), not the scalar
    entry the kernel calls.
    """
    from repro.core.application import Workload
    from repro.core.execution import access_cost_factor
    from repro.core.registry import schedule_batch

    idx = np.flatnonzero(active)
    procs, cache = np.zeros(workload.n), np.zeros(workload.n)
    if idx.size and policy == "fair":
        procs[idx] = platform.p / idx.size
        freq = workload.freq[idx]
        cache[idx] = freq / freq.sum() if freq.sum() > 0 else 1.0 / idx.size
    elif idx.size:
        work = seq_left[idx] + par_left[idx]
        snapshot = Workload(workload[int(i)].scaled(work=float(w), seq_fraction=float(s / w))
                            for i, w, s in zip(idx, work, seq_left[idx]))
        schedule = schedule_batch(policy, [(snapshot, platform)])[0]
        procs[idx], cache[idx] = schedule.procs, schedule.cache
    return procs, access_cost_factor(workload, platform, cache)


def count_wrong(calls) -> int:
    """Re-solves in *calls* whose output differs from :func:`expected_allocation`."""
    wrong = 0
    for workload, platform, policy, active, seq_left, par_left, procs, factors in calls:
        want_procs, want_factors = expected_allocation(
            workload, platform, policy, active, seq_left, par_left)
        if not (stats.close_array(procs, want_procs).all()
                and stats.close_array(factors, want_factors).all()):
            wrong += 1
    return wrong


def evaluate(sc, tracer: Tracer | None = None):
    """Run one scenario; returns (checked outputs, events, invariant failures)."""
    from repro.chaos import check_invariants, estimate_horizon, parse_fault_spec, run_chaos
    from repro.machine.presets import get_preset
    from repro.online import simulate_online

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    platform = get_preset("taihulight")
    clean = call("online.clean", simulate_online, sc.workload, platform,
                 sc.arrivals, policy=sc.policy)
    horizon = estimate_horizon(sc.workload, platform, sc.arrivals)
    faults = call("chaos.compile", parse_fault_spec(CHAOS_FAULTS).compile,
                  sc.workload.n, platform.p, horizon,
                  np.random.default_rng(sc.fault_seed))
    result = call("chaos.run", run_chaos, sc.workload, platform, sc.arrivals,
                  faults=faults, policy=sc.policy, horizon=horizon)
    report = call("chaos.audit", check_invariants, result)
    outputs = {
        "clean_makespan": clean.makespan,
        "clean_finish": clean.finish_times,
        "makespan": result.makespan,
        "goodput": result.goodput,
        "crashes": result.crashes,
    }
    return outputs, clean.events + result.events, len(report.failures)


def one_pass(scenarios, refs, out: Outcome, tracer: Tracer | None = None,
             calibration: list[float] | None = None,
             resolves: Resolves | None = None):
    """Evaluate every scenario, checked against *refs* when given.

    With *calibration*, the host calibration is timed after every
    scenario, so its samples follow the host through the pass.
    When *resolves* keeps its calls, each scenario's re-solves are
    checked against :func:`expected_allocation` after the scenario's
    timing ends.  Returns (outputs, seconds per scenario, kernel events).
    """
    outputs, seconds, events = [], [], 0
    for k, sc in enumerate(scenarios):
        if tracer is not None:
            tracer.group = sc.key
        start = perf_counter()
        got, n_events, failures = evaluate(sc, tracer)
        seconds.append(perf_counter() - start)
        outputs.append(got)
        events += n_events
        out.attempted += 1
        differs = refs is not None and not stats.same(got, refs[k])
        wrong_resolves = 0
        if resolves is not None and resolves.calls is not None:
            wrong_resolves = count_wrong(resolves.calls)
            resolves.calls.clear()
        if failures or differs or wrong_resolves:
            out.failed += 1
            out.note(f"WRONG {sc.key}: {failures} invariant failures, "
                     f"{wrong_resolves} wrong re-solves, "
                     f"differs from the reference: {differs}")
        if tracer is not None:
            tracer.count("chaos.invariant_failures", failures)
        if calibration is not None:
            calibration.append(common.calibration_s())
    return outputs, seconds, events


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    scenarios = scenario_list(seed, seconds)
    out.note(f"online_chaos: {len(scenarios)} scenarios per pass "
             f"({len(scenarios) // 4} seeds x napps 16, 24 x dominant-minratio, fair)")
    if trace:
        return _run_traced(scenarios, out)

    # Two identical passes, both timed.  Every re-solve of the first is
    # checked against an independent computation, and the first pass is
    # the reference for the second.  Each scenario and each re-solve
    # keeps the faster of its two timings, which drops transient host
    # noise from both.
    setup = common.SetupTimer(lambda: common.time_ready(SETUP_CODE),
                              "launch to `import repro.cli`, chaos and online done")
    setup.sample(2)
    resolve = [Resolves(keep_calls=True), Resolves()]
    calibration = [common.calibration_s()]
    with timed_allocators(resolve[0]):
        refs, first_s, events = one_pass(scenarios, None, out, calibration=calibration,
                                         resolves=resolve[0])
    setup.sample(2)
    with timed_allocators(resolve[1]):
        _, second_s, _ = one_pass(scenarios, refs, out, calibration=calibration)
    setup.fill()
    slow = common.host_speed(calibration)
    first, second = (np.array(r.seconds) for r in resolve)
    if resolve[0].policy != resolve[1].policy:
        raise RuntimeError("the two passes made different re-solves")
    policy = np.array(resolve[1].policy)
    resolve_ms = 1e3 * np.minimum(first, second)
    dominant_ms = resolve_ms[policy == LATENCY_POLICY]
    pass_s = float(np.minimum(first_s, second_s).sum())
    tail = stats.tail(dominant_ms)
    raw_ops, raw_p50 = len(policy) / pass_s, stats.median(dominant_ms)
    out.metrics = {
        "setup_s": setup.value(),
        "ops_per_s": raw_ops * slow,
        "p50_ms": raw_p50 / slow,
        "p99_ms": tail.value / slow,
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    counts = ", ".join(f"{name} {int((policy == name).sum())}" for name in CHAOS_POLICIES)
    out.note(f"ops_per_s = re-solves/s: {len(policy)} re-solves per pass ({counts}; "
             f"{events} kernel events) in {pass_s:.2f} s, the sum of each scenario's "
             f"faster pass; {len(scenarios) / pass_s:.3f} audited scenarios/s")
    out.note(f"host {slow:.3f}x the reference host's time ({len(calibration)} "
             f"calibrations): as measured, ops_per_s "
             f"{raw_ops:.6g}, p50_ms {raw_p50:.6g}")
    out.note(f"p50_ms/p99_ms = latency of the {len(dominant_ms)} {LATENCY_POLICY} "
             f"re-solves, the faster of the two passes per re-solve; p99_ms is "
             f"p{tail.q:.2f}, {tail.beyond} beyond; fair re-solves p50 "
             f"{stats.median(resolve_ms[policy == 'fair']) / slow:.4g} ms")
    out.note(setup.describe())
    return out


def _run_traced(scenarios, out: Outcome) -> Outcome:
    tracer = Tracer()
    checked = Resolves(keep_calls=True)
    with timed_allocators(checked):
        refs, plain, _ = one_pass(scenarios, None, out, resolves=checked)
    with traced_registry(tracer):
        _, traced, events = one_pass(scenarios, refs, out, tracer)
    # The median of per-scenario ratios: one slow burst of the host
    # during either pass moves a few scenarios, not the result.
    overhead = stats.median([t / p for t, p in zip(traced, plain)])
    totals = tracer.totals()
    n = len(scenarios)

    def mean(name, idx=2):
        return totals.get(name, (0, 0.0, 0.0))[idx] / n

    out.metrics = layer_defaults()
    out.metrics.update(common.import_profile())
    out.metrics.update({
        "chaos.compile_s": mean("chaos.compile"),
        "online.clean_s": mean("online.clean"),
        "chaos.run_s": mean("chaos.run"),
        "chaos.audit_s": mean("chaos.audit"),
        "simulate.events": events,
        "chaos.invariant_failures": tracer.counters.get("chaos.invariant_failures", 0),
        "core.scalar_s": mean("core.scalar"),
        "core.scalar_calls": mean("core.scalar", 0),
        "trace.overhead_pct": 100.0 * (overhead - 1.0),
    })
    tracer.dump(common.OUT / "trace-online_chaos.json")
    out.note("layer times are self seconds per scenario; simulate.events per pass; "
             "trace.overhead_pct from the median traced/untraced ratio per scenario")
    return out
