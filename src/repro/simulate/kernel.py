"""The one discrete-event kernel behind every simulation clock.

Before this module the repository carried three independently
hand-rolled time-stepping loops — the offline phase loop
(:func:`repro.simulate.simulate_schedule`), the online arrival loop
(:func:`repro.online.simulate_online`), and the batch-queue recurrence
(:func:`repro.pipeline.simulate_batch_queue`) — each with its own
subtly different boundary handling.  That bred a whole family of
epsilon bugs: a phase residue tolerated by one loop but not another, a
relative-only arrival admission that degenerates at ``now == 0`` and
drifts at large ``now``, and a queue with no tolerance at all.  This
module is the single kernel all three are now thin adapters over.

Tolerance convention
--------------------
Every boundary decision in every clock uses **one** canonical combined
absolute + relative tolerance::

    tol(scale) = ABS_TOL + REL_TOL * |scale|

where *scale* is the natural magnitude of the quantity being compared:

* **phase transitions** compare remaining operations against zero with
  ``scale = `` the application's total work (a residue below one part
  in 10^12 of the work is rounding noise, not unfinished work);
* **arrival admission** compares an arrival instant against the clock
  with ``scale = now`` (an arrival within one part in 10^12 of the
  current instant — or within ``ABS_TOL`` of a clock still at zero —
  happens *now*);
* **queue boundaries** compare service starts against arrival instants
  with ``scale = `` the arrival instant.

The absolute term keeps the comparison meaningful at ``t == 0`` (a
purely relative tolerance admits nothing early there); the relative
term keeps it meaningful at large magnitudes (a purely absolute
tolerance vanishes next to ``t ~ 1e9``).  Use :func:`boundary_tol` /
:func:`at_or_before` rather than re-deriving epsilons locally.

Clock discipline
----------------
The phase clock *accumulates* (``now += dt``) while work is being
retired, and *jumps* (``now = t``) when idle — jumping to an arrival
instant keeps it exact, and the admission tolerance absorbs the
accumulated ulps when an arrival coincides with a completion event.
The queue clock works in absolute times (``finish = start + service``)
so a batch's latency is one subtraction, not an accumulation.

Hooks
-----
:func:`run_phase_kernel` is parameterized by

* an **arrival source**: the per-application arrival instants (zeros
  for an offline simulation; see :mod:`repro.online.arrivals` for
  generated and replayed streams),
* a **reallocation policy**: the ``allocate`` callback, invoked at
  every event with the active set and remaining work (static schedules
  return a fixed allocation; online policies re-solve the shrunken
  instance; work-conserving redistribution mutates its allocation from
  the ``on_complete`` callback),
* **phase transitions**: applied by the kernel itself with the
  canonical tolerance, recorded in the typed event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..types import ModelError

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "boundary_tol",
    "at_or_before",
    "Event",
    "EventLog",
    "PhaseKernelResult",
    "run_phase_kernel",
    "BatchPhaseKernelResult",
    "run_phase_kernel_batch",
    "QueueKernelResult",
    "run_queue_kernel",
]

#: Absolute component of the canonical boundary tolerance.
ABS_TOL: float = 1e-12

#: Relative component of the canonical boundary tolerance.
REL_TOL: float = 1e-12


def boundary_tol(scale: float = 0.0) -> float:
    """The canonical combined tolerance ``ABS_TOL + REL_TOL * |scale|``."""
    return ABS_TOL + REL_TOL * abs(scale)


def at_or_before(value, boundary, *, scale=None):
    """Tolerant ``value <= boundary`` (vectorized over *value*).

    *scale* defaults to *boundary* — the common case of asking whether
    an instant has been reached by a clock of that magnitude.
    """
    if scale is None:
        scale = boundary
    return value <= boundary + boundary_tol(scale)


#: Event kinds the kernel emits, in the order they can occur at one
#: instant: completions and phase exits before admissions.  The tail
#: kinds are the fault-injection events of :mod:`repro.chaos` —
#: appended (never reordered) because the queue kernel's chronological
#: merge keys on each kind's index in this tuple.
EVENT_KINDS: tuple[str, ...] = (
    "seq-done", "done", "arrival", "drop",
    "proc_join", "proc_leave", "crash", "restart", "preempt",
)


@dataclass(frozen=True, slots=True)
class Event:
    """One typed entry of the kernel's event log.

    Attributes
    ----------
    time : float
        Simulated instant.
    kind : str
        One of :data:`EVENT_KINDS`.
    index : int
        Application / batch index the event concerns.
    """

    time: float
    kind: str
    index: int

    def as_tuple(self) -> tuple[float, str, int]:
        return (self.time, self.kind, self.index)


class EventLog:
    """Chronological typed event log shared by every kernel run."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: list[Event] = []

    def record(self, time: float, kind: str, index: int) -> Event:
        if kind not in EVENT_KINDS:
            raise ModelError(f"unknown event kind {kind!r}; known: {EVENT_KINDS}")
        event = Event(float(time), kind, int(index))
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def since(self, start: int) -> list[Event]:
        """Events appended at or after position *start*.

        A cheap slice for incremental consumers (the chaos probes poll
        this once per allocation; materializing :attr:`events` there
        would be quadratic in the run length).
        """
        return self._events[start:]

    def sort(self) -> None:
        """Stable chronological re-order.

        The kernel itself appends in time order, but a consumer
        logging exogenous events lazily (the chaos injector's
        idle-gap catch-up) can append an event stamped earlier than
        one already recorded at the same allocation instant; one
        stable sort at the end restores the global order without
        touching same-instant insertion order.
        """
        self._events.sort(key=lambda e: e.time)

    def select(self, *kinds: str) -> tuple[Event, ...]:
        """Events of the given kinds, in log order.

        Unknown kinds raise :class:`~repro.types.ModelError`: a filter
        naming a kind outside :data:`EVENT_KINDS` would silently match
        nothing, which hid typos while the registered set was four
        entries and is outright dangerous now that fault injection adds
        five more.
        """
        for kind in kinds:
            if kind not in EVENT_KINDS:
                raise ModelError(
                    f"unknown event kind {kind!r}; known: {EVENT_KINDS}")
        return tuple(e for e in self._events if e.kind in kinds)

    def as_tuples(self, *kinds: str) -> list[tuple[float, str, int]]:
        """Legacy ``(time, kind, index)`` view, optionally filtered.

        Like :meth:`select`, raises on kinds not in :data:`EVENT_KINDS`.
        """
        selected = self.select(*kinds) if kinds else self._events
        return [e.as_tuple() for e in selected]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


#: Reallocation hook: ``allocate(now, active, seq_left, par_left) ->
#: (procs, factors)`` — full length-``n`` arrays; entries outside the
#: active set are ignored.  ``factors`` are per-operation access-cost
#: multipliers (> 0 for active applications).
AllocateFn = Callable[
    [float, np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray],
]

#: Completion hook: ``on_complete(index, now, alive)`` where *alive*
#: masks the applications still unfinished (arrived or not).  A
#: work-conserving adapter mutates its processor array here.
CompleteFn = Callable[[int, float, np.ndarray], None]

#: Exogenous timeline hook: ``timeline(now) -> float`` returns the next
#: instant strictly after *now* at which something outside the model
#: happens (a fault event, a metric-probe tick), or ``inf`` when none
#: is pending.  The kernel never advances the clock past it, so the
#: ``allocate`` hook is guaranteed to run at (within the canonical
#: tolerance of) every exogenous instant while work is in flight.
TimelineFn = Callable[[float], float]


@dataclass(frozen=True)
class PhaseKernelResult:
    """Outcome of a :func:`run_phase_kernel` run.

    Attributes
    ----------
    finish_times : numpy.ndarray
        Completion instant per application.
    events : int
        Kernel iterations processed (each handles one clock event:
        a phase boundary, a completion, or an arrival admission).
    log : EventLog
        The typed event log.
    usage : list[tuple[float, float]]
        ``(time, processors in use)`` sampled at every allocation —
        the in-use total holds until the next event.
    now : float
        Final clock value.
    """

    finish_times: np.ndarray
    events: int
    log: EventLog
    usage: list[tuple[float, float]] = field(repr=False)
    now: float = 0.0


def run_phase_kernel(
    work: np.ndarray,
    seq_work: np.ndarray,
    par_work: np.ndarray,
    *,
    allocate: AllocateFn,
    arrivals: np.ndarray | None = None,
    on_complete: CompleteFn | None = None,
    timeline: TimelineFn | None = None,
    max_events: int | None = None,
    budget_message: str = "simulation exceeded its event budget",
    log: EventLog | None = None,
) -> PhaseKernelResult:
    """Run the two-phase (sequential then parallel) event clock.

    Each event costs one allocation plus a fixed number of array
    passes over the ``n`` applications: the phase-boundary tolerances
    ``ABS_TOL + REL_TOL * |work|`` are computed once per run, and the
    applications crossing a boundary are found with masks, so Python
    loops only over the crossings (logged in index order, each ``seq-done``
    before its ``done``, with ``on_complete`` run right after each
    ``done``).

    Parameters
    ----------
    work : numpy.ndarray
        Total operations per application — the scale of each
        application's phase-boundary tolerance.
    seq_work, par_work : numpy.ndarray
        Initial remaining operations of the sequential / parallel
        phase (copied; the caller's arrays are not mutated).
    allocate : AllocateFn
        Reallocation hook, invoked on every event with the active set.
        Progress rates follow Eq. 2's convention: ``1 / factor`` during
        the sequential phase (for applications actually holding
        processors; an application allocated none stalls), ``procs /
        factor`` during the parallel phase.
    arrivals : numpy.ndarray, optional
        Per-application arrival instants; admission uses the canonical
        tolerance at the clock's scale.  ``None`` means everyone is
        present from the start (the offline convention: no admission
        events at all, not even at ``t == 0``).
    on_complete : CompleteFn, optional
        Invoked when an application finishes, before the next event.
    timeline : TimelineFn, optional
        Source of exogenous breakpoints (fault events, probe ticks):
        while work is in flight the step never crosses
        ``timeline(now)``, so ``allocate`` observes every exogenous
        instant.  During an idle gap (nothing arrived and unfinished)
        the clock still jumps straight to the next arrival — exogenous
        state is owned by the caller, who applies idle-gap events
        lazily (see :class:`repro.chaos.FaultInjector`).
    max_events : int, optional
        Event budget; exceeding it raises :class:`ModelError` with
        *budget_message*.  Defaults to ``20 * n + 10``.
    log : EventLog, optional
        Log to append to (a fresh one is created by default).
    """
    work = np.asarray(work, dtype=np.float64)
    n = work.size
    tol = ABS_TOL + REL_TOL * np.abs(work)
    seq_left = np.asarray(seq_work, dtype=np.float64).copy()
    par_left = np.asarray(par_work, dtype=np.float64).copy()
    if arrivals is None:
        # Everyone present from the start: no admission events, no
        # admission iteration — the offline convention.
        arrivals = np.zeros(n)
        arrived = np.ones(n, dtype=bool)
    else:
        arrivals = np.asarray(arrivals, dtype=np.float64)
        arrived = np.zeros(n, dtype=bool)
    finished = np.zeros(n, dtype=bool)
    finish = np.zeros(n)
    if log is None:
        log = EventLog()
    usage: list[tuple[float, float]] = []

    now = 0.0
    events = 0
    limit = max_events if max_events is not None else 20 * n + 10

    while not finished.all():
        events += 1
        if events > limit:
            raise ModelError(budget_message)
        active = arrived & ~finished
        pending = ~arrived
        next_arrival = float(arrivals[pending].min()) if pending.any() else np.inf

        if not active.any():
            # Idle: jump the clock straight to the next arrival (an
            # exact assignment, not an accumulation).
            usage.append((now, 0.0))
            now = next_arrival
            newly = pending & at_or_before(arrivals, now)
            arrived |= newly
            for i in np.flatnonzero(newly):
                log.record(now, "arrival", i)
            continue

        procs, factors = allocate(now, active, seq_left, par_left)
        usage.append((now, float(procs[active].sum())))

        # Progress rates and per-application time to the next phase
        # boundary.  A queued application (no processors) stalls.
        in_seq = active & (seq_left > 0.0)
        in_par = active & (seq_left <= 0.0)
        rate = np.zeros(n)
        held = procs > 0.0
        sel = in_seq & held
        rate[sel] = 1.0 / factors[sel]
        rate[in_par] = procs[in_par] / factors[in_par]
        remaining = np.where(in_seq, seq_left, par_left)
        running = active & (rate > 0.0)
        dt_finish = np.full(n, np.inf)
        dt_finish[running] = remaining[running] / rate[running]
        next_exo = np.inf if timeline is None else float(timeline(now))
        dt = min(float(dt_finish.min()), next_arrival - now, next_exo - now)
        if not np.isfinite(dt):
            raise ModelError(
                "kernel stalled: no running application, pending arrival, "
                "or exogenous event can advance the clock"
            )
        dt = max(dt, 0.0)
        now += dt

        # Advance everyone by dt.
        progress = rate * dt
        seq_left = np.where(in_seq, np.maximum(seq_left - progress, 0.0), seq_left)
        par_left = np.where(in_par, np.maximum(par_left - progress, 0.0), par_left)

        # Phase transitions, with the canonical tolerance at the scale
        # of each application's total work.  Only the crossings are
        # visited, in index order: on_complete sees ``finished`` grow
        # one application at a time.
        crossed = in_seq & (seq_left <= tol)
        seq_left[crossed] = 0.0
        done = active & (seq_left == 0.0) & (par_left <= tol)
        for i in np.flatnonzero(crossed | done):
            if crossed[i]:
                log.record(now, "seq-done", i)
            if done[i]:
                par_left[i] = 0.0
                finished[i] = True
                finish[i] = now
                log.record(now, "done", i)
                if on_complete is not None:
                    on_complete(int(i), now, ~finished)

        # Admissions (after completions: an arrival coinciding with a
        # completion event joins the system the moment it frees up).
        newly = pending & at_or_before(arrivals, now)
        if newly.any():
            arrived |= newly
            for i in np.flatnonzero(newly):
                log.record(now, "arrival", i)

    return PhaseKernelResult(
        finish_times=finish,
        events=events,
        log=log,
        usage=usage,
        now=now,
    )


@dataclass(frozen=True)
class BatchPhaseKernelResult:
    """Outcome of a :func:`run_phase_kernel_batch` run.

    Attributes
    ----------
    finish_times : numpy.ndarray
        Completion instant per cell, shape ``(B, N)``; zeros in
        padding.
    events : numpy.ndarray
        Kernel iterations each row consumed, shape ``(B,)`` — equal to
        the scalar kernel's ``events`` for the same instance.
    now : numpy.ndarray
        Final per-row clock values, shape ``(B,)``.
    """

    finish_times: np.ndarray
    events: np.ndarray
    now: np.ndarray


def run_phase_kernel_batch(
    work: np.ndarray,
    seq_work: np.ndarray,
    par_work: np.ndarray,
    *,
    procs: np.ndarray,
    factors: np.ndarray,
    valid: np.ndarray | None = None,
    max_events: int | np.ndarray | None = None,
    budget_message: str = "simulation exceeded its event budget",
) -> BatchPhaseKernelResult:
    """Advance ``B`` static-allocation phase clocks in lockstep.

    The batched twin of :func:`run_phase_kernel` for its hot special
    case — everyone present from the start (no arrivals) and a fixed
    allocation (no reallocation or completion hooks): each global
    iteration advances every still-running row by that row's own next
    event, exactly as the scalar loop would, so per-row finish times,
    clocks, and event counts are **bit-identical** to running the
    scalar kernel row by row (same elementwise rate/progress
    expressions, per-row minima over the same values, and dt == 0.0
    no-op advances once a row is done).

    Parameters
    ----------
    work, seq_work, par_work : numpy.ndarray
        ``(B, N)`` padded arrays (see :class:`repro.core.batch.BatchProblem`);
        *work* sets each cell's phase-boundary tolerance scale.
    procs, factors : numpy.ndarray
        Static per-cell processor allocation and Eq. 2 access factors.
    valid : numpy.ndarray, optional
        Boolean ``(B, N)`` mask of real cells; padding is treated as
        finished from the start.  Default: everything valid.
    max_events : int or numpy.ndarray, optional
        Per-row event budget (broadcast from a scalar); exceeding it
        raises :class:`ModelError` with *budget_message*.  Defaults to
        ``20 * n_row + 10``.
    """
    work = np.asarray(work, dtype=np.float64)
    if work.ndim != 2:
        raise ModelError(
            f"batch kernel expects (B, N) arrays, got shape {work.shape}")
    B, n = work.shape
    seq_left = np.asarray(seq_work, dtype=np.float64).copy()
    par_left = np.asarray(par_work, dtype=np.float64).copy()
    procs = np.asarray(procs, dtype=np.float64)
    factors = np.asarray(factors, dtype=np.float64)
    if valid is None:
        valid = np.ones((B, n), dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)
    counts = valid.sum(axis=1)
    if max_events is None:
        limits = 20 * counts + 10
    else:
        limits = np.broadcast_to(np.asarray(max_events), (B,))
    tol = ABS_TOL + REL_TOL * np.abs(work)

    finished = ~valid  # padding is done before the clock starts
    finish = np.zeros((B, n))
    now = np.zeros(B)
    events = np.zeros(B, dtype=np.intp)

    while True:
        live = ~finished.all(axis=1)
        if not live.any():
            break
        events = np.where(live, events + 1, events)
        if (live & (events > limits)).any():
            raise ModelError(budget_message)
        active = valid & ~finished

        # Rates, exactly as the scalar kernel: one-processor speed in
        # the sequential phase (only while holding processors),
        # Amdahl-parallel speed after.
        in_seq = active & (seq_left > 0.0)
        in_par = active & (seq_left <= 0.0)
        rate = np.zeros((B, n))
        sel = in_seq & (procs > 0.0)
        rate[sel] = 1.0 / factors[sel]
        rate[in_par] = procs[in_par] / factors[in_par]
        remaining = np.where(in_seq, seq_left, par_left)
        running = active & (rate > 0.0)
        dt_finish = np.full((B, n), np.inf)
        dt_finish[running] = remaining[running] / rate[running]
        dt = np.maximum(dt_finish.min(axis=1), 0.0)
        dt = np.where(live, dt, 0.0)
        now = now + dt

        # Advance, then apply phase transitions with the canonical
        # per-cell tolerance.
        progress = rate * dt[:, None]
        seq_left = np.where(
            in_seq, np.maximum(seq_left - progress, 0.0), seq_left)
        par_left = np.where(
            in_par, np.maximum(par_left - progress, 0.0), par_left)
        seq_left = np.where(in_seq & (seq_left <= tol), 0.0, seq_left)
        done = active & (seq_left == 0.0) & (par_left <= tol)
        par_left = np.where(done, 0.0, par_left)
        finish = np.where(done, now[:, None], finish)
        finished |= done

    return BatchPhaseKernelResult(finish_times=finish, events=events, now=now)


@dataclass(frozen=True)
class QueueKernelResult:
    """Outcome of a :func:`run_queue_kernel` run.

    Attributes
    ----------
    starts, finishes, latencies : numpy.ndarray
        Per *admitted* batch, in arrival order.
    dropped : int
        Batches rejected by the finite buffer.
    max_depth : int
        Largest number of batches waiting (excluding the one in
        service), sampled at arrival instants.
    log : EventLog
        Typed log of ``arrival``/``drop``/``done`` events.
    """

    starts: np.ndarray
    finishes: np.ndarray
    latencies: np.ndarray
    dropped: int
    max_depth: int
    log: EventLog


def run_queue_kernel(
    arrivals: Sequence[float] | np.ndarray,
    service: Sequence[float] | np.ndarray,
    *,
    buffer_capacity: int | None = None,
    log: EventLog | None = None,
) -> QueueKernelResult:
    """Single-server FIFO queue with an optional finite buffer.

    The queue clock works in absolute times: batch *k* starts at
    ``max(arrival_k, finish_{k-1})`` and finishes one addition later,
    so latencies carry no accumulated stepping error.  Boundary
    decisions (has a queued batch started by this arrival instant?)
    use the canonical kernel tolerance at the arrival's scale.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    service = np.asarray(service, dtype=np.float64)
    if log is None:
        log = EventLog()

    starts: list[float] = []
    finishes: list[float] = []
    latencies: list[float] = []
    pending_events: list[tuple[float, str, int]] = []
    dropped = 0
    max_depth = 0
    server_free_at = 0.0

    for k, (arr, svc) in enumerate(zip(arrivals, service)):
        # Queue depth at this arrival: admitted batches whose service
        # has not started yet (tolerantly: a batch starting within
        # tol of this very instant has started).
        depth = sum(1 for s in starts if not at_or_before(s, arr))
        max_depth = max(max_depth, depth)
        server_busy = not at_or_before(server_free_at, arr)
        if buffer_capacity is not None and depth >= buffer_capacity and server_busy:
            dropped += 1
            pending_events.append((arr, "drop", k))
            continue
        pending_events.append((arr, "arrival", k))
        start = max(arr, server_free_at)
        finish = start + svc
        starts.append(start)
        finishes.append(finish)
        latencies.append(finish - arr)
        server_free_at = finish
        pending_events.append((finish, "done", k))

    # The pass visits batches in arrival order, but a completion can
    # postdate later arrivals; merge into the log chronologically
    # (ties: completions before admissions, per EVENT_KINDS).
    for time, kind, k in sorted(
            pending_events, key=lambda e: (e[0], EVENT_KINDS.index(e[1]))):
        log.record(time, kind, k)

    return QueueKernelResult(
        starts=np.asarray(starts),
        finishes=np.asarray(finishes),
        latencies=np.asarray(latencies),
        dropped=dropped,
        max_depth=max_depth,
        log=log,
    )
