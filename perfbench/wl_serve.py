"""serve_mixed: open-loop mixed traffic against ``repro serve --async --workers 1``.

The server runs in its own process.  Requests arrive as a Poisson
process from this process over 16 pipelined keep-alive connections.
80% repeat a Zipf-drawn hot set and become cache hits; the rest are
unique bodies (schedulers and sizes drawn as the paper's figure grids
use them) that pay decode, fingerprint, batcher, dispatcher,
scheduling, encode and a cache put, with evictions once the cache is
full.  Phases, in order: warm-up, the reference rate (p50/p99), then
the offered-rate ladder (knee), where a failing rung runs once more.
An op is one request; ``ops_per_s`` is the knee.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
from time import perf_counter, sleep

import numpy as np

import common
import loadgen
import stats
from inputs import ServeInputs
from outcome import Outcome, layer_defaults
from tracing import Tracer, traced_registry

HOST = "127.0.0.1"

#: Reference rate (req/s) for p50/p99: the server busy about a quarter
#: of the time, below the rate where dispatcher threads hold the
#: interpreter lock most of the time and every request waits.
REF_RATE = 300.0
#: The reference rate runs as REF_WINDOWS windows of REF_SAMPLES
#: requests, each reported on its own; p50 and p99 are taken over all.
REF_WINDOWS = 3
REF_SAMPLES = 1020
#: Offered-rate ladder for the knee (req/s) and its p99 limit.  It is
#: climbed SWEEPS times, each sweep stopping at its first rung that
#: fails twice in a row (with fresh unique bodies the second time), so
#: one burst of host noise cannot end the ladder early.  Rungs share what --seconds leaves after the
#: reference phases as if EXPECTED_RUNGS of them ran per sweep, but
#: last at least MIN_RUNG_SECONDS.  The top rung is about twice the
#: knee measured on a 2-vCPU host (1600-2600 req/s, as the host's speed
#: drifted), so a capacity gain up to 2x reads as a number, not as the
#: ladder's end.
LADDER = tuple(float(rate) for rate in range(1200, 4801, 200))
SWEEPS = 1
EXPECTED_RUNGS = 5
MIN_RUNG_SECONDS = 1.5
P99_LIMIT_MS = 250.0
WARM_SECONDS = 1.0
#: Requests replayed in-process by the traced run.
REPLAY_REQUESTS = 1000

_PORT = re.compile(rb"listening on http://[^:]+:(\d+)")


#: A busy loop in the lowest scheduling class (SCHED_IDLE): it runs only
#: on a CPU that would otherwise idle, and yields at once to any other
#: thread.
_SPINNER = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while True:
    pass
"""


@contextlib.contextmanager
def cpus_awake():
    """Keep idle CPUs from halting while the reference rate is measured.

    At 300 req/s the server idles between requests, and each request
    then pays its vCPU's wake-up, which on a shared host varied by 2x
    from run to run.  One spinner per CPU besides the generator's (at
    most 3) takes that idle time instead, so p50 measures the program.
    """
    count = max(1, min(len(os.sched_getaffinity(0)) - 1, 3))
    procs = [subprocess.Popen([sys.executable, "-c", _SPINNER]) for _ in range(count)]
    try:
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()


def phase_plan(seconds: float) -> list[tuple[str, float, float]]:
    ref = REF_SAMPLES / REF_RATE
    rung = max(MIN_RUNG_SECONDS,
               (seconds - REF_WINDOWS * ref) / (SWEEPS * EXPECTED_RUNGS))
    # Each rung takes two slots: the attempt and its retry, which runs
    # only when the attempt fails.
    return ([("warm", REF_RATE, WARM_SECONDS)] + [("ref", REF_RATE, ref)] * REF_WINDOWS
            + [(f"sweep{k}", r, rung) for k in range(SWEEPS) for r in LADDER
               for _ in range(2)])


def rung_score(rate: float, p99: float, achieved: float) -> float:
    """The worse of a rung's two knee scores; the rung passes at <= 1."""
    backlog = stats.KEEP_UP * rate / achieved if achieved > 0 else np.inf
    return max(p99 / P99_LIMIT_MS, backlog)


class Server:
    """One ``repro serve --async --workers 1`` child process."""

    def __init__(self, tag: str):
        common.OUT.mkdir(parents=True, exist_ok=True)
        self.log = common.OUT / f"server-{tag}.log"
        start = perf_counter()
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--async", "--workers", "1",
                 "--host", HOST, "--port", "0"],
                cwd=common.ROOT, env=common.child_env(),
                stdout=subprocess.DEVNULL, stderr=err)
        try:
            self.port = self._await_port()
            loadgen.wait_healthy(HOST, self.port, alive=lambda: self.proc.poll() is None)
        except BaseException:
            self.stop()
            raise
        self.ready_s = perf_counter() - start

    def _await_port(self, timeout: float = 60.0) -> int:
        stop = perf_counter() + timeout
        while perf_counter() < stop:
            match = _PORT.search(self.log.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log.read_text()[-500:]}")
            sleep(0.002)
        raise TimeoutError("server never announced its port")

    def metrics(self) -> dict[str, float]:
        status, body = loadgen.get(HOST, self.port, "/metrics?format=json")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Oracle:
    """(fingerprint, decision payload) per body, computed in-process once.

    ``prepare`` runs before a phase is sent, so no oracle work overlaps
    the measurement.
    """

    def __init__(self, bodies: list[bytes]):
        self.bodies = bodies
        self.answers: dict[int, tuple[str, dict]] = {}

    def prepare(self, indices) -> None:
        from repro.service.dispatcher import compute_decision
        from repro.service.protocol import request_from_payload

        for i in indices:
            if i not in self.answers:
                request = request_from_payload(json.loads(self.bodies[i]))
                self.answers[i] = (request.fingerprint(),
                                   compute_decision(request).to_payload())

    def __getitem__(self, i: int) -> tuple[str, dict]:
        return self.answers[i]


def check(result: loadgen.PhaseResult, phase, answers, out: Outcome) -> np.ndarray:
    """Count failures; returns latencies in ms with every failure set to inf."""
    latency_ms = result.latency_s * 1e3
    for i, (status, body) in enumerate(zip(result.status, result.bodies)):
        out.attempted += 1
        ok = status == 200
        if ok:
            fingerprint, decision = answers[phase.body_index[i]]
            payload = json.loads(body)
            ok = (payload.get("request_id") == fingerprint
                  and stats.same(payload.get("decision"), decision))
        if not ok:
            out.failed += 1
            latency_ms[i] = np.inf
    return latency_ms


def achieved_rate(phase, latency_ms: np.ndarray) -> float:
    """The offered rate scaled by the share answered before the last request was due.

    Without a backlog only the requests in flight at the end are
    missing (a share of about mean latency / phase length); with one,
    the share falls to capacity / offered, so the result estimates the
    server's capacity.
    """
    answered = phase.due + latency_ms / 1e3 <= phase.due[-1]
    return phase.rate * float(answered.mean())


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    inputs = ServeInputs(seed, phase_plan(seconds))
    answers = Oracle(inputs.bodies)
    answers.prepare(range(inputs.hot))

    setup = common.SetupTimer(_server_ready_s, "launch to /healthz of the server")
    if not trace:
        setup.sample(2)
    server = Server("run")
    setup.samples.append(server.ready_s)
    try:
        hot = list(range(inputs.hot))
        warm = loadgen.run_phase(HOST, server.port, np.arange(len(hot)) * 2e-3,
                                 [loadgen.http_post("/v1/allocate", inputs.bodies[i])
                                  for i in hot])
        if (warm.status != 200).any():
            raise RuntimeError("hot-set warm-up failed")
        measured = _phases(server, inputs, answers, out)
    finally:
        server.stop()
    if not trace:
        setup.fill()
        out.note(setup.describe())
        measured["setup_s"] = setup.value()
        return _finish(out, measured)
    return _finish_traced(out, measured, inputs, answers)


def _server_ready_s() -> float:
    """Seconds from launching a server until it answers /healthz."""
    server = Server("probe")
    server.stop()
    return server.ready_s


def _phases(server: Server, inputs, answers, out: Outcome) -> dict:
    """Run warm-up, reference and ladder phases; returns raw measurements."""
    m: dict = {"sweeps": {}, "ref": [], "ref_lateness_p99": []}
    ended: set[str] = set()
    failed_attempt: tuple | None = None
    first_rung = next(k for k, (name, _, _) in enumerate(inputs.plan)
                      if name.startswith("sweep"))
    hits = total = 0
    awake_on = False
    with contextlib.ExitStack() as awake:
        for k, (name, _, _) in enumerate(inputs.plan):
            retry = k >= first_rung and (k - first_rung) % 2 == 1
            if name in ended or (retry and failed_attempt is None):
                continue
            phase = inputs.phase(k)
            answers.prepare(phase.body_index)
            if name in ("warm", "ref") and not awake_on:
                awake.enter_context(cpus_awake())
                awake_on = True
            elif name.startswith("sweep"):
                awake.close()
            hits += int((phase.body_index < inputs.hot).sum())
            total += len(phase.due)
            if phase.name == "ref" and not m["ref"]:
                m["metrics_before"] = server.metrics()
                m["cpu_before"] = common.proc_cpu_seconds(server.proc.pid)
            requests = [loadgen.http_post("/v1/allocate", inputs.bodies[i])
                        for i in phase.body_index]
            # The generator busy-polls at the reference rate so that its own
            # CPU never idles: otherwise every response pays a vCPU wake-up.
            result = loadgen.run_phase(HOST, server.port, phase.due, requests,
                                       spin=phase.name == "ref")
            latency_ms = check(result, phase, answers, out)
            lateness_p99 = stats.percentile(result.lateness_s * 1e3, 99)
            achieved = achieved_rate(phase, latency_ms)
            if phase.name == "ref":
                m["ref"].append(latency_ms)
                hot = phase.body_index < inputs.hot
                tail = stats.tail(latency_ms)
                out.note(f"  ref {phase.rate:.0f}/s: p50 {stats.median(latency_ms):.3f} ms "
                         f"(hits {np.median(latency_ms[hot]):.3f}, misses "
                         f"{np.median(latency_ms[~hot]):.3f}), p{tail.q:.2f} {tail.value:.2f} ms "
                         f"of {tail.samples} requests, {tail.beyond} beyond; "
                         f"generator lateness p99 {lateness_p99:.3f} ms")
                m["ref_lateness_p99"].append(lateness_p99)
                m["ref_requests"] = requests[:REPLAY_REQUESTS]
                m["ref_phase"] = phase
                # Read after the fixed-size reference traffic, before the
                # ladder, whose length depends on where it fails.
                m["peak_rss_mb"] = common.proc_peak_rss_mb(server.proc.pid)
            elif phase.name.startswith("sweep"):
                p99 = stats.tail(latency_ms).value
                rung = (phase.rate, p99, achieved)
                out.note(f"  {phase.name}{' retry' if retry else ''} {phase.rate:6.0f}/s: "
                         f"p50 {stats.median(latency_ms):8.2f} ms, p99 {p99:8.2f} ms, "
                         f"achieved {achieved:7.1f}/s, lateness p99 {lateness_p99:.2f} ms, "
                         f"{len(latency_ms)} requests")
                if retry:
                    rung = min(rung, failed_attempt, key=lambda r: rung_score(*r))
                    failed_attempt = None
                elif rung_score(*rung) > 1:
                    failed_attempt = rung
                    continue
                m["sweeps"].setdefault(phase.name, []).append(rung)
                if rung_score(*rung) > 1:
                    ended.add(phase.name)
    m["metrics_after"] = server.metrics()
    m["cpu_after"] = common.proc_cpu_seconds(server.proc.pid)
    out.note(f"serve_mixed: {total} requests, {hits / total:.1%} repeat one of "
             f"{inputs.hot} hot bodies, {len(inputs.bodies) - inputs.hot} unique bodies")
    return m


def _finish(out: Outcome, m: dict) -> Outcome:
    knees = [stats.knee(*zip(*rungs), P99_LIMIT_MS) for rungs in m["sweeps"].values()]
    # Not scaled by the host calibration: measured in this process, it
    # did not track the server's speed (scaled knees spread more).
    out.metrics = {
        "setup_s": m["setup_s"],
        "ops_per_s": max(knees),
        "p50_ms": stats.median(np.concatenate(m["ref"])),
        "p99_ms": stats.tail(np.concatenate(m["ref"])).value,
        "peak_rss_mb": m["peak_rss_mb"],
    }
    out.note(f"ops_per_s = knee: highest rate with p99 <= {P99_LIMIT_MS} ms and "
             f"no backlog on the ladder {LADDER[0]:.0f}-{LADDER[-1]:.0f} req/s in steps "
             f"of {LADDER[1] - LADDER[0]:.0f}, a failing rung run twice; knee per "
             f"climb: {', '.join(f'{k:.1f}' for k in knees)}")
    if max(knees) >= LADDER[-1]:
        out.note("WARNING: ladder saturated: no rung failed, so the knee is only "
                 "known to be at least the top rung")
    if max(knees) < LADDER[0]:
        out.note("WARNING: the first rung failed, so the knee is its rate divided "
                 "by its worse score, an estimate below the ladder")
    tail = stats.tail(np.concatenate(m["ref"]))
    out.note(f"p50_ms/p99_ms over all {REF_WINDOWS} reference windows: p{tail.q:.2f} of "
             f"{tail.samples} requests, {tail.beyond} beyond")
    out.note("peak_rss_mb = server VmHWM after the reference phases")
    return out


def _finish_traced(out: Outcome, m: dict, inputs, answers) -> Outcome:
    before, after = m["metrics_before"], m["metrics_after"]

    def delta(key):
        return after[key] - before[key]

    lookups = delta("decision_cache.hits") + delta("decision_cache.misses")
    batches = delta("batcher.batches")
    answered = delta("decisions.total")
    out.metrics = layer_defaults()
    out.metrics.update(common.import_profile())
    out.metrics.update({
        "cache.hit_ratio": delta("decision_cache.hits") / lookups if lookups else 0.0,
        "cache.evictions": delta("decision_cache.evictions"),
        "batcher.batch_size_mean": delta("batcher.requests") / batches if batches else 0.0,
        "batcher.rejected": delta("batcher.rejected"),
        "service.errors": delta("decisions.errors"),
        "server.cpu_us_per_req": 1e6 * (m["cpu_after"] - m["cpu_before"]) / answered,
        "loadgen.lateness_p99_ms": stats.median(m["ref_lateness_p99"]),
        "loadgen.idle_rtt_ms": idle_rtt_ms(m["ref_phase"], m["ref_requests"]),
    })
    out.metrics.update(replay_layers(inputs, m["ref_phase"], answers, out))
    out.note("server counters are deltas over the reference and ladder phases")
    return out


def idle_rtt_ms(phase, requests: list[bytes]) -> float:
    """Median round trip against the echo server at the reference rate."""
    proc = subprocess.Popen([sys.executable, str(common.ROOT / "perfbench" / "echo_server.py")],
                            cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        port = int(proc.stdout.readline().split()[1])
        n = len(requests)
        with cpus_awake():
            result = loadgen.run_phase(HOST, port, phase.due[:n], requests,
                                       keep_bodies=False, spin=True)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
        proc.stdout.close()
    if (result.status != 200).any():
        raise RuntimeError("echo server dropped requests")
    return stats.median(result.latency_s * 1e3)


@contextlib.contextmanager
def traced_service(tracer: Tracer):
    """Wrap the service's layers (class attributes) for the replay."""
    from repro.cache.tiered import TieredCache
    from repro.service.dispatcher import Dispatcher

    saved = [(TieredCache, "get"), (TieredCache, "put"), (Dispatcher, "evaluate")]
    originals = [getattr(cls, attr) for cls, attr in saved]
    TieredCache.get = tracer.wrap(TieredCache.get, "cache.get")
    TieredCache.put = tracer.wrap(TieredCache.put, "cache.put")
    Dispatcher.evaluate = tracer.wrap(Dispatcher.evaluate, "dispatcher.evaluate")
    try:
        yield
    finally:
        for (cls, attr), fn in zip(saved, originals):
            setattr(cls, attr, fn)


def replay(inputs, phase, answers, out: Outcome, tracer: Tracer | None) -> float:
    """Serve the reference stream's first requests in-process, one at a time."""
    from repro.service import DecisionService
    from repro.service.protocol import canonical_json, request_from_payload

    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    with DecisionService() as service:
        for body in inputs.bodies[:inputs.hot]:
            service.allocate(request_from_payload(json.loads(body)))
        start = perf_counter()
        for i, index in enumerate(phase.body_index[:REPLAY_REQUESTS]):
            if tracer is not None:
                tracer.group = f"r{i}"
            request = call("protocol.decode",
                           lambda b: request_from_payload(json.loads(b)),
                           inputs.bodies[index])
            call("protocol.fingerprint", request.fingerprint)
            response = call("service.allocate", service.allocate, request)
            call("protocol.encode", lambda r: canonical_json(r.to_payload()), response)
            out.attempted += 1
            if not stats.same(response.decision.to_payload(), answers[index][1]):
                out.failed += 1
        return perf_counter() - start


def replay_layers(inputs, phase, answers, out: Outcome) -> dict[str, float]:
    plain_s = replay(inputs, phase, answers, out, None)
    tracer = Tracer()
    with traced_service(tracer), traced_registry(tracer):
        traced_s = replay(inputs, phase, answers, out, tracer)
    totals = tracer.totals()

    def mean_us(name):
        calls, total, _ = totals.get(name, (0, 0.0, 0.0))
        return 1e6 * total / calls if calls else 0.0

    parts = ("cache.get", "cache.put", "dispatcher.evaluate")
    per_part = {p: tracer.by_group(p) for p in parts}
    other = [t - sum(per_part[p].get(g, 0.0) for p in parts)
             for g, t in tracer.by_group("service.allocate").items()]
    tracer.dump(common.OUT / "trace-serve_mixed.json")
    out.note(f"in-process replay of {REPLAY_REQUESTS} reference requests: "
             f"{plain_s:.3f} s untraced, {traced_s:.3f} s traced; layer times are "
             "mean microseconds per call")
    return {
        "protocol.decode_us": mean_us("protocol.decode"),
        "protocol.fingerprint_us": mean_us("protocol.fingerprint"),
        "protocol.encode_us": mean_us("protocol.encode"),
        "cache.get_us": mean_us("cache.get"),
        "cache.put_us": mean_us("cache.put"),
        "dispatcher.evaluate_us": mean_us("dispatcher.evaluate"),
        "service.allocate_us": mean_us("service.allocate"),
        "service.other_us": 1e6 * sum(other) / len(other),
        "core.batch_s": totals.get("core.batch", (0, 0.0, 0.0))[2] / REPLAY_REQUESTS,
        "core.batch_calls": totals.get("core.batch", (0, 0, 0))[0],
        "core.scalar_s": totals.get("core.scalar", (0, 0.0, 0.0))[2] / REPLAY_REQUESTS,
        "core.scalar_calls": totals.get("core.scalar", (0, 0, 0))[0],
        "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
    }
