"""The result record every workload returns, and the metric catalogue."""

from __future__ import annotations

from dataclasses import dataclass, field

#: End-to-end metrics (untraced runs): name -> unit.  Every workload
#: reports every one; what an "op" is depends on the workload.  Each
#: workload also measures p50_ms and p99_ms and prints them with their
#: sample counts, but they are not gated: on a shared 2-vCPU host their
#: spread across seeds on serve_mixed reached 0.39 and 0.5, above the
#: largest bound allowed.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced runs): name -> unit.  Every workload
#: reports every one; a layer a workload never enters reads 0.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.modules": "count",
    "cli.scipy_loaded": "count",
    "experiments.cells": "count",
    "experiments.grid_s": "s",
    "experiments.other_s": "s",
    "workloads.factory_s": "s",
    "workloads.factory_calls": "count",
    "core.batch_s": "s",
    "core.batch_calls": "count",
    "core.batch_rows": "count",
    "core.scalar_s": "s",
    "core.scalar_calls": "count",
    "core.metric_s": "s",
    "core.metric_calls": "count",
    "chaos.compile_s": "s",
    "online.clean_s": "s",
    "chaos.run_s": "s",
    "chaos.audit_s": "s",
    "simulate.events": "count",
    "chaos.invariant_failures": "count",
    "protocol.decode_us": "us",
    "protocol.fingerprint_us": "us",
    "protocol.encode_us": "us",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "dispatcher.evaluate_us": "us",
    "service.allocate_us": "us",
    "service.other_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "batcher.batch_size_mean": "count",
    "batcher.rejected": "count",
    "service.errors": "count",
    "server.cpu_us_per_req": "us",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.idle_rtt_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Outcome:
    """What one run measured: metric values, op counts and report lines."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.notes.append(line)


def layer_defaults() -> dict[str, float]:
    """Every per-layer metric at 0, for the workload to fill in."""
    return {name: 0.0 for name in PER_LAYER}
