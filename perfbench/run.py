"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 12 --trace 0

Untraced runs (``--trace 0``) print every end-to-end metric; traced
runs (``--trace 1``) print every per-layer metric plus the tracing
overhead.  Lines before the last one explain the numbers (units,
sample counts, failures); the last line is the JSON result.  Exits
with status 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common
from outcome import END_TO_END, PER_LAYER

WORKLOADS = ("figures", "serve_mixed", "online_chaos")


def _module(name: str):
    if name == "figures":
        import wl_figures as mod
    elif name == "serve_mixed":
        import wl_serve as mod
    else:
        import wl_chaos as mod
    return mod


def _terminate(signum, _frame):
    # Unwind through the workloads' finally blocks, which stop the
    # server and echo child processes.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not common.program_present():
        print(f"no program to measure: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    outcome = _module(args.workload).run(args.seed, args.seconds, bool(args.trace))
    catalogue = PER_LAYER if args.trace else END_TO_END
    missing = catalogue.keys() - outcome.metrics.keys()
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    for line in outcome.notes:
        print(line)
    frac = outcome.failed / outcome.attempted if outcome.attempted else float("nan")
    print(f"failed_frac = {frac:.6g} ({outcome.failed} failed, refused or wrong "
          f"of {outcome.attempted} attempted)")
    for name, unit in catalogue.items():
        print(f"{name:28s} {outcome.metrics[name]:>14.6g} {unit}")
    for name in outcome.metrics.keys() - catalogue.keys():
        print(f"{name:28s} {outcome.metrics[name]:>14.6g} (printed, not gated)")
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in catalogue.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
