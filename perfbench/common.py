"""Process plumbing shared by the workloads: paths, child processes, /proc."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from stats import median

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (trace files, server logs) goes here.
OUT = ROOT / ".bench_out"

#: Set-up samples per run (median reported).  The host's speed moves
#: in bursts of a few seconds, so the workloads spread these samples
#: over the run instead of taking them back to back.
SETUP_REPEATS = 7

#: Environment variables that would point the program outside the
#: checkout or change its backend; children never inherit them.
_SCRUBBED = ("REPRO_CACHE_DIR", "REPRO_BACKEND", "REPRO_WORKERS")


#: Seconds calibration_s() takes on the reference host (a 2-vCPU VM,
#: Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.005


def calibration_s() -> float:
    """Seconds for a short fixed loop of small numpy and dict work, none of it the program's.

    A shared host's speed moves by up to 1.7x within seconds and drifts
    between runs.  Over such drifts, the median figure pass took
    0.89-0.99 s while its ratio to this loop's median stayed within
    6.6-7.2, so timings scaled by ``CALIBRATION_REF_S / median`` compare
    across host states.  The loop is short so that the workloads can
    time it after every grid or scenario: the median of many samples
    spread over the run follows the host better than a few long ones.
    """
    x = np.random.default_rng(0).random(64)
    acc = 0.0
    start = perf_counter()
    for _ in range(1000):
        acc += float((x * 1.0001 + 0.5).sum())
        acc += sum({j: j * j for j in range(8)}.values())
    return perf_counter() - start


def host_speed(samples: list[float]) -> float:
    """Host slowdown against the reference host: > 1 means slower."""
    return median(samples) / CALIBRATION_REF_S


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    return env


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def time_ready(code: str) -> float:
    """Seconds from launching ``python -c code`` until it prints ``ready``."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code + "\nprint('ready', flush=True)"],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


class SetupTimer:
    """Set-up time sampled at several points of a run; reports the median."""

    def __init__(self, probe: Callable[[], float], what: str):
        self.probe = probe
        self.what = what
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(self.probe())

    def fill(self, total: int = SETUP_REPEATS) -> None:
        """Sample until *total* samples are in."""
        self.sample(total - len(self.samples))

    def value(self) -> float:
        return median(self.samples)

    def describe(self) -> str:
        return (f"setup_s = {self.what}, median of {len(self.samples)} starts spread "
                f"over the run ({min(self.samples):.3f}-{max(self.samples):.3f} s)")


def import_profile() -> dict[str, float]:
    """``import repro.cli`` in a fresh interpreter: time, modules, scipy."""
    code = (
        "import sys, json\n"
        "from time import perf_counter\n"
        "t = perf_counter()\n"
        "import repro.cli\n"
        "dt = perf_counter() - t\n"
        "print(json.dumps([dt, len(sys.modules), 'scipy.optimize' in sys.modules]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    import json

    dt, modules, scipy_loaded = json.loads(out.stdout.strip().splitlines()[-1])
    return {"cli.import_s": dt, "cli.modules": modules,
            "cli.scipy_loaded": int(scipy_loaded)}


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM of another live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from /proc/<pid>/stat."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")
