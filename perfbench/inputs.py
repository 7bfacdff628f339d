"""Seeded input generation for every workload.

Each generator is a pure function of the benchmark seed: the same seed
yields byte-identical inputs, another seed different ones.  The
program under test only ever receives what these functions build.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Distinct stream tags keep the workloads' draws independent.  A
# SeedSequence ignores trailing zeros ([2, 3] and [2, 3, 0] are one
# stream), so no key is another key followed by zeros.
_FIGURES, _SERVE, _CHAOS = 1, 2, 3
_HOT, _PHASE = 1, 2

# -- figures ----------------------------------------------------------------

#: Repetitions per figure grid in one pass (the paper uses 50; every
#: pass still covers all 18 grids).  The serial engine batches one rep
#: at a time, so reps scale the work without changing its shape.
FIGURE_REPS = 2
#: Independent seed sets per run; passes cycle through them.  Some
#: draws cost up to a third more than others, so one set per run would
#: let the seed decide the spread.
FIGURE_SEED_SETS = 3


def figure_seeds(seed: int, index: int, count: int = 18) -> list[int]:
    """One root seed per figure grid, for seed set *index*."""
    state = np.random.SeedSequence([_FIGURES, seed, index]).generate_state(count)
    return [int(s) for s in state]


# -- online_chaos -------------------------------------------------------------

CHAOS_NAPPS = (16, 24)
CHAOS_POLICIES = ("dominant-minratio", "fair")
CHAOS_FAULTS = "churn:period=2e10,drop=0.25+crash:hazard=1e-11,delay=1e9"


@dataclass(frozen=True)
class ChaosScenario:
    key: str
    napps: int
    policy: str
    workload: object          # repro Workload
    arrivals: np.ndarray
    fault_seed: int


def chaos_scenarios(seed: int, index: int) -> list[ChaosScenario]:
    """Scenario set *index*: every (napps, policy) pair on fresh draws.

    Every application is present at t=0 (the offline instance with
    faults on top).  Staggered arrivals would make how many
    applications share each re-solve, and with it the re-solve latency,
    depend mostly on the seed.  Both policies of one napps share the
    workload and the fault seed, so they face the identical fault
    stream.
    """
    from repro.workloads.synthetic import npb_synth

    out = []
    for napps in CHAOS_NAPPS:
        rng = np.random.default_rng([_CHAOS, seed, index, napps])
        workload = npb_synth(napps, rng)
        arrivals = np.zeros(napps)
        fault_seed = int(rng.integers(2**62))
        for policy in CHAOS_POLICIES:
            out.append(ChaosScenario(
                key=f"s{index}-n{napps}-{policy}", napps=napps, policy=policy,
                workload=workload, arrivals=arrivals,
                fault_seed=fault_seed))
    return out


# -- serve_mixed ------------------------------------------------------------

#: Applications per body: the points of the paper's #applications axis
#: within these bounds.  The bounds are an assumption (README.md,
#: "Traffic sources").
NAPPS_BOUNDS = (4, 64)
#: Repeated bodies: a hot set drawn by a Zipf law, pre-warmed so that
#: its requests are cache hits; the rest are unique bodies (misses).
#: The repository holds no traffic trace, so these three are
#: assumptions, not measurements (see README.md, "Traffic sources").
HOT_SET = 256
ZIPF_EXPONENT = 1.1
HOT_SHARE = 0.8


def scheduler_mix() -> tuple[tuple[str, float], ...]:
    """(name, share) per scheduler the paper's figure grids evaluate.

    A scheduler's share is the number of figure grids that evaluate it
    over the total, read from ``repro.experiments.figures``.
    """
    from collections import Counter

    from repro.experiments.figures import build_figure, figure_ids

    counts = Counter(name for fid in figure_ids()
                     for name in build_figure(fid, reps=1).schedulers)
    total = sum(counts.values())
    return tuple((name, counts[name] / total) for name in sorted(counts))


def napps_choices() -> tuple[int, ...]:
    """Points of the paper's #applications axis within NAPPS_BOUNDS."""
    from repro.experiments.figures import NAPPS_POINTS

    lo, hi = NAPPS_BOUNDS
    return tuple(int(x) for x in NAPPS_POINTS if lo <= x <= hi)


def _app_payload(app) -> dict:
    return {
        "name": app.name,
        "work": float(app.work),
        "seq_fraction": float(app.seq_fraction),
        "access_freq": float(app.access_freq),
        "miss_rate": float(app.miss_rate),
        "footprint": None if math.isinf(app.footprint) else float(app.footprint),
        "baseline_cache": float(app.baseline_cache),
    }


def _body(rng: np.random.Generator, mix, napps_choices) -> bytes:
    from repro.core.registry import is_randomized
    from repro.workloads.synthetic import npb_synth

    names = [name for name, _ in mix]
    shares = np.array([share for _, share in mix])
    scheduler = names[int(rng.choice(len(names), p=shares / shares.sum()))]
    napps = napps_choices[int(rng.integers(len(napps_choices)))]
    payload = {
        "applications": [_app_payload(a) for a in npb_synth(napps, rng)],
        "platform": "taihulight",
        "scheduler": scheduler,
    }
    if is_randomized(scheduler):
        payload["seed"] = int(rng.integers(2**31))
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Phase:
    """One open-loop phase: request *i* sends ``bodies[body_index[i]]`` at ``due[i]``."""

    name: str
    rate: float
    due: np.ndarray
    body_index: np.ndarray


class ServeInputs:
    """The hot set up front; each phase's arrivals and unique bodies on demand.

    Phase *k* draws from its own stream, so its contents do not depend
    on which other phases were generated; only the positions of its
    unique bodies in :attr:`bodies` do.
    """

    def __init__(self, seed: int, plan: list[tuple[str, float, float]]):
        self.seed = seed
        self.plan = plan
        self.mix = scheduler_mix()
        self.napps = napps_choices()
        rng = np.random.default_rng([_SERVE, seed, _HOT])
        self.bodies = [self._body(rng) for _ in range(HOT_SET)]
        self.hot = HOT_SET
        weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_EXPONENT
        self._weights = weights / weights.sum()

    def _body(self, rng: np.random.Generator) -> bytes:
        return _body(rng, self.mix, self.napps)

    def phase(self, k: int) -> Phase:
        from repro.online.arrivals import PoissonProcess

        name, rate, seconds = self.plan[k]
        prng = np.random.default_rng([_SERVE, self.seed, _PHASE, k])
        n = int(round(rate * seconds))
        due = PoissonProcess(rate).times(n, prng)
        hot = prng.random(n) < HOT_SHARE
        index = np.where(hot, prng.choice(HOT_SET, size=n, p=self._weights), -1)
        for i in np.flatnonzero(~hot):
            index[i] = len(self.bodies)
            self.bodies.append(self._body(prng))
        return Phase(name, rate, due, index)
