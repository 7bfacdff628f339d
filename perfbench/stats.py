"""Statistics and correctness rules shared by every workload.

Pure functions only (no clock reads, no I/O), so the benchmark's own
tests can pin them down exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
MIN_BEYOND = 10

#: Relative tolerance of every numeric oracle: the equal-finish
#: solver's own convergence tolerance.
ORACLE_RTOL = 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo or data[hi] == data[lo]:
        return data[lo]     # also keeps inf - inf out of the arithmetic
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


@dataclass(frozen=True)
class Tail:
    """A tail percentile together with the counts that support it."""

    q: float          # the percentile actually reported, in [0, 100]
    value: float
    samples: int
    beyond: int       # samples strictly above the percentile's rank


def tail(values: Sequence[float], target: float = 99.0,
         min_beyond: int = MIN_BEYOND) -> Tail:
    """The highest percentile up to *target* with >= *min_beyond* samples beyond.

    With ``n`` samples the rank of percentile ``q`` is ``n * q / 100``;
    ``n - ceil(rank)`` samples lie beyond it.  At 99 that needs 1000
    samples; smaller samples fall back to ``100 * (1 - min_beyond / n)``.
    Infinite values (failed requests) count as missing any limit and
    propagate into the percentile when they reach it.
    """
    n = len(values)
    if n <= min_beyond:
        raise ValueError(
            f"need more than {min_beyond} samples for a tail percentile, got {n}")
    q = min(target, 100.0 * (1.0 - min_beyond / n))
    beyond = n - math.ceil(n * q / 100.0 - 1e-9)
    return Tail(q=q, value=percentile(values, q), samples=n, beyond=beyond)


#: A rung keeps up when it achieves at least this share of its offered rate.
KEEP_UP = 0.95


def knee(rates: Sequence[float], p99s: Sequence[float], achieved: Sequence[float],
         limit: float) -> float:
    """Highest offered rate meeting the latency limit without a backlog.

    *rates* is the ascending offered-rate ladder.  Rung ``i`` passes
    when ``p99s[i] <= limit`` and ``achieved[i] >= KEEP_UP * rates[i]``.
    Each criterion is a score that passes at <= 1: ``p99 / limit`` and
    ``KEEP_UP * rate / achieved``.  The knee lies between the last
    passing rung before the first failing one and that failing rung:
    for each criterion the failing rung fails, ``log(score)`` is
    interpolated linearly in rate up to 1, and the lower crossing wins.
    The knee thus moves continuously with the measured curve instead of
    snapping to the ladder, also when an overloaded rung's throughput
    collapses.  Infinite scores (failed requests, nothing answered)
    leave it on the passing rung.  A failing first rung gives its rate
    divided by its worse score, an estimate below the ladder that moves
    with the measurement (0 only when that score is infinite); a ladder
    that never fails gives its top rate.
    """
    if not (len(rates) == len(p99s) == len(achieved)) or not rates:
        raise ValueError("ladder arrays must be non-empty and of equal length")
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError("rates must be strictly ascending")

    def scores(i):
        backlog = KEEP_UP * rates[i] / achieved[i] if achieved[i] > 0 else math.inf
        return p99s[i] / limit, backlog

    first = max(scores(0))
    if first > 1:
        return float(rates[0]) / first
    for i in range(1, len(rates)):
        hi_scores = scores(i)
        if max(hi_scores) <= 1:
            continue
        lo, hi = float(rates[i - 1]), float(rates[i])
        knee_rate = hi
        for lo_s, hi_s in zip(scores(i - 1), hi_scores):
            if hi_s > 1:
                frac = -math.log(lo_s) / (math.log(hi_s) - math.log(lo_s))
                knee_rate = min(knee_rate, lo + frac * (hi - lo))
        return knee_rate
    return float(rates[-1])


def close(a: float, b: float, rtol: float = ORACLE_RTOL) -> bool:
    """``a`` equals ``b`` within *rtol* relative (exact for non-finite)."""
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def close_array(got, want, rtol: float = ORACLE_RTOL):
    """Element-wise :func:`close` over numpy arrays."""
    import numpy as np

    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        return (got == want) | (np.abs(got - want)
                                <= rtol * np.maximum(np.abs(got), np.abs(want)))


def same(got: Any, want: Any, rtol: float = ORACLE_RTOL) -> bool:
    """Structural equality with numbers compared by :func:`close`.

    Mappings must have the same keys, sequences the same length;
    ``bool`` and ``str`` compare exactly; ``None`` matches only
    ``None``.  Numpy arrays compare element-wise.
    """
    if isinstance(want, bool) or isinstance(got, bool):
        return type(got) is type(want) and got == want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return close(float(got), float(want), rtol)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same(got[k], want[k], rtol) for k in want))
    if isinstance(want, str) or want is None:
        return got == want
    if hasattr(want, "tolist"):
        want = want.tolist()
    if hasattr(got, "tolist"):
        got = got.tolist()
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same(g, w, rtol) for g, w in zip(got, want)))
    return got == want


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
