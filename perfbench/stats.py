"""Summary statistics the benchmark reports.

Every timing is reported as a median plus a tail: the samples beyond the
highest percentile of :data:`TAIL_LADDER` that still has at least
:data:`MIN_BEYOND` samples beyond it, so a tail is never read off a handful
of samples.  Medians are
taken per program and averaged with the geometric mean.  Failures are
counted against the operations attempted.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

#: Percentiles a tail may be read at, lowest first.  Few rungs, so that
#: runs of one workload, whose sample counts differ a little, read the
#: same percentile.
TAIL_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10


def rank_percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-th percentile and how many samples lie beyond it.

    The value is an actual sample: the one at 1-based rank
    ``ceil(p / 100 * n)`` in sorted order.  "Beyond" counts the samples
    after that rank, so ties do not shrink the count.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float], max_pct: float = TAIL_LADDER[-1]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest ladder percentile, up to
    ``max_pct``, with at least :data:`MIN_BEYOND` samples beyond it.

    A workload caps the percentile at the one its usual sample count
    supports, so a faster program, which completes more operations in the
    same time, is still compared at the same percentile.  With too few
    samples for even the median to qualify, the median's rank is returned:
    a tail needs at least ``2 * MIN_BEYOND`` samples.
    """
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p > max_pct:
            break
        _, beyond = rank_percentile(values, p)
        if beyond >= MIN_BEYOND:
            chosen = p
    value, _ = rank_percentile(values, chosen)
    return chosen, value


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {list(values)!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_of_medians(groups: Mapping[str, Sequence[float]]) -> float:
    """Each group's median, then their geometric mean.

    Workloads mix programs whose costs differ by 100x.  The pooled median
    of such a mix lands wherever the mix happens to put it, while this
    weighs every program once, whatever its share of the samples.
    """
    return geomean([median(v) for v in groups.values()])


def _ranks(values: Sequence[float]) -> List[float]:
    """1-based ranks, ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation of two equally long sequences."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("spearman needs two sequences of equal length >= 2")
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    sy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if sx == 0 or sy == 0:
        return 0.0
    return cov / (sx * sy)


class Tally:
    """Operations attempted and failed, with the first few failure reasons.

    An operation that raises, or whose output check fails, is one failure;
    either way it still counts as attempted.
    """

    KEEP = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self.KEEP:
            self.reasons.append(reason)

    def recheck_failed(self, reason: str) -> None:
        """An operation already counted as attempted failed its output
        check afterwards."""
        self.failed += 1
        if len(self.reasons) < self.KEEP:
            self.reasons.append(reason)


def tail_mean(values: Sequence[float], max_pct: float = TAIL_LADDER[-1]) -> float:
    """Mean of the samples beyond the :func:`tail` percentile.

    A workload mixes programs whose costs differ by 100x, so the
    percentile itself is one sample that lands on whichever program sits
    at its rank; the mean of the ten or more samples beyond it moves only
    when they do.
    """
    p, _ = tail(values, max_pct)
    ordered = sorted(values)
    _, beyond = rank_percentile(ordered, p)
    return statistics.fmean(ordered[len(ordered) - beyond:]) if beyond else ordered[-1]


def summarize(values: Sequence[float], max_pct: float = TAIL_LADDER[-1]) -> Dict[str, float]:
    """Median; tail percentile, its value and the mean beyond it; count."""
    p, t = tail(values, max_pct)
    return {
        "p50": median(values),
        "tail_pct": p,
        "tail": t,
        "tail_mean": tail_mean(values, max_pct),
        "n": len(values),
    }
