"""The benchmark's own arithmetic: the tail-percentile rule, failure
accounting, span coverage and the fp32 output bound.

Kept free of any ``repro`` import so ``selftest.py`` can check it alone.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: A reported tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)

#: fp32 unit roundoff (round-to-nearest).
FP32_UNIT_ROUNDOFF = 2.0 ** -24


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile of ``count`` samples."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def tail_percentile(count: int) -> Optional[float]:
    """Highest candidate percentile with ``TAIL_SAMPLES_BEYOND`` samples beyond it."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(count, q) >= TAIL_SAMPLES_BEYOND:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def fp32_error_bound(row_terms, abs_sum):
    """Bound on |y_fp32 - y_exact| per output row (scalars or numpy arrays).

    The datapath rounds the value and x to fp32, multiplies in fp32 and
    accumulates ``row_terms`` products sequentially in fp32: every term
    carries at most ``row_terms + 2`` roundings, so the error is at most
    ``gamma(row_terms + 3) * sum_j |a_ij * x_j|`` with
    ``gamma(n) = n*u / (1 - n*u)``; one rounding of margin is added for the
    final cast.
    """
    n = row_terms + 3
    nu = n * FP32_UNIT_ROUNDOFF
    return nu / (1.0 - nu) * abs_sum


class Tally:
    """Per-request outcome counts for one workload run.

    Answers are settled a group at a time (a trace pass or a pool round) and
    then dropped, so the tally does not grow with the requests served.  A
    request fails when it is lost (sent, never answered), duplicated
    (answered more than once), answered for an id never sent, or marked bad
    (shed, degraded to inline, or a wrong ``y``).  Each failing request
    counts once however many of these apply.
    """

    KINDS = ("attempted", "succeeded", "failed", "lost", "duplicated", "spurious")

    def __init__(self) -> None:
        self.counts: Counter = Counter({kind: 0 for kind in self.KINDS})

    def settle(
        self,
        sent: Sequence[Hashable],
        answered: Iterable[Hashable],
        bad: Dict[Hashable, str],
    ) -> None:
        """Count one group: the ids sent, the ids answered, and why some are bad."""
        sent_ids = set(sent)
        if len(sent_ids) != len(sent):
            raise ValueError("a request id was sent twice")
        answers = Counter(answered)
        lost = sent_ids - set(answers)
        duplicated = {rid for rid, n in answers.items() if n > 1}
        spurious = set(answers) - sent_ids
        failed = lost | duplicated | spurious | set(bad)
        self.counts.update(
            attempted=len(sent_ids),
            succeeded=len(sent_ids - failed),
            failed=len(failed),
            lost=len(lost),
            duplicated=len(duplicated),
            spurious=len(spurious),
        )
        self.counts.update(bad.values())

    def summary(self) -> Dict[str, int]:
        out = {kind: self.counts[kind] for kind in self.KINDS}
        for reason, count in sorted(self.counts.items()):
            out.setdefault(reason, count)
        return out


Span = Tuple[str, float, float, Optional[int]]  # name, start, end, parent index


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = _union_length(
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        )
        out.append((end - start) - covered)
    return out


def unattributed_fraction(
    spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
) -> float:
    """Share of the windows' wall time covered by no span."""
    wall = sum(end - start for start, end in windows)
    if wall <= 0:
        raise ValueError("empty traced window")
    covered = 0.0
    for w_start, w_end in windows:
        covered += _union_length(
            (max(s, w_start), min(e, w_end))
            for _, s, e, _ in spans
            if min(e, w_end) > max(s, w_start)
        )
    return 1.0 - covered / wall
