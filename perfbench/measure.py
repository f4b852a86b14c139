"""Summary statistics for the benchmark's samples, and the host-speed
scale its times are reported in."""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Optional, Sequence, Tuple

_clock = time.perf_counter

#: Iterations of the calibration loop in one slice.
CALIBRATION_LOOPS = 25000
#: Seconds one calibration slice takes at the reference host speed.
#: Scaled times read as if the host had run at that speed throughout.
REFERENCE_SLICE_S = 0.004
#: Program work between two calibration slices, in seconds of wall.
SEGMENT_S = 0.1


def calibration_slice() -> float:
    """Run the fixed calibration loop (integer arithmetic, dict stores
    and lookups) once and return its wall time in seconds."""
    started = _clock()
    table: dict = {}
    total = 0
    for i in range(CALIBRATION_LOOPS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return _clock() - started


class HostSpeed:
    """Scales wall time to the reference host speed.

    On a shared host the same code runs up to ~1.8x faster or slower
    from one second to the next, and such phases can last minutes.  The
    benchmark therefore cuts its timed work into segments and runs a
    calibration slice between each two: a segment's wall time times
    ``REFERENCE_SLICE_S`` over the mean of the slices either side of it
    is its time at the reference speed.
    """

    def __init__(self) -> None:
        self.slices = [calibration_slice()]

    def factor(self) -> float:
        """End a segment: run a slice and return the segment's factor."""
        before = self.slices[-1]
        self.slices.append(calibration_slice())
        return 2.0 * REFERENCE_SLICE_S / (before + self.slices[-1])


class Timeline:
    """The clock of a timed run, with its calibration slices cut out.

    The run calls :meth:`tick` (or :meth:`end`) with the wall time after
    each step; once the current segment has run :data:`SEGMENT_S`, a
    slice ends it.  ``cut`` is the slice time so far: a wall time minus
    ``cut`` is a time on the timeline, so no interval measured on it
    includes a slice, and a schedule kept on it pauses during them.
    """

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.cut = 0.0
        #: Scaled time of the ended segments.
        self.scaled = 0.0
        #: Timeline time of the run's start and of each segment's end,
        #: and each segment's factor.
        self.ends = [_clock()]
        self.factors: list = []
        self.start = self.ends[0]

    def now(self) -> float:
        return _clock() - self.cut

    def tick(self, wall: float) -> None:
        if wall - self.start >= SEGMENT_S:
            self.end(wall)

    def end(self, wall: float) -> None:
        """End the current segment at wall time ``wall``."""
        factor = self.speed.factor()
        self.ends.append(wall - self.cut)
        self.factors.append(factor)
        self.scaled += (wall - self.start) * factor
        self.start = _clock()
        self.cut += self.start - wall

    @property
    def raw(self) -> float:
        """Unscaled time of the ended segments."""
        return self.ends[-1] - self.ends[0]

    def factor_at(self, t: float) -> float:
        """Factor of the segment that timeline time ``t`` fell in."""
        index = bisect.bisect_left(self.ends, t, 1)
        return self.factors[min(index, len(self.factors)) - 1]


#: Percentiles tried for the tail, highest first.  The reported tail is
#: the highest one with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0–100) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float], cap: float = 100.0) -> Tuple[float, float]:
    """``(q, value)``: the highest percentile of :data:`TAIL_PERCENTILES`
    up to ``cap`` with at least ten samples beyond it, and its value."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if q <= cap and n * (1.0 - q / 100.0) >= 10:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation (average ranks for ties); ``None`` when
    either side is constant or there are fewer than three pairs."""
    if len(xs) != len(ys) or len(xs) < 3:
        return None

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> float:
    """Reset this process's peak resident set size to its current size
    (Linux ``clear_refs``) and return that size in MiB."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Peak resident set size of this process since the last
    :func:`reset_peak_rss`, in MiB."""
    return _status_mb("VmHWM")
