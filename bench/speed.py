"""Host-speed probe for normalising timings.

On a shared host the CPU speed a process gets can swing by 1.5x or more
over seconds to minutes (co-tenants on the same cores). A fixed pure-Python
loop that uses no submax code runs between the measured pieces of work, for
a set share of their time. A time ``t`` is reported as
``t * REFERENCE_S / mean(loop times)``: seconds at the speed at which the
loop takes ``REFERENCE_S``. Both means weight the host's slow and fast
stretches by the time spent in them, so their ratio tracks the work and not
the host. Set-up times are short and outlier-prone, so they are scaled as
``median(t) * REFERENCE_S / median(loop times)``. The raw times are reported
beside the normalised ones.
"""

from __future__ import annotations

import random
import statistics
import time

# Seconds one calibration loop took on the reference host (2-CPU Intel Xeon
# VM, Python 3.11) when it was quiet.
REFERENCE_S = 0.015
# Calibration time as a share of the work time it follows.
SHARE = 0.25


def _inputs():
    rnd = random.Random(1)
    masks = [sum(1 << rnd.randrange(1200) for _ in range(12)) for _ in range(400)]
    rows = [sorted(rnd.sample(range(400), 24)) for _ in range(300)]
    return masks, rows


_MASKS, _ROWS = _inputs()


def _union_size(members: list[int]) -> int:
    mask = 0
    masks = _MASKS
    for u in members:
        mask |= masks[u]
    return mask.bit_count()


def loop() -> float:
    """Seconds for one calibration loop: 7,200 calls OR-ing 24 big ints each."""
    started = time.perf_counter()
    total = 0
    for _ in range(24):
        seen = set()
        for row in _ROWS:
            members = list(row)
            total += _union_size(members)
            seen.add(members[0])
    return time.perf_counter() - started


class SpeedProbe:
    """Calibration samples taken after each measured piece of work."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def follow(self, work_s: float) -> None:
        """Run calibration loops for about ``SHARE * work_s`` (at least one)."""
        spent = 0.0
        while True:
            took = loop()
            self.samples.append(took)
            spent += took
            if spent >= SHARE * work_s:
                return

    def scale(self) -> float:
        """Factor that turns a mean raw time into seconds at the reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def median_scale(self) -> float:
        """The same for a median raw time (short, outlier-prone samples)."""
        return REFERENCE_S / statistics.median(self.samples)
