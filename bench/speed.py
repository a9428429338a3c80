"""Speed probe: how fast this machine runs plain Python right now.

On a shared VM the host's load changes how fast the VM runs, by up to
about x2 over minutes, and CPU time drifts with wall time, so raw timings of
the same code taken minutes apart differ by more than any useful bound.  The
benchmark therefore runs a fixed piece of stdlib work, the probe, between
its ops and reports every timing scaled to the probe's nominal time:

    scaled = wall * NOMINAL_S / (mean probe time just before and just after)

A scaled time is in seconds at a fixed machine speed, the speed at which one
probe takes NOMINAL_S.  A change to lieq moves it as it moves the wall time;
the host's drift mostly cancels.  The probe uses only `fractions` and dicts,
like lieq's own inner loops, and runs with the garbage collector off, so
objects that lieq keeps alive cannot slow it.
"""

import gc
import time
from fractions import Fraction

PROBE_ITERS = 600
# One probe on the baseline machine (see BASELINE.md) in its fast phase.
NOMINAL_S = 0.003
# Probe time after a stretch of work, as a share of that work's wall time.
PROBE_SHARE = 0.1
MIN_PROBES = 3


def probe():
    """Wall time of one fixed piece of Fraction and dict work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, PROBE_ITERS):
            total += Fraction(i, i + 1) * Fraction(3, 7)
            seen[i, i % 7] = total
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scales wall times of consecutive stretches of work to nominal speed."""

    def __init__(self):
        self.probes = []  # every probe time, for the human lines
        self.before = self._block(0.0)

    def _block(self, work_s):
        """Mean probe time over probes that take PROBE_SHARE of work_s."""
        times = []
        while len(times) < MIN_PROBES or sum(times) < PROBE_SHARE * work_s:
            times.append(probe())
        self.probes.extend(times)
        return sum(times) / len(times)

    def scale(self, wall):
        """Wall times of the work done since the last call, at nominal speed."""
        after = self._block(sum(wall))
        factor = NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return [w * factor for w in wall]
