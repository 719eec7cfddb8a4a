"""The host's speed, measured beside the workload with a reference kernel.

On a shared host the speed of interpreter-bound code swings by a quarter
and more, in states that last from seconds to minutes, so the time of a
whole run moves with the host's state rather than with the program.  The
worker therefore times a fixed reference kernel, which imports nothing from
``ccpsd``, before the first check of a pass, between checks once at least
``Clock.interval`` seconds of work have passed, and after the last check.
Each stretch of work between two reference timings is paired with the mean
of those two timings; a pass's work time is scaled by ``REF_S`` over the
work-weighted mean of them, so it reads as seconds on a host that runs the
reference in ``REF_S``.  Reference time is not counted in the pass's time.
"""

import time
from fractions import Fraction

# Typical time of ``reference()`` on a shared 2-vCPU Intel Xeon VM with
# Python 3.11; it sets the unit of scaled times and must not change between
# the two commits of a comparison.
REF_S = 0.21

_COEFFS = [Fraction(7 * i + 1, i + 3) for i in range(40)]


def reference(points=6000):
    """Time a fixed pure-Python kernel: a polynomial with Fraction
    coefficients evaluated at complex points, the mix of work of
    ``RationalFn.evaluate``.  It allocates only a few objects the garbage
    collector tracks, so it hardly moves the program's collector state."""
    start = time.perf_counter()
    acc = 0j
    for k in range(points):
        z = complex(0.3 + k * 1e-5, 0.7)
        v = 0j
        for c in _COEFFS:
            v = v * z + complex(c)
        acc += v
    return time.perf_counter() - start


class Clock:
    """Work time of one pass, raw and scaled to the reference speed."""

    interval = 2.0

    def __init__(self):
        reference(200)  # warm-up
        self.stretches = []  # (work seconds, mean of the bracketing references)
        self.ref = reference()
        self.mark = time.perf_counter()

    def tick(self, final=False):
        """Close the current stretch of work if it is long enough, or at
        the end of the pass."""
        work = time.perf_counter() - self.mark
        if final or work >= self.interval:
            ref = reference()
            self.stretches.append((work, (self.ref + ref) / 2))
            self.ref = ref
            self.mark = time.perf_counter()

    def result(self):
        """Raw work seconds, the work-weighted mean reference time, and the
        work seconds scaled to ``REF_S``."""
        work = sum(w for w, _ in self.stretches)
        ref = sum(w * r for w, r in self.stretches) / work
        return work, ref, work * REF_S / ref
