"""Speed probe: a fixed job timed next to every measurement.

The shared 2-core box this benchmark was written on runs the same code
15-30% faster or slower from one minute to the next.  Each sample is
therefore timed together with this probe (once before, once after), and
its seconds are scaled by REF_S / probe seconds.  The reported times
read as seconds at the probe speed the box had when the baseline was
recorded.  The probe does not touch apsum, so a change to apsum moves
the scaled times as it moves the raw ones.
"""

from time import perf_counter

import numpy as np

# Median probe time on the baseline box; it only fixes the scale.
REF_S = 0.007

_X = np.linspace(0.0, 100.0, 60_000)


def _job() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i % 7
    float((np.sin(_X) * np.cos(3.0 * _X)).sum())  # no BLAS call, no BLAS threads
    return perf_counter() - t0


def probe() -> float:
    """Seconds for a fixed mix of interpreter loop and numpy vector work;
    the best of three, so an interrupt does not count as a slow machine."""
    return min(_job() for _ in range(3))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference probe speed."""
    return seconds * REF_S / (0.5 * (before + after))
