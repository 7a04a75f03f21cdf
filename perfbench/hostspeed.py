"""Host-speed calibration.

The CPU speed of a shared host drifts by tens of percent within seconds, and
a pure-Python program slows down with it. A worker therefore runs a fixed
pure-Python reference kernel every ``PERIOD_S`` seconds of wall time, from a
SIGALRM handler, for the whole life of its timed operations. Each sample is
the kernel's duration at that moment. A timed interval is reported as

    (raw wall time - sampler time inside it) * NOMINAL_REF_S / mean sample

where the mean is taken over the samples inside the interval, widened by one
period on each side. The result is the time the interval would have taken on
this host when the kernel runs in exactly ``NOMINAL_REF_S``. The raw wall
time is recovered by multiplying back by ``mean sample / NOMINAL_REF_S``;
the workers' raw intervals and samples are kept in the result file.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
KERNEL_REPS = 32
# Median kernel duration measured on the reference host (2 CPUs, Python
# 3.11.7); chosen so that normalized times read close to raw ones there.
NOMINAL_REF_S = 0.00091

_A = "parliamentary"
_B = "commissioners"
_PREV = [0] * (len(_B) + 1)
_CUR = [0] * (len(_B) + 1)


def ref_kernel(reps: int = KERNEL_REPS) -> int:
    """Fixed edit-distance work on preallocated rows. It allocates no
    container, so it never triggers a garbage collection of the program's
    objects and its duration tracks only the host's speed."""
    prev, cur = _PREV, _CUR
    nb = len(_B)
    for _ in range(reps):
        for i in range(nb + 1):
            prev[i] = i
        for i, ca in enumerate(_A, 1):
            cur[0] = i
            for j in range(1, nb + 1):
                x = prev[j - 1] + (ca != _B[j - 1])
                y = prev[j] + 1
                z = cur[j - 1] + 1
                cur[j] = x if x < y and x < z else (y if y < z else z)
            prev, cur = cur, prev
    return prev[nb]


class Sampler:
    """Runs ``ref_kernel`` on entry, on exit and from a SIGALRM handler
    every ``PERIOD_S`` in between.

    Each sample is ``(start, end, span)``, where ``span`` is whatever
    ``current_span()`` returned when the signal arrived (the innermost open
    trace span, or -1), so a tracer can take the sample out of that span's
    self time.
    """

    def __init__(self, current_span=None):
        self.samples: list[tuple[float, float, int]] = []
        self._current_span = current_span or (lambda: -1)
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        ref_kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, self._current_span()))

    def __enter__(self):
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._handler(None, None)
        return False


def busy_inside(samples, a: float, b: float) -> float:
    """Sampler time that overlaps the interval [a, b]."""
    total = 0.0
    for s0, s1, *_ in samples:
        lo, hi = max(a, s0), min(b, s1)
        if hi > lo:
            total += hi - lo
    return total


def speed(samples, a: float, b: float) -> float:
    """Mean kernel duration around [a, b]; the two nearest samples when the
    widened interval holds none."""
    near = [s1 - s0 for s0, s1, *_ in samples
            if a - PERIOD_S <= (s0 + s1) / 2 <= b + PERIOD_S]
    if not near:
        mid = (a + b) / 2
        ranked = sorted(samples, key=lambda s: abs((s[0] + s[1]) / 2 - mid))
        near = [s1 - s0 for s0, s1, *_ in ranked[:2]]
    if not near:
        raise ValueError("no host-speed samples recorded")
    return sum(near) / len(near)


def normalized(samples, a: float, b: float) -> float:
    """Duration of [a, b] without sampler time, in nominal-host seconds."""
    return (b - a - busy_inside(samples, a, b)) * NOMINAL_REF_S / speed(samples, a, b)
