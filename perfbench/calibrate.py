"""Speed calibration: a fixed big-integer kernel, timed on the CPU that runs
the measured code, at the same moments.

On a shared machine the CPU's speed drifts, here by about 25% over tens of
seconds, and CPU time drifts with it.  Run-to-run spread of raw times then
swamps the changes the benchmark must resolve.  So each measured process
times this kernel when it starts, after its import, every ``INTERVAL_S``
while the command runs, and at the end.  The kernel does the program's two
kinds of work in equal parts: schoolbook products of 500-bit integers, as in
``Polynomial.__mul__``, and Horner evaluation over 300-bit fractions, as in
the value checks; contention slows the two by different amounts, and a
kernel of one kind alone over- or under-corrects the other.  A raw time multiplied
by the mean of ``REFERENCE_S / kernel time`` over the samples that bracket it
reads in reference seconds: the time the work takes on a CPU that runs the
kernel in ``REFERENCE_S``.  Kernel time is subtracted from the raw times.
"""
import random
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0015
INTERVAL_S = 0.1

_rng = random.Random(20120905)
_A = [_rng.getrandbits(500) for _ in range(24)]
_B = [_rng.getrandbits(500) for _ in range(24)]
_F = [Fraction(_rng.getrandbits(300), _rng.getrandbits(300) | 1) for _ in range(32)]
_HALF = Fraction(-1, 2)


def _kernel() -> None:
    for _ in range(4):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                out[i + j] += x * y
    acc = Fraction(0)
    for c in _F:
        acc = acc * _HALF + c


class Sampler:
    """Kernel timings as (CLOCK_MONOTONIC start ns, seconds)."""

    def __init__(self) -> None:
        self.samples = []

    def sample(self, *_signal_args) -> None:
        start_ns = time.monotonic_ns()
        start = time.perf_counter()
        _kernel()
        self.samples.append((start_ns, time.perf_counter() - start))

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def scaled(raw_s: float, samples) -> float:
    """``raw_s`` in reference seconds, given the kernel samples that bracket it."""
    return raw_s * sum(REFERENCE_S / d for _, d in samples) / len(samples)
