"""Host-speed calibration: a fixed reference kernel timed all through a run.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to a factor of two over seconds to minutes.  CPU time drifts
with wall time, so the slowdown is not descheduling, and no amount of
repetition inside one run takes it out of a time compared across runs.

A :class:`Calibrator` therefore interrupts the run every ``PERIOD_S`` seconds
of wall time (``SIGALRM``) and times one call of :func:`kernel`: a fixed
piece of work in the benchmark's own code that mixes the operations of
octoweak's hot path (eight-slot complex vectors, their outer product against
a 64x8 table, object construction, Python float arithmetic).  The kernel
never changes with the program, so its mean time over a stretch of the run
measures how fast the host was during that stretch.  A time reported at the
reference speed is the work's wall time, less the kernel calls inside it,
times ``REFERENCE_S`` over that mean.

Set-up in a fresh interpreter is measured against another yardstick, the
time of a plain ``import numpy`` made first in that interpreter
(:func:`at_reference_set_up`).
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

import numpy as np

#: Wall-time seconds between two calibration calls.
PERIOD_S = 0.1

#: Products per kernel call.
ROUNDS = 240

#: Seconds one kernel call takes at the reference speed: about its time in a
#: quiet spell of a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4, OpenBLAS on one
#: thread).  It only sets the scale; a time at the reference speed is the
#: wall time the same work takes when the kernel runs this fast.
REFERENCE_S = 0.0028

#: Seconds ``import numpy`` takes in a fresh interpreter at the reference
#: speed: about its time in a quiet spell of the same VM.
NUMPY_IMPORT_REFERENCE_S = 0.065

#: Fixed inputs of the kernel, from their own generator so that no random
#: state the program uses is touched.
_RNG = np.random.default_rng(20101128)
_TABLE = _RNG.standard_normal((64, 8)) + 1j * _RNG.standard_normal((64, 8))
_VECTORS = [_RNG.standard_normal(8) + 1j * _RNG.standard_normal(8) for _ in range(16)]


class _Slot:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c


def kernel(rounds: int = ROUNDS) -> float:
    """The reference work: ``rounds`` chained products of eight-slot vectors."""
    acc = _Slot(_VECTORS[0])
    total = 0.0
    for i in range(rounds):
        other = _VECTORS[i % len(_VECTORS)]
        prod = (acc.c[:, None] * other[None, :]).reshape(64) @ _TABLE
        scale = float(abs(prod).max()) or 1.0
        acc = _Slot(prod / scale)
        total += scale * 1e-3 + i * 0.5
    return total + float(acc.c[0].real)


class Calibrator:
    """Times :func:`kernel` every ``PERIOD_S`` seconds, from a signal handler.

    Use as a context manager around the timed work; the handler is removed
    on exit.
    """

    def __init__(self):
        self.calls: list[tuple[float, float]] = []  # (start, end) of each kernel call

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self.calls.append((start, time.perf_counter()))

    def __enter__(self) -> "Calibrator":
        kernel()  # warm the kernel's code paths before the first timed call
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def kernel_s(self) -> list[float]:
        return [end - start for start, end in self.calls]

    def inside(self, start: float, end: float) -> float:
        """Seconds of kernel calls that ran within [start, end]."""
        return sum(e - s for s, e in self.calls if s >= start and e <= end)

    def speed(self, start: float, end: float) -> float:
        """Host speed over [start, end] relative to the reference speed.

        From the kernel calls that started in the stretch, or from the one
        nearest to it when none did.
        """
        times = [e - s for s, e in self.calls if start <= s <= end]
        if not times:
            mid = (start + end) / 2
            s, e = min(self.calls, key=lambda call: abs(call[0] - mid))
            times = [e - s]
        return REFERENCE_S / fmean(times)


def at_reference_set_up(setup_s: float, numpy_s: float) -> float:
    """A fresh interpreter's set-up time restated at the reference speed.

    ``setup_s`` includes ``numpy_s``, the time of a plain ``import numpy``
    made first in the same interpreter.  That import does the same work for
    every version of the program and is the same kind of work as the rest of
    set-up (reading and unmarshalling modules, running their bodies), so it
    is the yardstick; the kernel is not, as it tracked import speed badly.
    """
    return setup_s * NUMPY_IMPORT_REFERENCE_S / numpy_s
