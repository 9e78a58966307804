"""Machine-speed probe for timings on a shared machine.

On a small shared VM the speed of one core drifts by 10-25% over seconds
to minutes, and CPU time drifts with it. To keep timings comparable across
runs, a fixed NumPy kernel (small einsum, matmul and ``eigvals`` calls plus
Python overhead, like the program's own mix) is timed every ``PERIOD_S``
seconds of a measured block, from a ``SIGALRM`` handler. Each stretch of
the block between two samples is rescaled by ``NOMINAL_S`` over the kernel
time measured at its end, and the kernel's own time is left out. The
result is in probe seconds: seconds at the speed where the kernel takes
``NOMINAL_S``. The kernel uses no code of ``quenchmps``, so a change to the
program moves the block's time and not the probe's.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.25
NOMINAL_S = 0.0125  # median kernel time on the 2-core VM the bounds were set on
_ITERATIONS = 40


class Block:
    """Time of one measured block: ``seconds`` in probe seconds and
    ``raw_s`` in wall seconds, both without the probe's own time."""

    def __init__(self):
        self.seconds = 0.0
        self.raw_s = 0.0


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._b = rng.standard_normal((2, 2, 2)) + 0j
        self._p = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        self._layer = rng.standard_normal((16, 16)) + 0j
        self._eye = np.eye(2, dtype=complex)

    def kernel_seconds(self):
        start = time.perf_counter()
        for _ in range(_ITERATIONS):
            np.einsum("uab,pbc->puac", self._b, self._p[:4]).reshape(-1, 2, 2)
            m = np.einsum("ts,tic,ij,sjd->cd", self._layer, self._p.conj(), self._eye, self._p)
            self._a @ self._a.conj().T
            max(abs(z) for z in np.linalg.eigvals(np.kron(m, m)))
        return time.perf_counter() - start

    def rescale(self, raw_s):
        """Probe seconds of a short stretch measured just before this call."""
        return raw_s * NOMINAL_S / self.kernel_seconds()

    @contextmanager
    def measuring(self):
        block = Block()
        last = [time.perf_counter()]

        def close_stretch():
            stretch = time.perf_counter() - last[0]
            block.raw_s += stretch
            block.seconds += self.rescale(stretch)
            last[0] = time.perf_counter()

        def on_alarm(_signum, _frame):
            close_stretch()
            # one-shot timer, re-armed here, so the handler never nests
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            last[0] = time.perf_counter()
            yield block
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        close_stretch()
