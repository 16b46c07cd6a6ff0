"""Machine-speed reference kernel and speed normalisation of timestamps.

The CPU under the benchmark changes speed by tens of percent over tens of
seconds, and wall time follows it.  ``SpeedClock`` re-measures the machine
while the workload runs: a ``SIGALRM`` timer runs ``reference_kernel`` every
``INTERVAL_S`` seconds and records when it ran.  After the run, ``timeline()``
maps any ``time.perf_counter()`` stamp taken in between to two clocks that
leave out the kernel's own time: wall seconds, and normalised seconds.  The
stretch between two kernel runs is scaled by ``NOMINAL_KERNEL_S / k``, with
``k`` the median of the four kernel times around it (two before, two after).
A normalised second is therefore a second on a machine on which the kernel
takes ``NOMINAL_KERNEL_S``.

The kernel does not import the program under test.  It mixes interpreter
work with small 4x4 numpy/LAPACK calls, which is the mix the program spends
its time in.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Kernel time, in seconds, that defines one normalised second.
NOMINAL_KERNEL_S = 1.5e-3
#: Time between kernel runs; often enough to follow speed changes inside a
#: multi-second operation, at about 2 % of the run.
INTERVAL_S = 0.1

_REPS = 60
_A = np.random.default_rng(7).normal(size=(4, 8)).view(complex)
_H = _A + _A.conj().T


def reference_kernel() -> float:
    """Run the fixed reference workload once and return its duration in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(_REPS):
        w, v = np.linalg.eigh(_H * (1.0 + 1e-3 * k))
        u = (v * np.exp(-1j * w)) @ v.conj().T
        acc += abs(np.linalg.det(u)) + float(np.real(np.trace(u @ u.T)))
        s = 0
        for j in range(30):
            s += j * j
        acc += s * 1e-12
    if not acc > 0.0:
        raise RuntimeError("reference kernel produced a non-positive checksum")
    return time.perf_counter() - t0


def kernel_scale(n: int = 5) -> float:
    """``NOMINAL_KERNEL_S`` over the median of ``n`` kernel runs made now."""
    return NOMINAL_KERNEL_S / statistics.median(reference_kernel() for _ in range(n))


class SpeedClock:
    """Samples the machine speed from a timer while the workload runs."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._previous_handler = None

    def start(self) -> None:
        for _ in range(2):
            self._tick()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        for _ in range(2):
            self._tick()

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.runs.append((start, time.perf_counter()))

    def ref_ms(self) -> float:
        """Median kernel time over the run, in milliseconds."""
        return 1e3 * statistics.median(end - start for start, end in self.runs)

    def timeline(self) -> "Timeline":
        return Timeline(self.runs)


class Timeline:
    """Maps perf_counter stamps between the first and last kernel run to
    ``(normalised_s, wall_s)``, both without the kernel's time."""

    def __init__(self, runs: list[tuple[float, float]]) -> None:
        starts = np.array([s for s, _ in runs])
        ends = np.array([e for _, e in runs])
        k = ends - starts
        # Gap i lies between run i and run i + 1; its speed is read from runs i-1 .. i+2.
        scale = np.array([NOMINAL_KERNEL_S / np.median(k[max(0, i - 1):i + 3]) for i in range(len(k) - 1)])
        gaps = starts[1:] - ends[:-1]
        self._stamps = np.column_stack([starts, ends]).ravel()
        self._norm = self._cumulative(gaps * scale)
        self._wall = self._cumulative(gaps)

    @staticmethod
    def _cumulative(gap_values: np.ndarray) -> np.ndarray:
        # Breakpoints alternate kernel start, kernel end; only the gaps between runs count.
        steps = np.zeros(2 * len(gap_values) + 1)
        steps[1::2] = gap_values
        return np.r_[0.0, np.cumsum(steps)]

    def __call__(self, stamps) -> tuple[np.ndarray, np.ndarray]:
        stamps = np.asarray(stamps, dtype=float)
        return np.interp(stamps, self._stamps, self._norm), np.interp(stamps, self._stamps, self._wall)
