"""Rescale measured times to a fixed host speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 1.7x, in spells of seconds to minutes, while other tenants load it.  A
raw time then says more about the spell than about the program.  So a fixed
calibration kernel, which shares no code with scatjet, is timed in the
measuring thread every ``INTERVAL_S`` seconds, from a SIGALRM handler that
runs between bytecodes, also in the middle of a long integral.  A measured
interval is rescaled to the speed at which the kernel takes ``KERNEL_REF_S``:

    rescaled = (interval - kernel time inside it) * mean(KERNEL_REF_S / k)

over the kernel samples ``k`` taken inside the interval and ``PAD_S`` around
it.  A speed-up of the program lowers the rescaled time as much as the raw
one; a slow spell of the host lowers both the program's speed and the
kernel's and cancels.  The kernel mixes a pure-Python integer loop with
complex NumPy array arithmetic at the sizes of 3-D and 4-D quadrature cells,
the kinds of work scatjet's hot paths do.  A sample is the faster of two
runs, so a preemption inside one run does not count.
"""
from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

import numpy as np

INTERVAL_S = 0.5
PAD_S = 1.0
# the kernel's time at the reference speed: its median on the 2-vCPU host of
# the recorded baseline (README.md)
KERNEL_REF_S = 4.5e-3

_NODES_3D = np.linspace(-1.0, 1.0, 15)
_NODES_4D = np.linspace(-1.0, 1.0, 10)


def kernel() -> None:
    s = 0
    for i in range(15000):
        s += (i * i) % 7
    for i in range(10):  # cache-resident arrays, like a 3-D cell's rule
        grids = np.meshgrid(_NODES_3D, _NODES_3D + i, _NODES_3D, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        ((pts[:, 0] ** 2 + pts[:, 1] ** 2 + 1.0) ** (-(2.2 + 0.3j))).sum()
    for i in range(3):  # 10^4-point arrays that leave the L1 cache, like a 4-D cell's rule
        grids = np.meshgrid(_NODES_4D, _NODES_4D + i, _NODES_4D, _NODES_4D, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        ((pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2 + 1.0) ** -2.6 * np.tan(pts[:, 3])).sum()


def kernel_seconds(runs: int = 2) -> float:
    """The fastest of ``runs`` timed kernel runs."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Samples the kernel in the background of the running thread."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        k = kernel_seconds()
        self.starts.append(t0)
        self.kernel_s.append(k)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def rescale(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]`` of perf_counter, rescaled to reference speed."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        inside = sum(min(e, t1) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        lo, hi = bisect_left(self.starts, t0 - PAD_S), bisect_right(self.starts, t1 + PAD_S)
        near = self.kernel_s[lo:hi] or self.kernel_s
        speed = sum(KERNEL_REF_S / k for k in near) / len(near)
        return (t1 - t0 - inside) * speed

    def median_kernel_s(self) -> float:
        return float(np.median(self.kernel_s))
