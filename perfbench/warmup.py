"""Set-up a user pays on a fresh interpreter: import scatjet, make one tiny call.

The call is a loose n = 1 limit integral, which fills the lazy Gauss-Legendre
node cache.  Run as a script, it prints the system-wide monotonic clock once
the call is done, so the launching process can time set-up without counting
interpreter teardown or its own wait for the exit.  It then prints the
calibration kernel's time, measured after the set-up, so that the launcher
can rescale set-up time to the reference host speed of ``hostspeed``.  The
worker calls ``warm()`` before it starts timing.
"""
from __future__ import annotations

import time

import scatjet  # noqa: F401  imports every module of the package
from scatjet.model_quadrature import QuadratureSpec, t_limit_integral


def warm() -> None:
    t_limit_integral(1, 2.0, 1, QuadratureSpec(rel_tol=1e-2))


if __name__ == "__main__":
    warm()
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    from hostspeed import kernel_seconds

    print(kernel_seconds(runs=5))
