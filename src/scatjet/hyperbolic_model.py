"""The model operator's normal ODE and its vectorized solve.

The model operator in half-space coordinates ``(s, z)`` is
``D0 = -(s d_s)^2 + n s d_s - s^2 Lap_z``; at a frozen boundary point the
normal operator is ``alpha^2 (D0 - sigma (n - sigma))``, ``sigma`` the
indicial root.  A Fourier transform in ``z`` leaves one ODE per covector
``xi``, which in ``x = s |xi|`` and ``tau = log x`` reads

    f_tau_tau - n f_tau = (x^2 - sigma (n - sigma)) f.

With ``nu = sigma - n/2`` its Frobenius solutions about ``x = 0`` are
``phi_a = x^a sum_k c_k x^2k``, ``c_0 = 1``: at ``a = sigma`` with
``c_k = c_(k-1) / (4k (k + nu))``, at ``a = n - sigma`` with
``c_k = c_(k-1) / (4k (k - nu))``.  The solution that decays as
``x -> inf``, ``x^(n/2) K_nu(x)``, is ``A phi_(n-sigma) + B phi_sigma``, and

    B / A = 2^(n - 2 sigma) Gamma(n/2 - sigma) / Gamma(sigma - n/2)

is the principal symbol at ``|xi| = 1``.  In ``s`` the two terms carry
``|xi|^(n - sigma)`` and ``|xi|^sigma``, so the symbol at ``xi`` is
``B / A |xi|_h0^(2 sigma - n)``, with no ``alpha``.

:func:`frobenius_ratio` finds ``B / A`` from the ODE alone.  It integrates
the Riccati form, ``w = d log f / d tau``,

    w' = n w + x^2 - sigma (n - sigma) - w^2,

by fixed-step RK4 in ``tau``, vectorized over ``sigma``, inward from
``x0 = x_m + MARCH``, where ``w = (n - 1)/2 - x0``: inward the decaying
solution dominates, so the start's error falls like ``e^(-2 (x0 - x))``.  At
``x_m = max(MATCH_MIN, |Re nu|)`` it matches the series:

    B / A = (phi'_(n-sigma) - w phi_(n-sigma)) / (w phi_sigma - phi'_sigma),

primes in ``tau``.  There each series' log-derivative differs from ``w`` by
about ``2 x``, so nothing cancels, as it would at a small ``x`` or below
``|nu|``.  The recurrences are written in ``nu``: near a Gamma pole the only
small difference, ``k - nu``, is exact.
"""
from __future__ import annotations

import numpy as np

from .boundary_jets import float_or_complex
from .errors import GammaPole, check_dimension, near_integer, raise_first

STEPS = 2000  # RK4 steps in tau from x0 to x_m
TERMS = 80  # Frobenius terms k = 0 .. TERMS - 1 of each series
MATCH_MIN = 4.0  # x_m = max(MATCH_MIN, |Re nu|)
MARCH = 30.0  # x0 = x_m + MARCH
NU_MAX = 14.0  # the largest |Re nu| the solve is checked at
IM_NU_MAX = 0.5  # the largest |Im nu| it is checked at; at |Im nu| = 2 it is 3e-12 off


def frobenius_ratio(sigma, n: int) -> np.ndarray:
    """``B / A`` of the model ODE's decaying solution at ``|xi| = 1``, elementwise in ``sigma``.

    ``sigma`` is a scalar or an array, real or complex; the result has its
    shape, float64 for a real ``sigma`` and complex128 otherwise.  Refused,
    naming the first such ``sigma``: one that is not finite
    (:class:`ValueError`); an integer ``nu = sigma - n/2`` by
    :func:`~scatjet.errors.near_integer`, a Gamma pole
    (:class:`~scatjet.errors.GammaPole`); and ``|Re nu| > NU_MAX`` or
    ``|Im nu| > IM_NU_MAX``, past the range it is checked on (:class:`ValueError`).
    """
    check_dimension(n)
    sigma = float_or_complex(sigma)
    nu = sigma - n / 2.0
    beyond = ~((np.abs(nu.real) <= NU_MAX) & (np.abs(nu.imag) <= IM_NU_MAX))
    raise_first(
        0,
        [
            (~np.isfinite(sigma), ValueError, lambda i: f"sigma = {sigma[i]} is not finite"),
            (near_integer(nu), GammaPole, lambda i: f"sigma - n/2 = {nu[i]} is a Gamma pole"),
            (beyond, ValueError, lambda i: f"sigma - n/2 = {nu[i]} is past the checked range"),
        ],
    )
    x_m = np.maximum(MATCH_MIN, np.abs(nu.real))
    tau0 = np.log(x_m + MARCH)
    h = (np.log(x_m) - tau0) / STEPS
    c = sigma * (n - sigma)

    def forcing(half_steps):  # x^2 - sigma (n - sigma) at tau = tau0 + half_steps * h / 2
        return np.exp(2.0 * tau0 + half_steps * h) - c

    w = ((n - 1) / 2.0 - (x_m + MARCH)).astype(sigma.dtype)
    end = forcing(0)
    for k in range(STEPS):
        # w' = w (n - w) + forcing; each step's end is the next one's start
        start, mid, end = end, forcing(2 * k + 1), forcing(2 * k + 2)
        k1 = w * (n - w) + start
        k2 = (w2 := w + 0.5 * h * k1) * (n - w2) + mid
        k3 = (w3 := w + 0.5 * h * k2) * (n - w3) + mid
        k4 = (w4 := w + h * k3) * (n - w4) + end
        w = w + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def series(sign):
        """``phi_a`` and ``phi_a'`` at ``x_m``, over ``x_m^a``, for ``a = n/2 + sign nu``."""
        a = n / 2.0 + sign * nu
        term = np.ones_like(sigma)
        value, derivative = term, a * term
        for k in range(1, TERMS):
            term = term * (x_m * x_m / 4.0) / (k * (k + sign * nu))
            value, derivative = value + term, derivative + (a + 2 * k) * term
        return value, derivative

    phi_plus, dphi_plus = series(1.0)
    phi_minus, dphi_minus = series(-1.0)
    # x_m^(n - sigma) / x_m^sigma restores the powers the series leave out
    ratio = (dphi_minus - w * phi_minus) / (w * phi_plus - dphi_plus)
    return np.exp(-2.0 * nu * np.log(x_m)) * ratio
