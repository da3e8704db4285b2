"""Model integrals on the hyperbolic half-space, in closed form.

Every model integral here is one softened two-center integral

    int_0^inf int_{R^n}  u^E (u^2 + |v|^2 + r_a^2)^-p (u^2 + |v - d e1|^2 + r_b^2)^-p  dv du

over ``(u, v) in (0, inf) x R^n``: one center at ``v = 0`` with width
``r_a``, one at ``v = d e1`` with width ``r_b``.  The public integrals pick
its parameters:

* ``j_integral(l, k, sigma, n)``: ``d = 1``, ``r_a = r_b = 0``,
  ``E = 2 Re(sigma) + k + 3 - 2l - n`` and ``p = Re(sigma)``.
* ``t_limit_integral(l, sigma, n)``: ``d = 1``, ``r_a = r_b = 0``,
  ``E = 2 sigma + 4 - 2l - n`` and ``p = sigma``: the dominated-convergence
  limit of the scaled full integral below as ``s -> 0`` and ``|z| -> inf``.
* ``i_full_integral(l, sigma, s, z)``: the integral over ``(t, U)``.  The
  exact substitution ``t = s/u``, ``U = V/u`` turns it into ``s^sigma`` times
  the softened integral with T's ``E`` and ``p``, ``r_a = s`` and ``r_b = 1``
  about ``V = z``.  That integrand depends on ``z`` only through ``|z|``, so
  ``d = |z|``.  Rescaling ``(u, V)`` by ``|z|`` gives
  ``s^-sigma |z|^(2 sigma - 5 + 2l) I_l -> T_l``.

A Feynman parameter ``t`` joins the two centers; the ``v``-integral and then
the ``u``-integral are Beta integrals, which leaves

    pi^(n/2) Gamma((E+1)/2) Gamma(b) / (2 Gamma(p)^2)
        * int_0^1 t^(p-1) (1-t)^(p-1) c(t)^-b dt,
    c(t) = t (1-t) d^2 + t r_a^2 + (1-t) r_b^2,
    a = (E+1+n)/2 - p,   b = 2p - (E+1+n)/2.

It converges iff ``Re b > 0`` and ``Re (E+1)/2 > 0`` (at zero widths also
``Re a > 0``, which holds for every integral here: ``a = (5-2l)/2`` for T
and I, ``(k+4-2l)/2`` for J).

* T and J have ``d = 1`` and zero widths, so the ``t``-integral is
  ``B(a, a)`` and the value is the closed form
  ``pi^(n/2) Gamma((E+1)/2) Gamma(b) Gamma(a)^2 / (2 Gamma(p)^2 Gamma(2a))``,
  summed in ``loggamma``.  Their ``n_evals`` is 0 and ``est_error`` is a
  rounding bound, judged against the ``QuadratureSpec`` like an error
  estimate: a bound above the tolerance raises ``QuadratureFailure``.
* I keeps the 1-D ``t``-integral.  Each half of ``(0, 1)`` is integrated in
  the log of its distance to the near end (``log t``, ``log(1-t)``), where
  the integrand is smooth and decays like ``e^(p x)``.  A composite
  Gauss-Legendre rule covers each half on unit panels, with a break at the
  knee of ``c`` (``t`` about ``1/|z|^2``, ``1-t`` about ``s^2/|z|^2``), down
  to where the integrand has fallen by ``e^-40``.  A half-order rule on the
  same panels gives ``est_error``; every panel is bisected until it meets
  the ``QuadratureSpec``, within ``max_subdivisions`` bisections in all.  A
  tolerance below the rule's rounding bound, one rounding unit of the summed
  magnitude of its panels, is refused with ``QuadratureFailure`` at once, and
  so is a level that does not lower an estimate within eight such bounds:
  the estimate's own noise then sets it.
  ``n_evals`` counts integrand evaluations.  A refinement level is one array
  pass: the panels of both halves and the nodes of both orders are
  evaluated together, in float64 when ``sigma`` is real and in complex
  arithmetic otherwise.  Either way the nodes, the panels and ``n_evals``
  are the same; only rounding differs.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import loggamma

from .errors import (
    GammaPole,
    NotConvergent,
    QuadratureFailure,
    check_dimension,
    near_integer,
    real_part_if_real,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Error tolerances of every model integral and the bisection budget of ``I``'s rule."""

    rel_tol: float = 1e-7
    abs_tol: float = 1e-10
    max_subdivisions: int = 6000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):  # NaN fails too
            raise ValueError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class ModelIntegralValue:
    value: complex
    est_error: float
    converged: bool
    n_evals: int


# Gauss-Legendre nodes on [-1, 1]: the 16-point rule, then the 8-point rule
# that checks it.  Column 0 of the (24, 2) table weights the 16-point nodes,
# column 1 the 8-point ones, so one product gives both sums of every panel.
_HIGH = np.polynomial.legendre.leggauss(16)
_LOW = np.polynomial.legendre.leggauss(8)
_NODES = np.concatenate([_HIGH[0], _LOW[0]])
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[: _HIGH[1].size, 0] = _HIGH[1]
_WEIGHTS[_HIGH[1].size :, 1] = _LOW[1]
_PANEL = 1.0  # panel width in the log variable
_DEPTH = 40.0  # the rule stops where Re(p) * (distance below the knee) reaches this
_ROUNDING = 4 * np.finfo(float).eps  # relative rounding per unit of summed log magnitude


def _check_arguments(l: int, sigma: complex, n: int) -> None:
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    check_dimension(n)
    if not cmath.isfinite(complex(sigma)):
        raise ValueError(f"sigma = {sigma} is not finite")


def _divergence(E: complex, p: complex, n: int) -> str:
    """Why the two-center integral diverges, or ``""`` when it converges."""
    half = (complex(E).real + 1.0) / 2.0
    if half <= 0.0:
        return f"Re (E+1)/2 = {half:g} <= 0 (small-u end)"
    b = 2.0 * complex(p).real - (complex(E).real + 1.0 + n) / 2.0
    if b <= 0.0:
        return f"Re b = {b:g} <= 0 (large-radius end)"
    return ""


def _front_terms(E: complex, p: complex, n: int) -> tuple[complex, list]:
    """``b`` and the log terms of ``pi^(n/2) Gamma((E+1)/2) Gamma(b) / (2 Gamma(p)^2)``.

    The terms are Python numbers: past double range their arithmetic gives
    inf or NaN, which callers refuse, without numpy's warnings.
    """
    b = 2 * p - (E + 1 + n) / 2
    terms = [
        0.5 * n * math.log(math.pi),
        complex(loggamma((E + 1) / 2)),
        complex(loggamma(b)),
        -math.log(2.0),
        -2 * complex(loggamma(p)),
    ]
    return b, terms


def _closed_form(
    E: complex, p: complex, n: int, spec: QuadratureSpec, name: Callable[[], str]
) -> ModelIntegralValue:
    """The unsoftened integral at ``d = 1``: the ``t``-integral is ``B(a, a)``.

    ``est_error`` bounds the rounding of the summed log terms.  A bound above
    the tolerance of ``spec``, or a value past double range (inf or NaN),
    raises :class:`QuadratureFailure` with a message led by ``name()``.
    """
    b, terms = _front_terms(E, p, n)
    a = p - b
    terms += [2 * complex(loggamma(a)), -complex(loggamma(2 * a))]
    try:
        value = cmath.exp(sum(terms))
        est = _ROUNDING * (1 + sum(abs(t) for t in terms)) * abs(value)
    except (OverflowError, ValueError):
        value = est = math.nan
    if not cmath.isfinite(value):
        raise QuadratureFailure(f"{name()}: the closed form leaves double range")
    tol = max(spec.rel_tol * abs(value), spec.abs_tol)
    # written so that a NaN bound fails too
    if not est <= tol:
        raise QuadratureFailure(
            f"{name()}: closed-form rounding bound {est:.3e} above tolerance {tol:.3e}; "
            "the summed loggamma terms lose the value's digits"
        )
    return ModelIntegralValue(value, est, True, 0)


# -- the 1-D rule of I -------------------------------------------------------


def _panel_starts(start: float, stop: float) -> list:
    """All but the last edge of ``np.linspace(start, stop, m + 1)``, ``m`` unit panels.

    ``m = ceil((stop - start) / _PANEL)``; the edges are ``start + k step``
    with ``step = (stop - start) / m``, the values ``linspace`` computes.
    """
    m = math.ceil((stop - start) / _PANEL)
    step = (stop - start) / max(m, 1)
    return [start + k * step for k in range(m)]


def _panel_sums(mid, half, near, far, p, b, d_sq):
    """``(panels, 2)``: the 16- and 8-point sums over panels of both halves of ``(0, 1)``.

    A panel has midpoint ``mid`` and half-width ``half`` in ``x``, the log of
    ``w``, the distance to its half's near end; ``near`` and ``far`` are the
    ``(panels, 1)`` squared widths of that half.  The integrand (Jacobian
    included) is ``w^p (1-w)^(p-1) c^-b`` with
    ``c = w (1-w) d^2 + w near + (1-w) far``, evaluated once at all 24 nodes
    of every panel, in float64 when ``p`` and ``b`` are floats.
    """
    x = half[:, None] * _NODES
    x += mid[:, None]
    w = np.exp(x)
    rest = 1.0 - w
    c = w * rest
    c *= d_sq
    c += w * near
    c += rest * far
    f = p * x
    f += (p - 1) * np.log1p(-w)
    f -= b * np.log(c)
    sums = np.exp(f, out=f) @ _WEIGHTS
    sums *= half[:, None]
    return sums


def _feynman_rule(p, b, d: float, s: float, scale: complex, spec: QuadratureSpec, name):
    """``(int_0^1 t^(p-1) (1-t)^(p-1) c(t)^-b dt, est_error, n_evals)`` for I.

    ``c(t) = t (1-t) d^2 + t s^2 + (1-t)``.  The error is judged on the
    integral times ``scale``; each refinement bisects every panel, and each
    refusal (module docstring) is led by ``name()``.  The panels of both
    halves sit in one array, the half near ``t = 0`` before the seam, so a
    level is one :func:`_panel_sums` pass over 24 nodes a panel; each half
    is still summed on its own.  Float ``p`` and ``b`` run it in float64 and
    give a float sum.  The panel edges are the values ``np.linspace`` gave,
    bit for bit, so the nodes and ``n_evals`` do not depend on the arithmetic.
    """
    d_sq, s_sq = d * d, s * s
    top = -math.log(2.0)
    lo, counts = [], []
    # the half near t = 0 (near width s, far width 1), then the one near t = 1
    for near, far in ((s_sq, 1.0), (1.0, s_sq)):
        knee = min(math.log(far / (far + near + d_sq)), top)
        starts = _panel_starts(knee - _DEPTH / p.real, knee) + _panel_starts(knee, top)
        lo += starts
        counts.append(len(starts))
    seam = counts[0]
    lo = np.array(lo)
    # a panel ends where the next one of its half starts; each half's last ends at top
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[seam - 1 : seam] = hi[-1:] = top
    widths = np.empty((lo.size, 2))
    widths[:seam] = s_sq, 1.0
    widths[seam:] = 1.0, s_sq
    n_evals = subdivisions = 0
    previous = math.inf
    while True:
        mid = 0.5 * (hi + lo)
        sums = _panel_sums(mid, 0.5 * (hi - lo), widths[:, :1], widths[:, 1:], p, b, d_sq)
        high, gap = sums[:, 0], np.abs(sums[:, 0] - sums[:, 1])
        value = (np.add.reduce(high[:seam]) + np.add.reduce(high[seam:])).item()
        est = float(np.add.reduce(gap[:seam]) + np.add.reduce(gap[seam:]))
        panels = mid.size
        n_evals += panels * _NODES.size
        est *= abs(scale)
        tol = max(spec.rel_tol * abs(scale * value), spec.abs_tol)
        if est <= tol:
            return value, est, n_evals
        # one rounding unit of the summed magnitude: no bisection resolves less
        floor = np.finfo(float).eps * float(np.add.reduce(np.abs(high))) * abs(scale)
        if tol < floor:
            raise QuadratureFailure(
                f"{name()}: error estimate {est:.3e} above tolerance {tol:.3e}, which is below "
                f"the rule's rounding bound {floor:.3e} ({n_evals} evals, {panels} panels): "
                "the 16- and 8-point sums cannot resolve it"
            )
        # within eight rounding bounds an estimate that stops falling is set by its
        # own noise: no further bisection would meet the tolerance
        if previous <= est <= 8.0 * floor:
            raise QuadratureFailure(
                f"{name()}: error estimate stalled at {previous:.3e} above tolerance {tol:.3e}: "
                f"bisecting every panel again gave {est:.3e} ({n_evals} evals, {panels} panels)"
            )
        if subdivisions + panels > spec.max_subdivisions:
            raise QuadratureFailure(
                f"{name()}: error estimate {est:.3e} above tolerance {tol:.3e} after "
                f"{subdivisions} subdivisions ({n_evals} evals, {panels} panels); bisecting "
                f"every panel would exceed max_subdivisions={spec.max_subdivisions}"
            )
        subdivisions += panels
        previous = est
        # panel i becomes panels 2i and 2i + 1, split at its midpoint
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
        widths = np.repeat(widths, 2, axis=0)
        seam *= 2


# -- public integrals -------------------------------------------------------


def _j_exponents(l: int, k: int, sigma: complex, n: int) -> tuple[float, float]:
    p = complex(sigma).real
    return 2.0 * p + k + 3 - 2 * l - n, p


def j_converges(l: int, k: int, sigma: complex, n: int) -> bool:
    """Absolute-convergence inequality ``2 Re(sigma) >= max(n-k+1, k+2)``.

    At equality the integral can still diverge: at ``l = 1`` and
    ``2 Re(sigma) = k + 2``, ``b = 0`` and J diverges logarithmically.  So the
    closed form's conditions ``Re b > 0`` and ``Re (E+1)/2 > 0`` must hold too.
    """
    E, p = _j_exponents(l, k, sigma, n)
    return 2.0 * p >= max(n - k + 1, k + 2) and not _divergence(E, p, n)


def j_integral(
    l: int,
    k: int,
    sigma: complex,
    n: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ModelIntegralValue:
    """Convergence-scale integral with exponent ``2 Re(sigma) + k + 3 - 2l - n``.

    The integrand is the absolute-value one (both powers use ``Re sigma``),
    so the value is real positive; it is returned as a complex with zero
    imaginary part for uniformity.  The value is the closed form; its
    rounding bound must meet the tolerance of ``spec``.
    """
    _check_arguments(l, sigma, n)
    if k < 1:
        raise ValueError("k must be >= 1")
    E, p = _j_exponents(l, k, sigma, n)
    if not j_converges(l, k, sigma, n):
        why = _divergence(E, p, n) or (
            f"2 Re(sigma) = {2 * p:g} < max(n-k+1, k+2) = {max(n - k + 1, k + 2)}"
        )
        raise NotConvergent(f"J_{l} diverges for n={n}, k={k}: {why}")
    return _closed_form(
        complex(E), complex(p), n, spec, lambda: f"J_{l} at sigma={sigma}, n={n}, k={k}"
    )


def t_limit_integral(
    l: int,
    sigma: complex,
    n: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ModelIntegralValue:
    """Limit integral ``T_l(sigma)`` with exponent ``2 sigma + 4 - 2l - n``.

    This is the ``s -> 0``, ``|z| -> inf`` limit of
    ``s^(-sigma) |z|^(2 sigma - 5 + 2l) * i_full_integral(l, sigma, s, z)``:

        T_l = (pi^(n/2)/2) Gamma(sigma + (5-2l-n)/2) Gamma(sigma - (5-2l)/2)
              Gamma((5-2l)/2)^2 / (Gamma(sigma)^2 Gamma(5-2l)).

    The value is the closed form; its rounding bound must meet the
    tolerance of ``spec``.  Where T_l converges it has no zeros.
    """
    _check_arguments(l, sigma, n)
    sig = complex(sigma)
    E = 2.0 * sig + 4 - 2 * l - n
    why = _divergence(E, sig, n)
    if why:
        raise NotConvergent(f"T_{l} diverges for sigma={sigma}, n={n}: {why}")
    return _closed_form(E, sig, n, spec, lambda: f"T_{l} at sigma={sigma}, n={n}")


def i_full_integral(
    l: int,
    sigma: complex,
    s: float,
    z: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> ModelIntegralValue:
    """Full model integral ``I_l(sigma, s, z)`` over ``(t, U)``.

    The exact substitution ``t = s/u``, ``U = V/u`` gives

        s^sigma * integral of u^(2 sigma + 4 - 2l - n)
            (u^2 + |V|^2 + s^2)^-sigma (u^2 + |V - z|^2 + 1)^-sigma dV du,

    which depends on ``z`` only through ``|z|``; the module docstring's 1-D
    rule evaluates it to the tolerances of ``spec``.  A front factor, a
    knee of the rule or a value (overflowed or underflowed to zero) past
    double range, a rule with no panel, or an integrand that underflows at
    every node of the rule (a zero sum that would pass any error check),
    raises :class:`QuadratureFailure`, as does each refusal of the rule;
    every such message is led by ``I_l at sigma=..., s=..., n=...``.  A ``rel_tol``
    below ``6e-16`` may be refused as stalled where a noise dip would meet it.
    """
    zs = [float(x) for x in z]
    n = len(zs)
    _check_arguments(l, sigma, n)
    if not (0 < s < math.inf):
        raise ValueError(f"s = {s} must be positive and finite")
    if not all(map(math.isfinite, zs)):
        raise ValueError(f"z = {np.asarray(zs)} is not finite")
    sig = complex(sigma)
    E = 2.0 * sig + 4 - 2 * l - n
    why = _divergence(E, sig, n)
    if why:
        raise NotConvergent(f"I_{l} diverges for sigma={sigma}, n={n}: {why}")

    def name():
        return f"I_{l} at sigma={sigma}, s={s}, n={n}"

    b, terms = _front_terms(E, sig, n)
    log_front = sum(terms) + sig * math.log(s)
    try:
        front = cmath.exp(log_front)
    except (OverflowError, ValueError):
        # past double range cmath raises; the refusal below names numpy's inf or NaN
        with np.errstate(all="ignore"):
            front = complex(np.exp(log_front))
    # refused before the rule runs: an overflowed front fails every panel's check,
    # and an underflowed one makes a zero value
    if front == 0 or not cmath.isfinite(front):
        raise QuadratureFailure(f"{name()}: the front factor {front} leaves double range")
    d = math.hypot(*zs)
    # the rule's knees are 1 and s^2 over 1 + s^2 + |z|^2; the lower must be a double > 0
    if not min(s * s, 1.0) / (1.0 + s * s + d * d) > 0:
        raise QuadratureFailure(
            f"{name()}: the rule's knee min(s^2, 1) / (1 + s^2 + |z|^2) leaves double range "
            f"(|z| = {d:g})"
        )
    # a real p and b run the rule in float64, whose exp and log cost a tenth of the complex ones
    p, b = real_part_if_real(sig), real_part_if_real(b)
    value, est, n_evals = _feynman_rule(p, b, d, s, front, spec, name)
    # a half has no panel when its knee is at the top and the span below the knee rounds away
    if not n_evals:
        raise QuadratureFailure(
            f"{name()}: the rule has no panel, so no node is evaluated: both knees sit at the "
            f"top, -log 2, and the span {_DEPTH:g} / Re(sigma) = {_DEPTH / sig.real:.3e} below "
            "them rounds away"
        )
    # each node's integrand is an exponential, so a zero sum means every one underflowed
    if value == 0:
        raise QuadratureFailure(
            f"{name()}: the integrand underflows at every node of the rule, so its zero sum "
            "is no value"
        )
    result = front * value
    if result == 0 or not cmath.isfinite(result):
        raise QuadratureFailure(
            f"{name()}: the front factor {front:.3e} times the rule's sum "
            f"{complex(value):.3e} leaves double range"
        )
    return ModelIntegralValue(result, est, True, n_evals)


def green_kernel(s: float, z: Sequence[float], sigma: complex, n: int) -> complex:
    """Leading scalar of the model Green kernel.

    ``pi^(-n/2)/2 * Gamma(sigma)/Gamma(sigma - (n-2)/2)
    * s^sigma / (1 + s^2 + |z|^2)^sigma``; raises :class:`ValueError` for an
    ``n`` outside 1..3, an ``s`` that is not positive and finite or a ``z``
    that is not finite, :class:`GammaPole` when either Gamma argument sits
    at a nonpositive integer (by :func:`~scatjet.errors.near_integer`,
    which judges none past ``|Re| = 2^52``), and :class:`QuadratureFailure`
    when the value leaves double range or underflows to zero.
    """
    check_dimension(n)
    if not (0 < s < math.inf):
        raise ValueError(f"s = {s} must be positive and finite")
    sig = complex(sigma)
    for name, arg in (("sigma", sig), ("sigma - (n-2)/2", sig - (n - 2) / 2.0)):
        if near_integer(arg) and round(arg.real) <= 0:
            raise GammaPole(f"Gamma argument {name} = {arg} is a nonpositive integer")
    zv = np.asarray(z, dtype=float)
    if zv.shape != (n,):
        raise ValueError(f"z must have length n={n}")
    if not np.all(np.isfinite(zv)):
        raise ValueError(f"z = {zv} is not finite")
    base = 1.0 + s * s + float(zv @ zv)
    # past double range the value comes out inf or NaN, which is refused
    with np.errstate(all="ignore"):
        const = math.pi ** (-n / 2.0) / 2.0 * _gamma(sig) / _gamma(sig - (n - 2) / 2.0)
        value = complex(const * np.exp(sig * (math.log(s) - math.log(base))))
    if not cmath.isfinite(value):
        raise QuadratureFailure(
            f"G at sigma={sig}: value {value} (error 0.0) is not finite in double precision"
        )
    # off the Gamma poles refused above, a zero is an underflow
    if value == 0:
        raise QuadratureFailure(
            f"G at sigma={sig}: value {value} (error 0.0) underflows to zero in double precision"
        )
    return value
