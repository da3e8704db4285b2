"""Model integrals on the hyperbolic half-space and their quadrature.

Every model integral here is one softened two-center integral

    int_0^inf int_{R^n}  u^E (u^2 + |v|^2 + r_a^2)^-p (u^2 + |v - d e1|^2 + r_b^2)^-p  dv du

over ``(u, v) in (0, inf) x R^n``: one center at ``v = 0`` with width
``r_a``, one at ``v = d e1`` with width ``r_b``.  The public integrals pick
its parameters:

* ``j_integral(l, k, sigma, n)``: ``d = 1``, ``r_a = r_b = 0``,
  ``E = 2 Re(sigma) + k + 3 - 2l - n`` and ``p = Re(sigma)``; it converges
  iff ``2 Re(sigma) >= max(n-k+1, k+2)``.
* ``t_limit_integral(l, sigma, n)``: ``d = 1``, ``r_a = r_b = 0``,
  ``E = 2 sigma + 4 - 2l - n`` and ``p = sigma``: the dominated-convergence
  limit of the scaled full integral below as ``s -> 0`` and ``|z| -> inf``.
* ``i_full_integral(l, sigma, s, z)``: the integral over ``(t, U)``.  The
  exact substitution ``t = s/u``, ``U = V/u`` turns it into ``s^sigma`` times
  the softened integral with T's ``E`` and ``p``, ``r_a = s`` and ``r_b = 1``
  about ``V = z``.  That integrand depends on ``z`` only through ``|z|``, so
  ``z`` is rotated onto ``e1``: ``d = |z|``.  Rescaling ``(u, V)`` by ``|z|``
  gives ``s^-sigma |z|^(2 sigma - 5 + 2l) I_l -> T_l``.

All quadrature runs on the substitution ``u = tan(theta)``
(``theta in (0, pi/2)``) per half-line axis and ``v = tan(phi)``
(``phi in (-pi/2, pi/2)``) per real axis, with globally adaptive cell
subdivision and an embedded two-order Gauss-Legendre error estimate.  Cells
are seeded so that both centers and the edges of their widths sit on cell
faces, never at quadrature nodes.
"""
from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma as _gamma

from .errors import GammaPole, NotConvergent, QuadratureFailure

__all__ = [
    "QuadratureSpec",
    "ModelIntegralValue",
    "j_converges",
    "j_integral",
    "t_limit_integral",
    "i_full_integral",
    "green_kernel",
]

# Reported error = _SAFETY * sum of embedded-pair differences; the margin keeps
# "halving rel_tol moves the value by less than est_error" true in practice.
_SAFETY = 2.0

# Embedded Gauss-Legendre orders (low, high) by total dimension.
_ORDERS = {2: (7, 15), 3: (6, 12), 4: (5, 10)}


@dataclass(frozen=True)
class QuadratureSpec:
    """Error tolerances and budget for the adaptive quadrature."""

    rel_tol: float = 1e-7
    abs_tol: float = 1e-10
    max_subdivisions: int = 6000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class ModelIntegralValue:
    value: complex
    est_error: float
    converged: bool
    n_evals: int


@lru_cache(maxsize=None)
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(m)


def _tensor_rule(f, lo: np.ndarray, hi: np.ndarray, m: int) -> complex:
    """Tensor-product Gauss-Legendre of order ``m`` per axis on a box."""
    t, w = _leggauss(m)
    nodes, weights = [], []
    for a in range(len(lo)):
        c, hw = 0.5 * (lo[a] + hi[a]), 0.5 * (hi[a] - lo[a])
        nodes.append(c + hw * t)
        weights.append(hw * w)
    grids = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(f(pts), dtype=complex).reshape(grids[0].shape)
    out = vals
    for wa in reversed(weights):
        out = out @ wa
    return complex(out)


class _Cell:
    __slots__ = ("lo", "hi", "value", "err")

    def __init__(self, f, lo, hi, m_lo, m_hi):
        self.lo = lo
        self.hi = hi
        v_hi = _tensor_rule(f, lo, hi, m_hi)
        v_lo = _tensor_rule(f, lo, hi, m_lo)
        self.value = v_hi
        self.err = abs(v_hi - v_lo)


def _integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[np.ndarray],
    spec: QuadratureSpec,
) -> ModelIntegralValue:
    """Globally adaptive integration over the box spanned by ``breakpoints``.

    ``breakpoints[a]`` lists the initial cell edges along axis ``a``; the
    worst cell (largest embedded-pair difference) is repeatedly bisected
    along its longest axis.  Deterministic: ties break on insertion order.
    """
    dim = len(breakpoints)
    m_lo, m_hi = _ORDERS[dim]
    evals_per_cell = m_lo**dim + m_hi**dim

    cells: list[tuple[float, int, _Cell]] = []
    seq = 0
    total_v = 0.0 + 0.0j
    total_e = 0.0
    n_evals = 0
    edge_lists = [np.asarray(b, dtype=float) for b in breakpoints]
    for idx in np.ndindex(*(len(e) - 1 for e in edge_lists)):
        lo = np.array([edge_lists[a][i] for a, i in enumerate(idx)])
        hi = np.array([edge_lists[a][i + 1] for a, i in enumerate(idx)])
        cell = _Cell(f, lo, hi, m_lo, m_hi)
        n_evals += evals_per_cell
        total_v += cell.value
        total_e += cell.err
        heapq.heappush(cells, (-cell.err, seq, cell))
        seq += 1

    subdivisions = 0
    while True:
        tol = max(spec.rel_tol * abs(total_v), spec.abs_tol)
        if _SAFETY * total_e <= tol:
            break
        if subdivisions >= spec.max_subdivisions:
            raise QuadratureFailure(
                f"error estimate {_SAFETY * total_e:.3e} above tolerance {tol:.3e} "
                f"after {subdivisions} subdivisions ({n_evals} evals, {len(cells)} live cells)"
            )
        _, _, worst = heapq.heappop(cells)
        total_v -= worst.value
        total_e -= worst.err
        axis = int(np.argmax(worst.hi - worst.lo))
        mid = 0.5 * (worst.lo[axis] + worst.hi[axis])
        for half in range(2):
            lo = worst.lo.copy()
            hi = worst.hi.copy()
            (lo if half else hi)[axis] = mid
            child = _Cell(f, lo, hi, m_lo, m_hi)
            n_evals += evals_per_cell
            total_v += child.value
            total_e += child.err
            heapq.heappush(cells, (-child.err, seq, child))
            seq += 1
        subdivisions += 1

    return ModelIntegralValue(
        value=total_v, est_error=_SAFETY * total_e, converged=True, n_evals=n_evals
    )


# -- two-center integrand ---------------------------------------------------


def _two_center(E, p, n, d, r_a, r_b, spec) -> ModelIntegralValue:
    """The softened two-center integral of the module docstring.

    Powers are taken via exp/log.  The widths are squared only inside the
    integrand; the cell edges use them as given, so at zero width the edges
    reduce exactly to the unsoftened ones.
    """
    if not 1 <= n <= 3:
        raise ValueError("n must be 1..3 (quadrature dimension budget)")
    center = np.zeros(n)
    center[0] = d
    ra_sq, rb_sq = r_a * r_a, r_b * r_b

    def f(pts: np.ndarray) -> np.ndarray:
        u = np.tan(pts[:, 0])
        v = np.tan(pts[:, 1:])
        jac = (1.0 + u * u) * np.prod(1.0 + v * v, axis=1)
        A = u * u + np.sum(v * v, axis=1) + ra_sq
        B = u * u + np.sum((v - center) ** 2, axis=1) + rb_sq
        return np.exp(E * np.log(u) - p * (np.log(A) + np.log(B))) * jac

    u_cuts = {0.0, math.pi / 2, math.atan(1.0), math.atan(r_a)}
    if r_a < 1.0:
        u_cuts.add(math.atan(10.0 * r_a))
    breaks = [np.array(sorted(u_cuts))]
    for a in range(n):
        edges = (-r_a, r_a) + ((d - r_b, d, d + r_b) if a == 0 else (-r_b, r_b))
        cuts = {-math.pi / 2, 0.0, math.pi / 2}
        cuts.update(math.atan(x) for x in edges)
        breaks.append(np.array(sorted(cuts)))
    return _integrate_adaptive(f, breaks, spec)


# -- public integrals -------------------------------------------------------


def j_converges(l: int, k: int, sigma: complex, n: int) -> bool:
    """Absolute-convergence inequality ``2 Re(sigma) >= max(n-k+1, k+2)``."""
    return 2.0 * complex(sigma).real >= max(n - k + 1, k + 2)


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
    imaginary part for uniformity.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not j_converges(l, k, sigma, n):
        raise NotConvergent(
            f"2 Re(sigma) = {2 * complex(sigma).real:g} < max(n-k+1, k+2) = "
            f"{max(n - k + 1, k + 2)} for n={n}, k={k}"
        )
    p = complex(sigma).real
    E = 2.0 * p + k + 3 - 2 * l - n
    return _two_center(E, p, n, 1.0, 0.0, 0.0, spec)


def _t_convergent(l: int, sigma: complex, n: int) -> tuple[bool, str]:
    E_re = 2.0 * complex(sigma).real + 4 - 2 * l - n
    if E_re <= -1.0:
        return False, f"small-u exponent {E_re:g} <= -1"
    decay = 4.0 * complex(sigma).real - E_re
    if decay <= n + 1.0:
        return False, f"large-radius decay {decay:g} <= n+1 = {n + 1}"
    return True, ""


def t_limit_integral(
    l: int,
    sigma: complex,
    n: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ModelIntegralValue:
    """Limit integral ``T_l(sigma)`` with exponent ``2 sigma + 4 - 2l - n``.

    This is the ``s -> 0``, ``|z| -> inf`` limit of
    ``s^(-sigma) |z|^(2 sigma - 5 + 2l) * i_full_integral(l, sigma, s, z)``.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    ok, why = _t_convergent(l, sigma, n)
    if not ok:
        raise NotConvergent(f"T_{l} diverges for sigma={sigma}, n={n}: {why}")
    sig = complex(sigma)
    E = 2.0 * sig + 4 - 2 * l - n
    return _two_center(E, sig, n, 1.0, 0.0, 0.0, spec)


def i_full_integral(
    l: int,
    sigma: complex,
    s: float,
    z: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> ModelIntegralValue:
    """Full model integral ``I_l(sigma, s, z)`` over ``(t, U)``.

    Internally the exact substitution ``t = s/u``, ``U = V/u`` is applied
    first, giving

        s^sigma * integral of u^(2 sigma + 4 - 2l - n)
            (u^2 + |V|^2 + s^2)^-sigma (u^2 + |V - z|^2 + 1)^-sigma dV du.

    Both near-singular centers then sit at fixed locations (V = 0 with
    width ``s`` and V = z with width 1), so axis-aligned adaptive refinement
    stays efficient even for extreme separations like ``s = 1e-3``,
    ``|z| = 1e3``; the raw ``(t, U)`` form concentrates on a sheared ridge
    instead and starves the subdivision budget.  The integrand depends on
    ``z`` only through ``|z|``, so ``z`` is rotated onto ``e1`` first.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    if s <= 0:
        raise ValueError("s must be positive")
    zv = np.asarray(z, dtype=float)
    n = zv.size
    if not 1 <= n <= 3:
        raise ValueError("n must be 1..3 (quadrature dimension budget)")
    ok, why = _t_convergent(l, sigma, n)
    if not ok:
        raise NotConvergent(f"I_{l} diverges for sigma={sigma}, n={n}: {why}")
    sig = complex(sigma)
    E = 2.0 * sig + 4 - 2 * l - n
    raw = _two_center(E, sig, n, math.hypot(*zv), s, 1.0, spec)
    front = cmath.exp(sig * math.log(s))
    return ModelIntegralValue(
        value=front * raw.value,
        est_error=abs(front) * raw.est_error,
        converged=raw.converged,
        n_evals=raw.n_evals,
    )


def _near_nonpositive_int(w: complex, tol: float = 1e-12) -> bool:
    if abs(w.imag) > tol:
        return False
    r = round(w.real)
    return r <= 0 and abs(w.real - r) <= tol


def green_kernel(s: float, z: Sequence[float], sigma: complex, n: int) -> complex:
    """Leading scalar of the model Green kernel.

    ``pi^(-n/2)/2 * Gamma(sigma)/Gamma(sigma - (n-2)/2)
    * s^sigma / (1 + s^2 + |z|^2)^sigma``; raises :class:`GammaPole` when
    either Gamma argument sits at a nonpositive integer.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    sig = complex(sigma)
    for name, arg in (("sigma", sig), ("sigma - (n-2)/2", sig - (n - 2) / 2.0)):
        if _near_nonpositive_int(arg):
            raise GammaPole(f"Gamma argument {name} = {arg} is a nonpositive integer")
    zv = np.asarray(z, dtype=float)
    if zv.shape != (n,):
        raise ValueError(f"z must have length n={n}")
    const = math.pi ** (-n / 2.0) / 2.0 * _gamma(sig) / _gamma(sig - (n - 2) / 2.0)
    base = 1.0 + s * s + float(zv @ zv)
    return complex(const * np.exp(sig * (math.log(s) - math.log(base))))
