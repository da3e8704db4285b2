"""Slow independent reference routes used to freeze expected test values.

The two-center reference integrator deliberately shares nothing with
:mod:`scatjet.model_quadrature`, which reduces the integral with a Feynman
parameter to Gamma functions (and, for I, a 1-D integral): no Feynman
parameter, no adaptivity, no error estimate.  It integrates the raw integrand

    u^E * (u^2 + |v|^2 + a_shift)^-p * (u^2 + |v - e1|^2 + b_shift)^-p

over truncated boxes ``u in (0, R], |v_i| <= R`` with Gauss-Legendre panels
geometrically graded toward the integrable corners, then removes the
truncation tail by fitting ``I(R_m) = I_inf - R_m^-q (a0 + a1/R_m + a2/R_m^2)``
across four radii with the known leading tail power
``q = 4 Re p - Re E - n - 1``.

For ``n >= 2`` the v-integral is reduced to cylindrical coordinates
``(v1, rho)`` with weight ``omega_{n-2} rho^(n-2)``, so the reference stays
at most three-dimensional for every supported ``n``.

The first-order references build the angular samples and each point's full
design entry by entry from the Hessian kernel ``radial_derivative_kernel``,
take a patch's first-order data by linear solves against its ``h0``, and
solve the design by one SVD per point;
:func:`scatjet.forward_scattering.singularity_coefficient` and
:func:`scatjet.inversion.first_order_recovery` factor both instead, so they
share only the profile factors and the order of the unknowns.

The covector-norm references take ``|xi|_{h0}`` by one linear solve per
point and covector, and peel the Gamma prefactor of every symbol sample at
that sample's own root; the library reads a kept inverse of ``h0`` and peels
once per point, at the mean root of its samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from scatjet.forward_scattering import symmetric_pairs

R0 = 50.0
N_RADII = 4
GRADE = 4.0
LEVELS = 9  # innermost graded edge GRADE**-LEVELS ~ 4e-6
ORDER = 12


def _graded_down(to: float = 1.0) -> list[float]:
    return [to * GRADE**-j for j in range(LEVELS, 0, -1)]


def _outward(radii: np.ndarray) -> list[float]:
    out = [GRADE**j for j in range(1, 3)]  # 4, 16
    return out + list(radii)


def _u_edges(radii: np.ndarray) -> np.ndarray:
    return np.array([0.0] + _graded_down() + [1.0] + _outward(radii))


def _v_edges(radii: np.ndarray) -> np.ndarray:
    around0 = [-1.0] + [-e for e in reversed(_graded_down())] + [0.0] + _graded_down() + [1.0]
    around1 = [1.0 + d for d in around0]
    out = _outward(radii)
    edges = sorted(set(around0 + around1 + out + [-e for e in out]))
    return np.array(edges)


def _panels(edges: np.ndarray, order: int = ORDER):
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return mid + half * x, half * w  # (panels, order) nodes and weights


def _inside(edges: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(m, panel) mask: panel entirely within the box of radius ``radii[m]``."""
    extent = np.maximum(np.abs(edges[:-1]), np.abs(edges[1:]))
    return extent[None, :] <= radii[:, None] * (1.0 + 1e-12)


def two_center_truncated(
    E: complex,
    p: complex,
    n: int,
    a_shift: float = 0.0,
    b_shift: float = 0.0,
) -> complex:
    """Tail-extrapolated truncated-Gauss value of the two-center integral."""
    E = complex(E)
    p = complex(p)
    # Complex exponents leave the tail oscillatory: scaling the shell x -> R*x
    # gives exactly R^(E - 4p + n + 1) times a 1/R correction series, so the
    # fitted power must keep its imaginary part.
    q = 4.0 * p - E - n - 1.0
    if q.real <= 0.25:
        raise ValueError(f"tail power Re q={q.real:g} too small for reliable extrapolation")
    radii = R0 * 2.0 ** np.arange(N_RADII)

    ue = _u_edges(radii)
    ve = _v_edges(radii)
    un, uw = _panels(ue)
    vn, vw = _panels(ve)
    pu, o = un.shape
    pv = vn.shape[0]

    if n == 1:
        u = un[:, :, None, None]
        v = vn[None, None, :, :]
        w2 = 0.0
        weight = 1.0
        cells = _cell_sums(u, v, w2, weight, E, p, a_shift, b_shift, uw, vw, None)
    else:
        # cylindrical reduction: dv = omega_{n-2} rho^(n-2) dv1 drho
        omega = 2.0 * np.pi ** ((n - 1) / 2.0) / _gamma((n - 1) / 2.0)
        re = _u_edges(radii)  # rho shares the u-axis grading
        rn, rw = _panels(re)
        pr = rn.shape[0]
        cells = np.zeros((pu, pv, pr), dtype=complex)
        for i in range(pu):
            u = un[i][:, None, None, None, None]
            v = vn[None, :, :, None, None]
            rho = rn[None, None, None, :, :]
            f = _integrand(u, v, rho * rho, omega * rho ** (n - 2), E, p, a_shift, b_shift)
            cells[i] = np.einsum("a,bc,de,abcde->bd", uw[i], vw, rw, f)
        in_u = _inside(ue, radii)
        in_v = _inside(ve, radii)
        in_r = _inside(re, radii)
        partial = np.einsum("uvr,mu,mv,mr->m", cells, in_u, in_v, in_r)
        return _tail_solve(partial, radii, q)

    in_u = _inside(ue, radii)
    in_v = _inside(ve, radii)
    partial = np.einsum("uv,mu,mv->m", cells, in_u, in_v)
    return _tail_solve(partial, radii, q)


def _integrand(u, v, rho_sq, weight, E, p, a_shift, b_shift):
    a = u * u + v * v + rho_sq + a_shift
    b = u * u + (v - 1.0) ** 2 + rho_sq + b_shift
    return np.exp(E * np.log(u) - p * (np.log(a) + np.log(b))) * weight


def _cell_sums(u, v, rho_sq, weight, E, p, a_shift, b_shift, uw, vw, rw):
    f = _integrand(u, v, rho_sq, weight, E, p, a_shift, b_shift)
    return np.einsum("ab,cd,abcd->ac", uw, vw, f)


def _tail_solve(partial: np.ndarray, radii: np.ndarray, q: complex) -> complex:
    m = np.ones((N_RADII, N_RADII), dtype=complex)
    for j in range(1, N_RADII):
        m[:, j] = -radii.astype(complex) ** -(q + j - 1)
    return complex(np.linalg.solve(m, partial)[0])


def t_oracle(l: int, sigma: complex, n: int) -> complex:
    """Limit integral T_l by the truncated route (complex exponents)."""
    sig = complex(sigma)
    return two_center_truncated(2.0 * sig + 4 - 2 * l - n, sig, n)


def j_oracle(l: int, k: int, sigma: complex, n: int) -> complex:
    """Convergence-scale integral J by the truncated route (real exponents)."""
    p = complex(sigma).real
    return two_center_truncated(2.0 * p + k + 3 - 2 * l - n, p, n)


# -- the Hessian profile by symbolic differentiation --------------------------


def hessian_profile_sym(sigma_val: complex, omega: np.ndarray) -> np.ndarray:
    """``|Y|^(2s-1) d_i d_j |Y|^(3-2s)`` at ``Y = omega`` by sympy differentiation."""
    import sympy as sp

    n = len(omega)
    ys = sp.symbols(f"y1:{n + 1}", real=True)
    r = sp.sqrt(sum(y * y for y in ys))
    sig = sp.nsimplify(sigma_val, rational=False)
    power = r ** (3 - 2 * sig)
    subs = dict(zip(ys, [sp.nsimplify(c) for c in omega]))
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            dij = sp.diff(power, ys[i], ys[j]) * r ** (2 * sig - 1)
            out[i, j] = complex(sp.simplify(dij.subs(subs)))
    return out


# -- covector norms by one solve per covector ---------------------------------


def solve_log_norm(h0, xi) -> np.ndarray:
    """``log |xi|_{h0}`` with ``|xi|^2 = xi^T solve(h0, xi)``, one solve per point and covector.

    ``h0`` has shape ``grid + (n, n)`` and ``xi`` ``(..., n)``; the result has
    shape ``grid + xi.shape[:-1]``.
    """
    h0 = np.asarray(h0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    h = h0.reshape(h0.shape[:-2] + (1,) * (xi.ndim - 1) + h0.shape[-2:])
    return np.log(np.sqrt((xi[..., None, :] @ np.linalg.solve(h, xi[..., None]))[..., 0, 0]))


def per_sample_sigma_and_norm(value_xi, value_txi, t: float, n: int):
    """``(sigma, norm)`` of each symbol sample alone, elementwise, with no checks.

    Every sample's root is ``n/2 + log(S(t xi)/S(xi)) / (2 log t)``, and its
    norm comes from peeling the Gamma prefactor at that root.  Only numpy's
    complex division, ``log`` and power and scipy's complex ``gamma`` compute
    them, none of the library's real-axis kernels.
    """
    v = np.asarray(value_xi, dtype=complex)
    vt = np.asarray(value_txi, dtype=complex)
    sigma = n / 2.0 + np.log(vt / v) / (2.0 * math.log(t))
    pref = 2.0 ** (n - 2.0 * sigma) * _gamma(n / 2.0 - sigma) / _gamma(sigma - n / 2.0)
    w = np.log(v / pref) / (2.0 * sigma - n)
    return sigma, np.exp(w.real)


# -- angular samples and the first-order fit from the Hessian kernel ----------


def radial_derivative_kernel(omega, sigma) -> np.ndarray:
    """Unit-sphere Hessian profile ``(3-2s)(delta_ij + (1-2s) w_i w_j)``.

    Equals ``|Y|^(2s-1) d_i d_j |Y|^(3-2s)`` evaluated at ``Y = omega``;
    scale invariant in ``|Y|``, with trace ``(3-2s)(n + 1 - 2s)``.  ``omega``
    is a ``(..., n)`` stack of unit vectors and ``sigma`` broadcasts against
    ``omega.shape[:-1]``; the result stacks ``n x n`` matrices over both.
    """
    w = np.asarray(omega, dtype=float)
    for j, probe in enumerate(w.reshape(-1, w.shape[-1])):
        if not np.all(np.isfinite(probe)):
            raise ValueError(f"omega: probe {j} {tuple(probe.tolist())} is not finite")
        if abs(math.hypot(*probe) - 1.0) > 1e-12:
            raise ValueError(f"omega: probe {j} {tuple(probe.tolist())} is not a unit vector")
    sig = np.asarray(sigma)[..., None, None]
    p, q = 3.0 - 2.0 * sig, 1.0 - 2.0 * sig
    delta = np.eye(w.shape[-1], dtype=bool)
    return p * (delta + q * (w[..., :, None] * w[..., None, :]))


def kernel_profile(n, H, T, W1, alpha, sigma, t1, t2, probes) -> np.ndarray:
    """``F = t1 sum_ij H_ij D_ij(omega) + t2 (W1 - alpha^2 (1-n) T / 4)`` from the kernel.

    ``H`` (with trailing ``n x n`` axes), ``T``, ``W1``, ``alpha`` and
    ``sigma`` broadcast against each other over the grid; ``probes`` is a
    ``(P, n)`` array, and the result has shape ``grid + (P,)``.
    """
    D = radial_derivative_kernel(probes, np.asarray(sigma)[..., None])
    H = np.asarray(H)[..., None, :, :]
    const = W1 - alpha * alpha * (1.0 - n) * T / 4.0
    return t1 * np.sum(H * D, axis=(-2, -1)) + t2 * np.asarray(const)[..., None]


def kernel_singularity_coefficient(patch, sigma, t1, t2, probes) -> np.ndarray:
    """:func:`kernel_profile` of a patch's first-order jets.

    ``H = h0^-1 h^(1) h0^-1`` and ``T = tr(h0^-1 h^(1))`` are solved from the
    patch's ``h^(0)`` by ``np.linalg.solve``, not read off ``patch.h0_inv``;
    ``W1`` is ``V^(1)``.
    """
    h0 = patch.h_jet[0]
    solved = np.linalg.solve(h0, patch.h_jet[1])  # h0^-1 h^(1)
    # (h0^-1 h^(1)) h0^-1 is the transpose of h0^-1 (h0^-1 h^(1))^T, h0 being symmetric
    H = np.swapaxes(np.linalg.solve(h0, np.swapaxes(solved, -1, -2)), -1, -2)
    T = np.trace(solved, axis1=-2, axis2=-1)
    return kernel_profile(patch.n, H, T, patch.v_jet[1], patch.alpha, sigma, t1, t2, probes)


def first_order_design(probes, sigma, t1, t2, alpha_sq, h0) -> np.ndarray:
    """The ``(..., P, k)`` first-order design, entry by entry from the forward model.

    Row ``p`` holds ``t1 D_ij(omega_p) - t2 alpha^2 (1-n)/4 h0_ij`` at each
    pair ``i <= j`` of :func:`~scatjet.forward_scattering.symmetric_pairs`
    (doubled for ``i < j``), then ``t2`` for ``W``, with ``D`` from
    :func:`radial_derivative_kernel`.
    """
    h0 = np.asarray(h0, dtype=float)
    n = h0.shape[-1]
    rows, cols = symmetric_pairs(n)
    with np.errstate(all="ignore"):
        c_trace = t2 * np.asarray(alpha_sq, dtype=float) * (1.0 - n) / 4.0
        D = radial_derivative_kernel(probes, np.asarray(sigma)[..., None])
        G = t1 * D[..., rows, cols] - (c_trace[..., None, None] * h0[..., None, rows, cols])
        A = np.empty(G.shape[:-1] + (G.shape[-1] + 1,), dtype=complex)
        A[..., :n] = G[..., :n]
        A[..., n:-1] = 2.0 * G[..., n:]
        A[..., -1] = t2
    return A


@dataclass(frozen=True)
class SvdFirstOrderFit:
    """The truncated-SVD fit: ``right_vectors`` holds each point's ``Vh``."""

    H: np.ndarray
    W1: np.ndarray
    residual: np.ndarray
    design_rank: np.ndarray
    right_vectors: np.ndarray

    def kernel(self, idx: tuple[int, ...] = ()) -> np.ndarray:
        """The orthonormal kernel rows at grid index ``idx``, as unknown vectors."""
        return self.right_vectors[idx][int(self.design_rank[idx]) :].conj()


def first_order_svd_fit(values, probes, sigma, t1, t2, alpha_sq, h0) -> SvdFirstOrderFit:
    """Minimum-norm first-order fit through one SVD of each point's full design.

    The unknowns are ``(H_11, ..., H_nn, H_ij (i<j) ..., W)``; singular
    values at most 1e-10 of the largest are cut.
    """
    b = np.asarray(values, dtype=complex)
    n = np.shape(h0)[-1]
    A = first_order_design(probes, sigma, t1, t2, alpha_sq, h0)

    U, svals, Vh = np.linalg.svd(A, full_matrices=True)
    keep = svals > 1e-10 * svals[..., :1]
    k = svals.shape[-1]
    proj = np.vecdot(np.ascontiguousarray(np.swapaxes(U, -1, -2)[..., :k, :]), b[..., None, :])
    coef = np.divide(proj, svals, out=np.zeros_like(proj), where=keep)
    x = np.zeros(A.shape[:-2] + A.shape[-1:], dtype=complex)
    for r in range(k):
        x = np.where(keep[..., r, None], x + coef[..., r, None] * Vh[..., r, :].conj(), x)
    miss = (A @ x[..., None])[..., 0] - b
    residual = np.sqrt(np.vecdot(miss.real, miss.real) + np.vecdot(miss.imag, miss.imag))

    # the unknowns laid out here, not by the library's pair index
    H = np.empty(x.shape[:-1] + (n, n), dtype=complex)
    for k, (i, j) in enumerate(zip(*symmetric_pairs(n))):
        H[..., i, j] = H[..., j, i] = x[..., k]
    return SvdFirstOrderFit(
        H=H, W1=x[..., -1], residual=residual, design_rank=keep.sum(axis=-1), right_vectors=Vh
    )
