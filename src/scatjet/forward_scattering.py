"""Forward scattering data: principal symbol samples and the leading
first-order singularity coefficient.

The principal symbol of the scattering matrix at energy ``lambda`` is

    S(y, xi) = 2^(n - 2 sigma) Gamma(n/2 - sigma) / Gamma(sigma - n/2)
               * |xi|_{h0}^(2 sigma - n)

with ``sigma = sigma(lambda, y)`` the indicial root and
``|xi|_{h0}^2 = xi^T h0^-1 xi`` the covector norm, homogeneous of degree
``2 sigma - n``.  ``principal_symbol`` evaluates it over the whole grid for a
stack of covectors and a sequence of energies at once.

When two operators share boundary data to zeroth order, the difference of
their scattering kernels has radial leading singularity with angular
profile

    F(omega) = t1 * sum_ij H_ij D_ij(omega) + t2 * (W1 - alpha^2 (1-n) T / 4)

where ``D_ij(omega) = (3 - 2 sigma)(delta_ij + (1 - 2 sigma) omega_i omega_j)``
is the unit-sphere Hessian profile of ``|Y|^(3 - 2 sigma)`` and ``t1, t2``
are the model-integral factors a dataset records as ``t_pair`` (all other
scalar prefactors are normalized to one).  Probe directions are understood in
the frame where ``alpha^2 h0`` is the identity.  ``singularity_coefficient``
evaluates ``F`` over the whole grid for a stack of probes at once, from the
grid arrays of ``boundary_jets.perturbation_coefficients``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary_jets import BoundaryPatch, ComplexEnergy, PerturbationData, indicial_root
from .errors import GammaPole, ZeroCovector, raise_first
from scipy.special import gamma as _gamma

__all__ = [
    "ProbeSet",
    "gamma_prefactor",
    "principal_symbol",
    "radial_derivative_kernel",
    "singularity_coefficient",
    "default_probe_set",
]


@dataclass(frozen=True)
class ProbeSet:
    """Unit probe directions for first-order recovery: at least one, all of one length."""

    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        vecs = tuple(tuple(float(c) for c in v) for v in self.vectors)
        if not vecs:
            raise ValueError("probe set is empty")
        for j, v in enumerate(vecs):
            if len(v) != len(vecs[0]):
                raise ValueError(f"probe {j} {v} has {len(v)} components, probe 0 has {len(vecs[0])}")
        check_unit_probes(vecs, ValueError)
        object.__setattr__(self, "vectors", vecs)


def check_unit_probes(probes, error: type[Exception], prefix: str = "") -> None:
    """Raise ``error`` naming the first probe whose norm misses 1 by more than 1e-12.

    ``probes`` is a ``(..., n)`` stack of probe directions, counted in C
    order; a probe with a non-finite component is named as not finite.
    """
    w = np.asarray(probes, dtype=float)
    w = w.reshape(-1, w.shape[-1])
    # written so that a NaN norm fails too
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(w, axis=-1) - 1.0) <= 1e-12))
    if bad.size:
        j = int(bad[0])
        why = "a unit vector" if np.all(np.isfinite(w[j])) else "finite"
        raise error(f"{prefix}probe {j} {tuple(w[j].tolist())} is not {why}")


def default_probe_set(n: int) -> ProbeSet:
    """``{e_i}`` together with ``(e_i +/- e_j)/sqrt(2)`` for ``i < j``."""
    eye = np.eye(n)
    vecs = [eye[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vecs.append((eye[i] + eye[j]) / np.sqrt(2.0))
            vecs.append((eye[i] - eye[j]) / np.sqrt(2.0))
    return ProbeSet(vectors=tuple(tuple(v) for v in vecs))


def prefactor_and_poles(sigma: np.ndarray, n: int):
    """Unchecked ``gamma_prefactor`` values, and the pole check it raises.

    The check is a ``(failed, error_class, message)`` entry for
    :func:`~scatjet.errors.raise_first`; off the poles the values are final.
    """
    half_off = sigma - n / 2.0
    at_pole = (np.abs(half_off.imag) < 1e-12) & (
        np.abs(half_off.real - np.round(half_off.real)) < 1e-12
    )
    z = n - 2.0 * sigma
    with np.errstate(all="ignore"):
        # 2^z as a real power times a phase: numpy's complex power goes through
        # exp(z log 2) and loses up to four ulps, the real power about one
        power = np.power(2.0, z.real) * np.exp(1j * (z.imag * math.log(2.0)))
        value = power * _gamma(n / 2.0 - sigma) / _gamma(sigma - n / 2.0)
    return value, (
        at_pole,
        GammaPole,
        lambda i: f"sigma - n/2 = {half_off[i]} is an integer: Gamma pole/zero in the prefactor",
    )


def gamma_prefactor(sigma, n: int):
    """``2^(n - 2 sigma) Gamma(n/2 - sigma) / Gamma(sigma - n/2)``, elementwise.

    Takes a scalar or a grid array; a pole names its first grid index.
    """
    value, pole_check = prefactor_and_poles(np.asarray(sigma, dtype=complex), n)
    raise_first(n, [pole_check])
    return value[()]


def principal_symbol(patch: BoundaryPatch, xi, energies: Sequence[ComplexEnergy]) -> np.ndarray:
    """Principal symbol over the whole grid for a stack of covectors, at each energy.

    ``xi`` has shape ``(..., n)``; the result has shape
    ``(len(energies),) + patch.grid_shape + xi.shape[:-1]``, energy first.
    The covector norms do not depend on the energy: their log is computed
    once and shared by every energy.
    """
    n = patch.n
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (n,):
        raise ValueError(f"covectors need a last axis of length n={n}, got shape {xi.shape}")
    if not np.all(np.any(xi, axis=-1)):
        raise ZeroCovector("covector is zero")
    pad = patch.grid_shape + (1,) * (xi.ndim - 1)
    h0 = patch.h_jet[0].reshape(pad + (n, n))
    log_norm = np.log(np.sqrt((xi[..., None, :] @ np.linalg.solve(h0, xi[..., None]))[..., 0, 0]))
    out = np.empty((len(energies),) + log_norm.shape, dtype=complex)
    for e, energy in enumerate(energies):
        sigma = indicial_root(patch, energy)
        pref = gamma_prefactor(sigma, n).reshape(pad)
        out[e] = pref * np.exp((2.0 * sigma - n).reshape(pad) * log_norm)
    return out


def radial_derivative_kernel(omega, sigma) -> np.ndarray:
    """Unit-sphere Hessian profile ``(3-2s)(delta_ij + (1-2s) w_i w_j)``.

    Equals ``|Y|^(2s-1) d_i d_j |Y|^(3-2s)`` evaluated at ``Y = omega``;
    scale invariant in ``|Y|``, with trace ``(3-2s)(n + 1 - 2s)``.  ``omega``
    is a ``(..., n)`` stack of unit vectors and ``sigma`` broadcasts against
    ``omega.shape[:-1]``; the result stacks ``n x n`` matrices over both.
    """
    d = np.arange(np.shape(omega)[-1])
    return hessian_profile_entries(omega, sigma, d[:, None], d[None, :])


def hessian_profile_entries(omega, sigma, i, j) -> np.ndarray:
    """The ``(i, j)`` entries of :func:`radial_derivative_kernel`'s profile.

    ``i`` and ``j`` are index arrays that broadcast to one shape ``S``;
    the result has shape ``broadcast(omega.shape[:-1], sigma) + S``.  The
    first-order fit reads only the entries its unknowns need through it.
    """
    w = np.asarray(omega, dtype=float)
    check_unit_probes(w, ValueError, "omega: ")
    i, j = np.asarray(i), np.asarray(j)
    sig = np.asarray(sigma, dtype=complex)[(..., *(None,) * max(i.ndim, j.ndim))]
    # np.take, unlike w[..., i], returns C order, the order in which the
    # forward sum over (i, j) adds: the bits stay those of the outer product
    ww = np.take(w, i, axis=-1) * np.take(w, j, axis=-1)
    return (3.0 - 2.0 * sig) * ((i == j) + (1.0 - 2.0 * sig) * ww)


def singularity_coefficient(
    pd: PerturbationData,
    alpha,
    sigma,
    t1: complex,
    t2: complex,
    omega,
) -> np.ndarray:
    """Angular singularity coefficient ``F(omega)`` of the kernel difference.

    ``pd``, ``alpha`` and ``sigma`` are grid arrays or one point's scalars,
    broadcast against each other; ``omega`` is a ``(..., n)`` stack of unit
    probes shared by every point.  The result has shape
    ``grid_shape + omega.shape[:-1]``.
    """
    n = pd.n
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-1:] != (n,):
        raise ValueError(f"probes need a last axis of length n={n}, got shape {omega.shape}")
    stack = (None,) * (omega.ndim - 1)
    D = radial_derivative_kernel(omega, np.asarray(sigma)[(..., *stack)])
    H = np.asarray(pd.H)[(..., *stack, slice(None), slice(None))]
    const = pd.W[1] - alpha * alpha * (1.0 - n) * pd.T / 4.0
    return t1 * np.sum(H * D, axis=(-2, -1)) + t2 * np.asarray(const)[(..., *stack)]

