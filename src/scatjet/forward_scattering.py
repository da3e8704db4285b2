"""Forward scattering data: principal symbol samples and the leading
first-order singularity coefficient.

The principal symbol of the scattering matrix at energy ``lambda`` is

    S(y, xi) = 2^(n - 2 sigma) Gamma(n/2 - sigma) / Gamma(sigma - n/2)
               * |xi|_{h0}^(2 sigma - n)

with ``sigma = sigma(lambda, y)`` the indicial root and
``|xi|_{h0}^2 = xi^T h0^-1 xi`` the covector norm, homogeneous of degree
``2 sigma - n``.  ``principal_symbol`` evaluates it over the whole grid for a
stack of covectors and a sequence of energies at once.  Where ``sigma`` is
real, as at a real energy above the cut, the prefactor takes scipy's real
``gamma`` and the power numpy's real ``exp`` (:func:`real_or_complex` picks
the kernel per element), so the symbols of real energies are exactly real.

When two operators share boundary data to zeroth order, the difference of
their scattering kernels has radial leading singularity with angular
profile

    F(omega) = t1 * sum_ij H_ij D_ij(omega) + t2 * (W1 - alpha^2 (1-n) T / 4)

where ``D_ij(omega) = (3 - 2 sigma)(delta_ij + (1 - 2 sigma) omega_i omega_j)``
is the unit-sphere Hessian profile of ``|Y|^(3 - 2 sigma)`` and ``t1, t2``
are the model-integral factors a dataset records as ``t_pair`` (all other
scalar prefactors are normalized to one).  Probe directions are understood in
the frame where ``alpha^2 h0`` is the identity.  In the unknowns
``u = (H_11, ..., H_nn, H_ij (i<j) ..., W1)`` the profile factors as
``F = M (T u)``: ``M`` is a real matrix fixed by the probes and ``T`` is
lower-triangular per point (:func:`first_order_factors`).  The first-order
fit of :mod:`scatjet.inversion` inverts the same factorization.
``singularity_coefficient`` evaluates ``F`` over the whole grid for one
``(P, n)`` array of probes at once, from the grid arrays of
``boundary_jets.perturbation_coefficients``.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .boundary_jets import BoundaryPatch, ComplexEnergy, PerturbationData, indicial_root
from .errors import GammaPole, ScatjetError, ZeroCovector, raise_first
from scipy.special import gamma as _gamma


def check_unit_probes(probes, error: type[Exception], prefix: str) -> None:
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


def probe_array(probes, n: int, error: type[Exception], prefix: str) -> np.ndarray:
    """``probes`` as a new float ``(P, n)`` array of ``P >= 1`` unit vectors.

    Anything else raises ``error`` with a message led by ``prefix``: values
    that are not an array of numbers, another shape (a list with no probes
    has shape ``(0,)``), or a probe that :func:`check_unit_probes` refuses.
    """
    want = f"{prefix}expected an array of shape (P, {n}) with P >= 1"
    try:
        w = np.array(probes, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{want}, got values that are not an array of numbers ({exc})") from None
    if w.ndim != 2 or not len(w) or w.shape[1] != n:
        raise error(f"{want}, got shape {w.shape}")
    check_unit_probes(w, error, prefix)
    return w


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# The tables below depend on n alone.  Each is built once per n and shared,
# read-only, by every caller.


@functools.cache
def symmetric_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)``: the index pairs ``i <= j`` of a symmetric ``n x n`` tensor.

    First the ``(i, i)``, then the ``(i, j)`` with ``i < j``, row by row.  The
    polarization covectors, the default probes and the unknowns of the
    first-order fit all follow this order.  Both arrays are read-only.
    """
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    return _read_only(np.concatenate([d, i])), _read_only(np.concatenate([d, j]))


@functools.cache
def polarization_covectors(n: int) -> np.ndarray:
    """The ``(C, n)`` covectors sampled at every grid point: ``e_i + e_j`` per pair ``i <= j``.

    A diagonal pair gives ``e_i``; the order is that of :func:`symmetric_pairs`.
    The array is read-only.
    """
    rows, cols = symmetric_pairs(n)
    eye = np.eye(n)
    return _read_only(eye[rows] + (rows < cols)[:, None] * eye[cols])


@functools.cache
def default_probe_set(n: int) -> np.ndarray:
    """The read-only ``(P, n)`` default probes, ``P = n^2``.

    The ``e_i``, then ``(e_i + e_j)/sqrt(2)`` and ``(e_i - e_j)/sqrt(2)`` for
    each pair ``i < j``, in the order of :func:`symmetric_pairs`.
    """
    rows, cols = (k[n:] for k in symmetric_pairs(n))
    eye = np.eye(n)
    pairs = np.stack([eye[rows] + eye[cols], eye[rows] - eye[cols]], axis=1) / np.sqrt(2.0)
    return _read_only(np.concatenate([eye, pairs.reshape(-1, n)]))


def real_or_complex(real, real_kernel, complex_kernel, *operands) -> np.ndarray:
    """Elementwise ``real_kernel`` on the real axis, ``complex_kernel`` elsewhere.

    The elements of the broadcast complex ``operands`` go to ``real_kernel``
    where the caller's mask ``real`` holds (a zero imaginary part, say) and
    every operand is finite.  ``real_kernel`` runs over all elements at once
    and is kept only there; ``complex_kernel`` runs on the other elements
    alone.  So each element gets the same bits in any array as alone, and the
    costly complex kernels run only where an operand is off the real axis or
    not finite.  Both kernels return new arrays, and so does this function.
    """
    operands = np.broadcast_arrays(*operands)
    with np.errstate(all="ignore"):
        out = np.asarray(real_kernel(*operands), dtype=complex)
        for x in operands:
            real = real & np.isfinite(x)
        rest = ~real
        out[rest] = complex_kernel(*(x[rest] for x in operands))
    return out


# from here on every double is an integer
_EVERY_DOUBLE_AN_INTEGER = 2.0**52


def _real_prefactor(sigma, n: int):
    s = sigma.real
    return np.power(2.0, n - 2.0 * s) * _gamma(n / 2.0 - s) / _gamma(s - n / 2.0)


def _complex_prefactor(sigma, n: int):
    z = n - 2.0 * sigma
    # 2^z as a real power times a phase: numpy's complex power goes through
    # exp(z log 2) and loses up to four ulps, the real power about one
    power = np.power(2.0, z.real) * np.exp(1j * (z.imag * math.log(2.0)))
    return power * _gamma(n / 2.0 - sigma) / _gamma(sigma - n / 2.0)


def prefactor_and_poles(sigma: np.ndarray, n: int):
    """``2^(n - 2 sigma) Gamma(n/2 - sigma) / Gamma(sigma - n/2)`` elementwise, and its pole check.

    A real ``sigma`` takes scipy's real ``gamma``: it is more accurate than the
    complex one and leaves no imaginary part.  The check is a
    ``(failed, error_class, message)`` entry for
    :func:`~scatjet.errors.raise_first`; off the poles the values are final.
    A pole is an integer ``sigma - n/2`` to 1e-12, judged only where
    ``|Re(sigma - n/2)| < 2^52``: every double above that is an integer, so
    the test would name rounding, not a pole.
    """
    half_off = sigma - n / 2.0
    with np.errstate(all="ignore"):  # a sigma that is not finite is no pole
        re = half_off.real
        at_pole = (
            (np.abs(half_off.imag) < 1e-12)
            & (np.abs(re) < _EVERY_DOUBLE_AN_INTEGER)
            & (np.abs(re - np.round(re)) < 1e-12)
        )
    value = real_or_complex(
        sigma.imag == 0,
        lambda s: _real_prefactor(s, n),
        lambda s: _complex_prefactor(s, n),
        sigma,
    )
    return value, (
        at_pole,
        GammaPole,
        lambda i: f"sigma - n/2 = {half_off[i]} is an integer: Gamma pole/zero in the prefactor",
    )


def principal_symbol(patch: BoundaryPatch, xi, energies: Sequence[ComplexEnergy]) -> np.ndarray:
    """Principal symbol over the whole grid for a stack of covectors, at each energy.

    ``xi`` has shape ``(..., n)``; the result has shape
    ``(len(energies),) + patch.grid_shape + xi.shape[:-1]``, energy first.
    The covector norms ``|xi|^2 = xi^T h0^-1 xi`` read ``patch.h0_inv`` and do
    not depend on the energy: their log is computed once and shared by every
    energy, and so is one Gamma prefactor call over the roots of every
    energy.  Each point and energy is checked in this order, and the first
    failure raises: a Gamma pole (:class:`~scatjet.errors.GammaPole`), then a
    value past double range, or one that underflows to zero
    (:class:`~scatjet.errors.ScatjetError`).  The message names the grid
    index, then the energy index and covector as the sample.
    :func:`~scatjet.boundary_jets.indicial_root` refuses an energy first.
    """
    n = patch.n
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (n,):
        raise ValueError(f"covectors need a last axis of length n={n}, got shape {xi.shape}")
    if not np.all(np.any(xi, axis=-1)):
        raise ZeroCovector("covector is zero")
    x = xi.reshape(-1, n)
    sq = np.einsum("...ij,ki,kj->...k", patch.h0_inv, x, x)
    with np.errstate(divide="ignore"):
        # a norm that underflows to zero has log -inf; its samples are refused below
        log_norm = np.log(np.sqrt(sq)).reshape(patch.grid_shape + xi.shape[:-1])
    pad = patch.grid_shape + (1,) * (xi.ndim - 1)
    sigma = np.empty(patch.grid_shape + (len(energies),), dtype=complex)  # (*grid, E)
    for e, energy in enumerate(energies):
        sigma[..., e] = indicial_root(patch, energy)
    pref, pole_check = prefactor_and_poles(sigma, n)
    out = np.empty((len(energies),) + log_norm.shape, dtype=complex)
    with np.errstate(all="ignore"):
        for e in range(len(energies)):
            arg = (2.0 * sigma[..., e] - n).reshape(pad) * log_norm
            out[e] = pref[..., e].reshape(pad) * real_or_complex(
                arg.imag == 0, lambda x: np.exp(x.real), np.exp, arg
            )
    # (*grid, E, ...): a failure names the grid index, then the energy index and covector
    moved = np.moveaxis(out, 0, n)
    raise_first(
        n,
        [
            pole_check,
            (
                ~np.isfinite(moved) | (moved == 0),
                ScatjetError,
                lambda i: f"principal symbol at energy index {i[n]}, covector "
                f"{tuple(xi[i[n + 1 :]].tolist())} "
                + ("underflows to zero" if moved[i] == 0 else "leaves double range"),
            ),
        ],
    )
    return out


def hessian_profile_factors(sigma):
    """``(3 - 2 sigma, 1 - 2 sigma)``, elementwise: the two factors of the Hessian profile.

    The profile is ``D_ij(omega) = p (delta_ij + q w_i w_j)`` for ``(p, q)``
    these factors.
    """
    sig = np.asarray(sigma, dtype=complex)
    return 3.0 - 2.0 * sig, 1.0 - 2.0 * sig


def first_order_factors(probes: np.ndarray, sigma, t1: complex):
    """``(M, a, b)``: the probe matrix and the profile factors of ``F = M (T u)``.

    ``M = [mult w_i w_j | 1]`` is the real ``(P, k)`` matrix of the ``(P, n)``
    ``probes``, with ``mult`` 1 on the pairs ``i = j`` and 2 on ``i < j``, in
    the order of :func:`symmetric_pairs`.  Elementwise in ``sigma``,
    ``a = t1 (3 - 2 sigma)(1 - 2 sigma)`` and ``b = t1 (3 - 2 sigma)``: per
    point ``T u`` holds ``a H_ij`` at each pair, then
    ``b tr H + t2 (W1 - alpha^2 (1-n) T/4)``.
    """
    rows, cols = symmetric_pairs(probes.shape[-1])
    mult = np.where(rows == cols, 1.0, 2.0)
    M = np.concatenate(
        [mult * probes[:, rows] * probes[:, cols], np.ones((len(probes), 1))], axis=1
    )
    p, q = hessian_profile_factors(sigma)
    b = t1 * p
    return M, b * q, b


def singularity_coefficient(
    pd: PerturbationData,
    alpha,
    sigma,
    t1: complex,
    t2: complex,
    probes,
) -> np.ndarray:
    """Angular singularity coefficient ``F(omega)`` of the kernel difference.

    ``pd``, ``alpha`` and ``sigma`` are grid arrays or one point's scalars,
    broadcast against each other; ``probes`` is one ``(P, n)`` array of unit
    probes shared by every point; :func:`probe_array` judges them and raises
    :class:`ValueError`.  ``F = M (T u)`` with the factors of
    :func:`first_order_factors`; the trace term reads ``pd.T``.  The result
    has shape ``grid_shape + (P,)``, and each point's values have the same
    bits alone as in any grid.  A value that is not finite raises
    :class:`~scatjet.errors.ScatjetError` naming the first grid index and,
    as the sample, the probe.
    """
    n = pd.n
    w = probe_array(probes, n, ValueError, "omega: ")
    M, a, b = first_order_factors(w, sigma, t1)
    rows, cols = symmetric_pairs(n)
    H = np.asarray(pd.H)
    with np.errstate(all="ignore"):  # a value past double range is refused below
        last = b * np.trace(H, axis1=-2, axis2=-1) + t2 * (
            pd.W1 - alpha * alpha * (1.0 - n) * pd.T / 4.0
        )
        grid = np.broadcast_shapes(a.shape, H.shape[:-2], np.shape(last))
        Tu = np.empty(grid + (len(rows) + 1,), dtype=complex)
        Tu[..., :-1] = a[..., None] * H[..., rows, cols]
        Tu[..., -1] = last
        # one dot product per point and probe, so every point gets the same bits in any grid
        F = np.vecdot(M, Tu[..., None, :])
    raise_first(
        len(grid),
        [
            (
                ~np.isfinite(F),
                ScatjetError,
                lambda i: f"singularity coefficient at probe {tuple(w[i[-1]].tolist())} "
                "leaves double range",
            )
        ],
    )
    return F
