"""Forward scattering data: principal symbol samples and the leading
first-order singularity coefficient.

The principal symbol of the scattering matrix at energy ``lambda`` is

    S(y, xi) = 2^(n - 2 sigma) Gamma(n/2 - sigma) / Gamma(sigma - n/2)
               * |xi|_{h0}^(2 sigma - n)

with ``sigma = sigma(lambda, y)`` the indicial root and
``|xi|_{h0}^2 = xi^T h0^-1 xi`` the covector norm, homogeneous of degree
``2 sigma - n``.  ``principal_symbol`` evaluates it over the whole grid for a
stack of covectors and a sequence of energies at once, and returns the
indicial roots it computes on the way with the symbols.  Where ``sigma`` is
real, as at a real energy above the cut, the prefactor takes scipy's real
``gamma`` and the power numpy's real ``exp``, so the symbols of real
energies are exactly real, and they come out float64.
:func:`real_or_complex` picks the kernel per element: each caller passes
its condition for the real kernel as a function of the operands (on the
real axis, :func:`on_real_axis`; for the division and the log of
:mod:`scatjet.inversion` also a nonzero divisor and a positive argument),
the call decides once from whole-array tests, and the per-element mask is
built only when an operand is complex or not finite, or the condition
fails somewhere.

A patch's first-order jets ``h^(1)`` and ``V^(1)`` set its scattering kernel
apart from that of its zeroth-order model, the same patch with both jets
zero past order 0.  The difference of the two kernels has radial leading
singularity with angular profile

    F(omega) = t1 * sum_ij H_ij D_ij(omega) + t2 * (W1 - alpha^2 (1-n) tr(h0 H) / 4)

with ``H = h0^-1 h^(1) h0^-1``, so ``tr(h0 H) = tr(h0^-1 h^(1))``, and
``W1 = V^(1)``, where
``D_ij(omega) = (3 - 2 sigma)(delta_ij + (1 - 2 sigma) omega_i omega_j)``
is the unit-sphere Hessian profile of ``|Y|^(3 - 2 sigma)`` and ``t1, t2``
are the model-integral factors a dataset records as ``t_pair`` (all other
scalar prefactors are normalized to one).  The probes ``omega`` are
Euclidean unit vectors in the coordinates ``y``, and ``delta_ij`` contracts
the coordinate components of ``H``: the profile is not coordinate-covariant
(item 20 of ROADMAP.md).  In the unknowns
``u = (H_11, ..., H_nn, H_ij (i<j) ..., W1)`` the profile factors as
``F = M (T u)``: ``M`` is a real matrix fixed by the probes and ``T`` is
lower-triangular per point.  :func:`first_order_factors` is the one
definition of the model: ``singularity_coefficient`` applies ``T`` and
``M`` over the whole grid of a patch for one ``(P, n)`` array of probes at
once, from the patch's own jets, and the first-order fit of
:mod:`scatjet.inversion` inverts them.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .boundary_jets import (
    BoundaryPatch,
    ComplexEnergy,
    float_or_complex,
    indicial_root,
    probe_array,
    read_only,
    symmetric_pairs,
)
from .errors import (
    GammaPole,
    ScatjetError,
    ZeroCovector,
    near_integer,
    raise_first,
    real_part_if_real,
)
from scipy.special import gamma as _gamma


@functools.cache
def default_probe_set(n: int) -> np.ndarray:
    """The read-only ``(P, n)`` default probes, ``P = n^2``.

    The ``e_i``, then ``(e_i + e_j)/sqrt(2)`` and ``(e_i - e_j)/sqrt(2)`` for
    each pair ``i < j``, in the order of :func:`symmetric_pairs`.
    """
    rows, cols = (k[n:] for k in symmetric_pairs(n))
    eye = np.eye(n)
    pairs = np.stack([eye[rows] + eye[cols], eye[rows] - eye[cols]], axis=1) / np.sqrt(2.0)
    return read_only(np.concatenate([eye, pairs.reshape(-1, n)]))


def on_real_axis(x):
    """``x.imag == 0`` elementwise for a complex ``x``, ``True`` for a real one.

    A float ``x`` is on the real axis by its type, so no array of zero
    imaginary parts is built for it.
    """
    return x.imag == 0 if np.iscomplexobj(x) else True


def real_or_complex(real, real_kernel, complex_kernel, *operands) -> np.ndarray:
    """Elementwise ``real_kernel`` on the real axis, ``complex_kernel`` elsewhere.

    ``real(*operands)`` is the caller's condition for the real kernel, as a
    boolean scalar or array that broadcasts with the operands (on the real
    axis, say: :func:`on_real_axis`); an element goes to ``real_kernel``
    where it holds and every operand is finite.  The choice is made once per
    call from whole-array tests: when no operand is complex, every operand
    is finite and the condition holds everywhere, ``real_kernel`` runs on
    the operands as given and the result is its float64 array, which the
    real kernels return for float64 operands.  Only otherwise are the
    operands broadcast and the per-element mask built: they are widened to
    complex, ``real_kernel`` runs over all elements at once and is kept only
    where it applies, and ``complex_kernel`` runs on the other elements
    alone, giving a complex result.  So each element gets the same bits in
    any array as alone, only the result's dtype is chosen per call, and the
    costly complex kernels run only where an operand is off the real axis or
    not finite.  Both kernels return new arrays, and so does this function.
    """
    with np.errstate(all="ignore"):
        if (
            not any(np.iscomplexobj(x) for x in operands)
            and all(np.isfinite(x).all() for x in operands)
            and np.all(real(*operands))
        ):
            return np.asarray(real_kernel(*operands), dtype=float)
        operands = np.broadcast_arrays(*operands)
        mask = real(*operands)
        for x in operands:
            mask = mask & np.isfinite(x)
        # the tests above also see the elements an empty broadcast drops:
        # float operands whose broadcast is empty give float all the same
        if not any(np.iscomplexobj(x) for x in operands) and np.all(mask):
            return np.asarray(real_kernel(*operands), dtype=float)
        operands = [x.astype(complex, copy=False) for x in operands]
        out = np.asarray(real_kernel(*operands), dtype=complex)
        rest = ~mask
        out[rest] = complex_kernel(*(x[rest] for x in operands))
    return out


def _real_prefactor(sigma, n: int):
    s = sigma.real
    return np.power(2.0, n - 2.0 * s) * _gamma(n / 2.0 - s) / _gamma(s - n / 2.0)


def _complex_prefactor(sigma, n: int):
    z = n - 2.0 * sigma
    # 2^z as a real power times a phase: numpy's complex power goes through
    # exp(z log 2) and loses up to four ulps, the real power about one
    power = np.power(2.0, z.real) * np.exp(1j * (z.imag * math.log(2.0)))
    return power * _gamma(n / 2.0 - sigma) / _gamma(sigma - n / 2.0)


def prefactor_and_poles(sigma, n: int):
    """``2^(n - 2 sigma) Gamma(n/2 - sigma) / Gamma(sigma - n/2)`` elementwise, and its pole check.

    A real ``sigma`` takes scipy's real ``gamma``: it is more accurate than the
    complex one and leaves no imaginary part, and a float ``sigma`` that is
    finite everywhere gives a float result (:func:`real_or_complex`).  The
    check is a ``(failed, error_class, message)`` entry for
    :func:`~scatjet.errors.raise_first`; off the poles the values are final.
    A pole is an integer ``sigma - n/2`` (:func:`near_integer`).
    """
    sigma = float_or_complex(sigma)
    half_off = sigma - n / 2.0
    value = real_or_complex(
        on_real_axis,
        lambda s: _real_prefactor(s, n),
        lambda s: _complex_prefactor(s, n),
        sigma,
    )
    return value, (
        near_integer(half_off),
        GammaPole,
        lambda i: f"sigma - n/2 = {complex(half_off[i])} is an integer: "
        "Gamma pole/zero in the prefactor",
    )


def _exp(x):
    """``exp`` elementwise: numpy's real ``exp`` where ``x`` is real and
    finite, its complex ``exp`` elsewhere.  Float for a float ``x`` that is
    finite everywhere (:func:`real_or_complex`)."""
    return real_or_complex(on_real_axis, lambda x: np.exp(x.real), np.exp, x)


def principal_symbol(
    patch: BoundaryPatch, xi, energies: Sequence[ComplexEnergy]
) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, symbols)``: the indicial roots and the principal symbol over the whole grid.

    ``sigma`` has shape ``patch.grid_shape + (len(energies),)``, energy
    last: :func:`~scatjet.boundary_jets.indicial_root` at each energy, float64
    when every energy is real and complex128 otherwise.  ``xi`` has shape
    ``(..., n)``; ``symbols`` has shape
    ``patch.grid_shape + (len(energies),) + xi.shape[:-1]``, grid first like ``sigma``.
    It is float64 when every energy is real and every sample is finite, and
    complex128 otherwise.
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
        log_norm = np.log(np.sqrt(sq)).reshape(patch.grid_shape + (1,) + xi.shape[:-1])
    # (*grid, E): float when every energy is real, complex otherwise
    sigma = np.stack([indicial_root(patch, energy) for energy in energies], axis=-1)
    pref, pole_check = prefactor_and_poles(sigma, n)
    # (*grid, E, 1, ...), to broadcast against log_norm's (*grid, 1, ...)
    per_sample = sigma.shape + (1,) * (xi.ndim - 1)
    with np.errstate(all="ignore"):
        arg = (2.0 * sigma - n).reshape(per_sample) * log_norm
        out = pref.reshape(per_sample) * _exp(arg)
    # a failure names the grid index, then the energy index and covector
    raise_first(
        n,
        [
            pole_check,
            (
                ~np.isfinite(out) | (out == 0),
                ScatjetError,
                lambda i: f"principal symbol at energy index {i[n]}, covector "
                f"{tuple(xi[i[n + 1 :]].tolist())} "
                + ("underflows to zero" if out[i] == 0 else "leaves double range"),
            ),
        ],
    )
    return sigma, out


def first_order_factors(probes: np.ndarray, sigma, t1: complex, t2: complex, alpha_sq, h0):
    """``(M, a, b, e)``: the factors of ``F = M (T u)``, ``T = [[a I, 0], [e^T, t2]]``.

    ``M = [mult w_i w_j | 1]`` is the real ``(P, k)`` matrix of the ``(P, n)``
    ``probes``, with ``mult`` 1 on the pairs ``i = j`` and 2 on ``i < j``, in
    the order of :func:`symmetric_pairs`.  Elementwise in ``sigma``,
    ``a = t1 (3 - 2 sigma)(1 - 2 sigma)`` and ``b = t1 (3 - 2 sigma)``; per
    point, ``e = b delta_ij - t2 alpha^2 (1-n)/4 mult h0[i, j]``, so that the
    last entry of ``T u``, ``e . u + t2 W1``, is
    ``b tr H + t2 (W1 - alpha^2 (1-n) tr(h0 H)/4)``.  ``sigma`` and
    ``alpha_sq`` are scalars or grid arrays and ``h0`` has shape
    ``(..., n, n)``.  ``t1`` and ``t2`` with no imaginary part are taken as
    floats, so a real ``sigma`` gives float ``a``, ``b`` and ``e``.
    """
    n = probes.shape[-1]
    rows, cols = symmetric_pairs(n)
    mult = np.where(rows == cols, 1.0, 2.0)
    M = np.concatenate(
        [mult * probes[:, rows] * probes[:, cols], np.ones((len(probes), 1))], axis=1
    )
    sig = float_or_complex(sigma)
    # np.multiply, not *: a one-point call stays a numpy scalar (a Python complex
    # times a numpy float, a subclass of float, would give a Python complex)
    b = np.multiply(real_part_if_real(t1), 3.0 - 2.0 * sig)
    c_trace = real_part_if_real(t2) * np.asarray(alpha_sq, dtype=float) * (1.0 - n) / 4.0
    e = b[..., None] * (rows == cols) - c_trace[..., None] * mult * h0[..., rows, cols]
    return M, b * (1.0 - 2.0 * sig), b, e


def singularity_coefficient(
    patch: BoundaryPatch,
    sigma,
    t1: complex,
    t2: complex,
    probes,
) -> np.ndarray:
    """Angular singularity coefficient ``F(omega)`` of the patch's first-order jets.

    The patch must carry order-1 entries in both jets.  Over its grid, the
    unknowns ``u`` are the entries of ``H = (h0_inv @ h^(1)) @ h0_inv`` at
    the pairs of :func:`symmetric_pairs`, read from ``patch.h0_inv``, then
    ``W1 = V^(1)`` itself, and ``F = M (T u)`` with the factors of
    :func:`first_order_factors` at ``alpha^2`` and ``h^(0)`` of the patch.
    ``sigma`` is the grid array of roots, or one root for every point;
    ``probes`` is one ``(P, n)`` array of unit probes shared by every point;
    :func:`probe_array` judges them and raises :class:`ValueError`.  The
    result has shape ``grid_shape + (P,)``, and each point's values have the
    same bits in any grid: float64 for a real ``sigma`` and ``t1``, ``t2``
    with no imaginary part, complex128 otherwise.  A value that is not
    finite raises :class:`~scatjet.errors.ScatjetError` naming the first grid
    index and, as the sample, the probe.
    """
    n = patch.n
    w = probe_array(probes, n, ValueError, "omega: ")
    rows, cols = symmetric_pairs(n)
    with np.errstate(all="ignore"):  # a value past double range is refused below
        M, a, _, e = first_order_factors(
            w, sigma, t1, t2, patch.alpha * patch.alpha, patch.h_jet[0]
        )
        u = ((patch.h0_inv @ patch.h_jet[1]) @ patch.h0_inv)[..., rows, cols]
        # T's last row by np.sum, as in the fit's substitution: np.vecdot conjugates a complex e
        last = np.sum(e * u, axis=-1) + real_part_if_real(t2) * patch.v_jet[1]
        Tu = np.empty(patch.grid_shape + (len(rows) + 1,), dtype=np.result_type(a, last))
        Tu[..., :-1] = a[..., None] * u
        Tu[..., -1] = last
        # one dot product per point and probe, so every point gets the same bits in any grid
        F = np.vecdot(M, Tu[..., None, :])
    raise_first(
        n,
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
