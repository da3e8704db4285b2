"""Recovery of boundary data from scattering samples.

Stage by stage:

1. ``recover_sigma_from_symbol`` reads a root off each sample's
   homogeneity: ``n/2 + log(S(t xi)/S(xi)) / (2 log t)``.  The roots of one
   point's covector samples must agree to 1e-6 (their spread is the
   ``sigma_consistency`` residual), and their mean is the point's
   ``sigma``.  The Gamma prefactor is peeled once per point, at that mean,
   to expose each covector norm ``|xi|_{h0}``, which must come out finite
   and real: a phase left on the samples (``sigma_phase``) is refused.  The
   stage runs real division, ``log`` and Gamma prefactor on every element whose operands are
   real and finite, and the complex ones elsewhere, so the exactly real
   symbols of real energies give exactly real roots.
2. ``metric_boundary_recovery`` refuses a negative norm, polarizes squared
   norms at ``{e_i}`` and ``{e_i + e_j}`` into the entries of the inverse
   metric, and factors and inverts every point's matrix in one entry-wise
   Cholesky pass (:func:`~scatjet.boundary_jets.cholesky_inverse`), which
   also judges it positive definite.
3. ``zeroth_order_recovery`` fits ``alpha^2`` and ``V0`` to the indicial
   identities ``alpha^2 sigma_e (n - sigma_e) - V0 = -(lambda_e^2 + n^2/4)``
   of every energy, real and imaginary parts as rows of one real least-squares
   problem per point, solved in closed form over the energy axis; a known
   ``alpha^2`` drops its column.  The misfit of the identities, in the units
   of ``lambda^2``, is the ``zeroth_order_misfit`` residual; it must be at
   most 1e-8 and ``alpha^2`` positive.
4. ``first_order_recovery`` fits the first-order angular samples
   ``F(omega)`` by minimum-norm least squares in the unknowns ``(H, W)``.
   Its design is the forward map's factorization
   (:func:`~scatjet.forward_scattering.first_order_factors`): a real probe
   matrix, the same at every grid point, times a lower-triangular map per
   point, so one SVD of the probe matrix and a forward substitution per
   point give the fit, with no per-point SVD.  A fit past double range is
   refused, and the driver refuses a ``first_order_fit`` residual above
   1e-8 times the point's largest ``|F|``.
   The fit has a structural one-dimensional kernel: ``omega^T H omega`` is
   constant over unit probes when ``H`` is a multiple of the identity, so
   that direction trades off against the constant ``W`` term.  The design
   rank and the kernel directions are reported, never silently resolved.
   Where the diagonal ``a`` of the triangular map vanishes, at
   ``sigma = 3/2`` or ``1/2``, the probes cannot see the traceless part of
   ``H``, and the fit refuses.

Every stage takes scalars or whole grid arrays, float or complex, and keeps
real data real: float64 samples and roots, and energies and model-integral
factors with no imaginary part, run in float64 arithmetic from the sigma
stage to the first-order fit (its dot products and QR included), and give
float64 fields; any complex input runs the complex arithmetic.
``layer_strip_driver``
chains the stages over a full symbol dataset, one call per stage: the sigma
and metric stages carry the energy axis after the grid axes.  Each residual
judged against a bound is one :class:`~scatjet.errors.Residual`, which the
refusal and the report both read.  The dataset
holds the scattering data alone, so the energies are screened after stage 3,
on the recovered ``alpha^2`` and ``V0``, at every grid point and mode order
(:func:`~scatjet.spectral_sets.is_admissible`), in a stage of its own: like
every stage, it refuses by raising a named error led by ``[stage <name>]``.
"""
from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .boundary_jets import (
    cholesky_inverse,
    float_or_complex,
    over_real,
    probe_array,
    symmetric_matrix,
    symmetric_pairs,
)
from .dataset import SymbolDataset, encode_complex, pack_array, valid_scale
from .errors import (
    BranchAmbiguity,
    ConfigError,
    ExceptionalEnergy,
    InconsistentData,
    NotPositiveDefinite,
    Residual,
    ScatjetError,
    ZeroIntegralFactor,
    ZeroSymbol,
    fold_last,
    raise_first,
    real_part_if_real,
    timed,
)
from .forward_scattering import (
    first_order_factors,
    on_real_axis,
    prefactor_and_poles,
    real_or_complex,
)
from .spectral_sets import exceptional_set, is_admissible, valid_margin

log = logging.getLogger(__name__)

_SV_CUT = 1e-10
_BRANCH_TOL = 1e-8  # how far Re sigma may sit below n/2
_SIGMA_SPREAD_TOL = 1e-6  # largest spread of sigma across one point's covectors
_MISFIT_TOL = 1e-8  # largest zeroth-order misfit, per max(1, max |lambda^2 + n^2/4|)
_PHASE_TOL = 1e-8  # largest imaginary part of log |xi|_{h0} from the peeled symbol
_CROSS_ENERGY_TOL = 1e-8  # largest metric gap between energies, per max |h0| entry
_FIT_TOL = 1e-8  # largest first-order fit residual, per max |F| of the point


def _smith_divide(a, b):
    real_big = np.abs(b.real) >= np.abs(b.imag)
    ratio = np.where(real_big, b.imag / b.real, b.real / b.imag)
    denom = np.where(real_big, b.real + b.imag * ratio, b.real * ratio + b.imag)
    re = np.where(real_big, a.real + a.imag * ratio, a.real * ratio + a.imag)
    im = np.where(real_big, a.imag - a.real * ratio, a.imag * ratio - a.real)
    return re / denom + 1j * (im / denom)


def _divide(a, b):
    """``a / b``, elementwise, ending in a true division.

    Where ``b`` is real, finite and nonzero and ``a`` is finite, the parts of
    ``a`` are divided by ``b`` (:func:`~scatjet.boundary_jets.over_real`):
    the bits of Smith's method, but for the sign of a zero.  Elsewhere
    Smith's method divides.  numpy's rounded reciprocal, amplified by the
    zeroth-order solve, moved ``V0`` by up to 1e-12 against the scalar
    division.  Float operands that all take the parts division give a float
    result, any other a complex one
    (:func:`~scatjet.forward_scattering.real_or_complex`).  No division raises
    a numpy warning, and a zero divisor gives inf or NaN for the caller to refuse.
    """
    a = float_or_complex(a)
    b = float_or_complex(b)
    return real_or_complex(
        lambda a, b: on_real_axis(b) & (b.real != 0),
        lambda a, b: over_real(a, b.real),
        _smith_divide,
        a,
        b,
    )


def _log(x):
    """The principal log, elementwise: numpy's real ``log`` where ``x`` is real,
    finite and positive, its complex ``log`` elsewhere.  Float for a float
    ``x`` that is finite and positive everywhere."""
    return real_or_complex(
        lambda x: on_real_axis(x) & (x.real > 0), lambda x: np.log(x.real), np.log, x
    )


@dataclass(frozen=True)
class SigmaRecovery:
    """The sigma stage per point: the root ``sigma`` and the ``spread`` of the
    roots of its samples, and each sample's covector ``norm`` and ``phase``."""

    sigma: complex | np.ndarray
    norm: float | np.ndarray
    spread: Residual
    phase: Residual


def recover_sigma_from_symbol(
    value_xi,
    value_txi,
    t: float,
    n: int,
) -> SigmaRecovery:
    """Indicial root and covector norms from homogeneity pairs, per point.

    The last axis of the samples holds the covector samples of one point,
    which share its root; a scalar is one sample.  Each sample gives a root
    ``n/2 + log(S(t xi)/S(xi)) / (2 log t)``: its real part comes from
    moduli and is branch-free, and the principal log fixes the imaginary
    part (documented ambiguity of ``pi / log t``).  The point's ``sigma`` is
    the mean of these roots, taken as the first root plus the mean of the
    others' deviations from it, and ``spread`` is their largest distance to
    it.  The Gamma prefactor is peeled once per point, at that mean, to
    expose the covector norm ``|xi|_{h0}`` of each sample.

    Each point is checked in this order, and the first failure raises: a
    sample not finite (:class:`InconsistentData`) or zero
    (:class:`ZeroSymbol`); a sample's root below the principal half-plane
    ``Re sigma >= n/2`` (:class:`BranchAmbiguity`); a spread above 1e-6
    (:class:`InconsistentData`); a Gamma pole at ``sigma``
    (:class:`~scatjet.errors.GammaPole`); a zero prefactor-normalized
    sample (:class:`ZeroSymbol`); a norm that is not finite, or whose log
    keeps an imaginary part above 1e-8 (:class:`InconsistentData`): the
    trace of a phase on the samples, or of a root off the principal log
    branch.  The first ``n`` axes of an array are the grid: a failure names
    the first failing grid index and the sample along the other axes (for
    the spread and the pole, the point's axes alone).
    """
    if not valid_scale(t):
        raise ValueError(f"scale factor t={t} must be finite, positive and != 1")
    kind = complex if np.iscomplexobj(value_xi) or np.iscomplexobj(value_txi) else float
    v, vt = np.broadcast_arrays(np.asarray(value_xi, kind), np.asarray(value_txi, kind))
    shape = v.shape
    with np.errstate(all="ignore"):
        q = _log(_divide(vt, v))
        d = 2.0 * math.log(t)
        each = n / 2.0 + over_real(q, d)
        samples = each.reshape(shape or (1,))
        # the first sample plus the mean deviation: exact where the samples
        # agree, where a sum over C can round off by an ulp, which the peel
        # amplifies near a Gamma pole
        sigma = samples[..., 0] + (samples - samples[..., :1]).mean(axis=-1)
        spread = fold_last(np.maximum, np.abs(samples - sigma[..., None]))
        pref, pole_check = prefactor_and_poles(sigma, n)
        power = _divide(v.reshape(samples.shape), pref[..., None])
        w = _divide(_log(power), (2.0 * sigma - n)[..., None])
        power, w = power.reshape(shape), w.reshape(shape)
        norm = np.exp(w.real)
        phase = np.abs(w.imag)
    finite = np.isfinite(v) & np.isfinite(vt)
    spread_check = Residual(
        "sigma_consistency",
        spread[()],
        _SIGMA_SPREAD_TOL,
        InconsistentData,
        lambda i: f"sigma estimates disagree across covectors (spread {spread[i]:.3e})",
    )
    phase_check = Residual(
        "sigma_phase",
        phase[()],
        _PHASE_TOL,
        InconsistentData,
        lambda i: "log of the recovered covector norm has imaginary part "
        f"{phase[i]:.3e} above {_PHASE_TOL:g}: a phase on the samples, "
        "or sigma off the principal log branch",
    )
    raise_first(
        n,
        [
            (~finite, InconsistentData, lambda i: "symbol sample is not finite"),
            (
                (v == 0) | (vt == 0),
                ZeroSymbol,
                lambda i: "symbol sample is zero; cannot take ratios",
            ),
            (
                each.real < n / 2.0 - _BRANCH_TOL,
                BranchAmbiguity,
                lambda i: f"recovered Re sigma = {each.real[i]:.6g} below n/2 = {n / 2}; "
                "no log branch restores the principal half-plane",
            ),
            spread_check,
            pole_check,
            (power == 0, ZeroSymbol, lambda i: "prefactor-normalized sample is zero"),
            (
                ~np.isfinite(norm),
                InconsistentData,
                lambda i: f"recovered covector norm {norm[i]} is not finite",
            ),
            phase_check,
        ],
    )
    return SigmaRecovery(sigma=sigma[()], norm=norm[()], spread=spread_check, phase=phase_check)


def metric_boundary_recovery(norms, n: int) -> np.ndarray:
    """Boundary metric from covector norms at ``{e_i}`` and ``{e_i + e_j}``.

    ``norms`` has shape ``(..., C)``: the norms ``|xi|_{h0}`` at the ``C``
    covectors of :func:`~scatjet.boundary_jets.polarization_covectors`,
    in that order.  Polarization gives the entries of the inverse metric at
    the same pairs, which :func:`~scatjet.boundary_jets.cholesky_inverse`
    factors and inverts entry-wise over the whole stack; the inverse metric
    must come out positive definite.  The result has shape ``(..., n, n)``.

    A point passes or fails in any batch as it does alone; the first refused
    grid index (the first ``n`` axes) and sample (the axes between the grid
    and ``C``) are named with the eigenvalues of its matrix.  Before that,
    :class:`InconsistentData` is raised for a negative norm, whose sample
    ends with its covector, then for a squared norm or a polarized entry
    past double range, named the same way as a refused point.
    """
    norm = np.asarray(norms, dtype=float)
    rows, cols = symmetric_pairs(n)
    if norm.shape[-1:] != rows.shape:
        raise ValueError(
            f"norms need a last axis of length {rows.size} for n={n}, got shape {norm.shape}"
        )
    i, j = rows[n:], cols[n:]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = norm**2
        # the polarized entries at the pairs of symmetric_pairs: an infinite
        # squared norm leaves an infinite diagonal entry, or an infinite
        # off-diagonal one beside finite diagonal entries
        off = (sq[..., n:] - sq[..., i] - sq[..., j]) / 2.0
        entries = np.concatenate([sq[..., :n], off], axis=-1)
    raise_first(
        n,
        [
            (
                norm < 0.0,
                InconsistentData,
                lambda k: f"recovered covector norm {norm[k]} is negative",
            ),
            (
                fold_last(np.logical_or, np.isinf(entries)),
                InconsistentData,
                lambda k: f"squared covector norm leaves double range (norms {norm[k]})",
            ),
        ],
    )
    inverse, refused = cholesky_inverse(entries, n)
    raise_first(
        n,
        [
            (
                refused,
                NotPositiveDefinite,
                lambda k: "recovered inverse metric has eigenvalues "
                f"{np.linalg.eigvalsh(symmetric_matrix(entries[k], n))}; not positive definite",
            )
        ],
    )
    return inverse


def zeroth_order_recovery(sigma, energies, n: int, alpha_sq: float | None = None):
    """``(alpha_sq, v0, misfit)`` over the grid from the roots at every energy.

    ``sigma`` has shape ``(..., E)``, a root per
    :class:`~scatjet.boundary_jets.ComplexEnergy` of ``energies``.  With
    ``p = sigma (n - sigma)`` and ``c = lambda^2 + n^2/4``, the real and
    imaginary parts of each energy's identity ``alpha^2 p - V0 = -c`` are two
    rows of a real least-squares problem per point.  ``V0`` enters the real
    rows alone, so its fit centres them: ``V0 = alpha^2 mean(Re p) + mean(Re c)``,
    and ``alpha^2 = -sum(P C) / sum(P^2)`` over the rows ``P`` and ``C`` left
    (centred real parts, imaginary parts).  A known ``alpha_sq`` drops its
    column.  ``misfit`` is the :class:`~scatjet.errors.Residual`
    ``zeroth_order_misfit``: the largest ``|alpha^2 P + C|``, per ``max(1, max |c|)``.

    The first failing point raises :class:`InconsistentData`, checked in this
    order, NaN failing each, the first two with ``alpha^2`` unknown: an
    ``alpha^2`` column of norm at most ``1e-12 max(1, max |p|)``, real
    ``lambda^2`` that coincide to ``1e-12 max(1, max |c|)`` under roots that
    differ, a misfit above 1e-8, an ``alpha^2`` that is not positive.  The
    column check alone decides whether the energies determine ``alpha^2``:
    the roots of real ``lambda^2`` that all coincide, one included, make it
    singular, and complex ones, coinciding or alone, are solved from their
    imaginary rows.
    """
    sigma = float_or_complex(sigma)
    lam_sq = np.array([en.lam_sq for en in energies])
    if sigma.shape[-1:] != lam_sq.shape:
        raise ValueError(f"sigma needs a last axis of {lam_sq.size} energies, got {sigma.shape}")
    c = lam_sq + n * n / 4.0
    scale = max(1.0, float(np.max(np.abs(c))))
    with np.errstate(all="ignore"):
        p = sigma * (n - sigma)
        p_mean = fold_last(np.add, p.real) / lam_sq.size
        # the rows: the centred real parts, and for complex data the imaginary parts
        rows_p, rows_c = p.real - p_mean[..., None], c.real - np.mean(c.real)
        if np.iscomplexobj(p) or np.any(c.imag):
            rows_p = np.concatenate([rows_p, p.imag], axis=-1)
            rows_c = np.concatenate([rows_c, c.imag])
        if alpha_sq is None:
            norm_sq = fold_last(np.add, rows_p * rows_p)
            alpha = -fold_last(np.add, rows_p * rows_c) / norm_sq
            column = np.sqrt(norm_sq) > 1e-12 * np.maximum(1, fold_last(np.maximum, np.abs(p)))
            # real lambda^2 that all coincide leave only alpha^2 = 0 to fit roots that differ
            varied = np.full(alpha.shape, np.max(np.abs(rows_c)) > 1e-12 * scale)
        else:
            alpha = np.full(sigma.shape[:-1], float(alpha_sq))
            column = varied = np.ones(alpha.shape, dtype=bool)
        v0 = alpha * p_mean + np.mean(c.real)
        misfit = fold_last(np.maximum, np.abs(alpha[..., None] * rows_p + rows_c)) / scale
    misfit_check = Residual(
        "zeroth_order_misfit",
        misfit[()],
        _MISFIT_TOL,
        InconsistentData,
        lambda i: f"no real alpha^2 and V0 fit the indicial identities: misfit "
        f"{misfit[i]:.3e} above {_MISFIT_TOL:g} times max(1, |lambda^2 + n^2/4|) "
        f"= {scale:.3e}",
    )
    raise_first(
        n,
        [
            (
                ~column,
                InconsistentData,
                lambda i: "indicial products sigma (n - sigma) are real and coincide; "
                "system is singular",
            ),
            (
                ~varied,
                InconsistentData,
                lambda i: "lambda^2 are real and coincide, yet the indicial products "
                "sigma (n - sigma) differ: no alpha^2 > 0 fits",
            ),
            misfit_check,
            (
                ~(alpha > 0),
                InconsistentData,
                lambda i: f"recovered alpha^2 = {alpha[i]:.6g} is not positive",
            ),
        ],
    )
    return alpha[()], v0[()], misfit_check


# -- first-order stage ------------------------------------------------------


def _unpack(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(H, W)`` from the unknowns along the last axis.

    The ``H`` entries come at the pairs of
    :func:`~scatjet.boundary_jets.symmetric_pairs`, in that order, and ``W`` last.
    """
    return symmetric_matrix(x[..., :-1], n), x[..., -1]


@dataclass(frozen=True)
class FirstOrderResult:
    """The first-order fit; the leading axes of every array field are the grid.

    ``design_rank`` is the rank of the probe matrix, which is the fit's rank
    at every point.  ``kernel`` holds each point's orthonormal basis of the
    fit's kernel, one ``(H, W)`` unknown vector per row.
    """

    H: np.ndarray
    W1: np.ndarray
    residual: np.ndarray
    design_rank: int
    kernel: np.ndarray

    def kernel_basis(self, idx: tuple[int, ...] = ()) -> tuple[tuple[np.ndarray, complex], ...]:
        """The ``(H, W)`` kernel directions of the fit at grid index ``idx``."""
        Hs, Ws = _unpack(self.kernel[idx], self.H.shape[-1])
        return tuple((H, complex(W)) for H, W in zip(Hs, Ws))


def _solve_triangular(a, e, t2: complex, z) -> np.ndarray:
    """``T^-1 z`` along the last axis of ``z``, by forward substitution."""
    y = z[..., :-1] / a[..., None]
    last = (z[..., -1] - np.sum(e * y, axis=-1)) / t2
    return np.concatenate([y, last[..., None]], axis=-1)


def first_order_recovery(
    values,
    probes,
    sigma,
    t1: complex,
    t2: complex,
    alpha_sq,
    h0,
) -> FirstOrderResult:
    """Minimum-norm fit of ``(H, W)`` to angular singularity samples, pointwise.

    ``values`` has shape ``(..., P)`` and ``probes`` ``(P, n)``: ``P``
    samples ``F(omega)`` per point, at one set of unit probes shared by every
    point; ``sigma`` and ``alpha_sq`` are scalars or arrays over ``...`` and
    ``h0`` has shape ``(..., n, n)``.
    The design is the forward model's, in the unknowns
    ``(H_11, ..., H_nn, H_ij (i<j) ..., W)``, in that order: ``A = M T``
    with the factors of
    :func:`~scatjet.forward_scattering.first_order_factors`, a real probe
    matrix ``M``, the same at every point, times a lower-triangular ``T``
    per point.  One SVD of ``M`` gives ``M^+``, its rank and its kernel
    ``K``; per point ``z = M^+ b``, ``y = T^-1 z``, and the minimum-norm fit
    is ``y`` less its projection onto the fit's kernel ``T^-1 K``.  The
    residual is ``|b - M z|``.  Rank deficiency is reported, not raised.

    A design entry past double range raises :class:`InconsistentData`, as
    does ``|a|`` at most ``1e-10 max(|t1 (3-2 sigma)|, |t2|)``: near
    ``sigma = 3/2`` or ``1/2`` the probes no longer see the traceless part
    of ``H``.  Both name the grid index.
    """
    if abs(t1) < 1e-12 or abs(t2) < 1e-12:
        raise ZeroIntegralFactor(f"model-integral factors t1={t1}, t2={t2} too small")
    b = float_or_complex(values)
    if b.shape[-1:] in ((), (0,)):
        raise ValueError("no singularity samples given")
    h0 = np.asarray(h0, dtype=float)
    n = h0.shape[-1]
    w = probe_array(probes, n, ValueError, "omega: ")
    sigma = float_or_complex(sigma)
    grid = np.broadcast_shapes(b.shape[:-1], sigma.shape, np.shape(alpha_sq), h0.shape[:-2])
    # the messages print t1 and t2 as given, the arithmetic takes a real one as a float
    r2 = real_part_if_real(t2)
    with np.errstate(all="ignore"):
        M, a, trace_factor, e = first_order_factors(w, sigma, t1, t2, alpha_sq, h0)
        a, e = np.broadcast_to(a, grid), np.broadcast_to(e, grid + e.shape[-1:])
        bound = _SV_CUT * np.maximum(np.abs(trace_factor), abs(r2))
    raise_first(
        len(grid),
        [
            (
                ~(np.isfinite(a) & fold_last(np.logical_and, np.isfinite(e))),
                InconsistentData,
                lambda i: f"first-order design leaves double range (t1={t1}, t2={t2})",
            ),
            (
                np.abs(a) <= bound,
                InconsistentData,
                lambda i: f"|t1 (3-2 sigma)(1-2 sigma)| = {abs(a[i]):.3e} at sigma = "
                f"{complex(np.broadcast_to(sigma, grid)[i])} is at most {_SV_CUT:g} "
                "max(|t1 (3-2 sigma)|, |t2|): the probes do not see the traceless part of H",
            ),
        ],
    )

    U, svals, Vh = np.linalg.svd(M)
    rank = int(np.sum(svals > _SV_CUT * svals[0]))
    pinv = (Vh[:rank].T / svals[:rank]) @ U[:, :rank].T
    # np.vecdot makes one dot product per point, and every other step is
    # elementwise or one point's LAPACK call, so every point gets the same bits
    # in any grid (np.vecdot: numpy >= 2)
    with np.errstate(all="ignore"):
        z = np.vecdot(pinv, b[..., None, :])
        y = _solve_triangular(a, e, r2, z)
        Q, _ = np.linalg.qr(
            np.swapaxes(_solve_triangular(a[..., None], e[..., None, :], r2, Vh[rank:]), -1, -2)
        )
        kernel = np.swapaxes(Q, -1, -2)
        x = y - np.sum(kernel * np.vecdot(kernel, y[..., None, :])[..., None], axis=-2)
        miss = b - np.vecdot(M, z[..., None, :])
        residual = np.sqrt(np.vecdot(miss.real, miss.real) + np.vecdot(miss.imag, miss.imag))
    raise_first(
        len(grid),
        [
            (
                ~(fold_last(np.logical_and, np.isfinite(x)) & np.isfinite(residual)),
                InconsistentData,
                lambda i: "fitted H, W1 or fit residual leaves double range "
                f"(residual {residual[i]:.3e})",
            )
        ],
    )

    H, W = _unpack(x, n)
    return FirstOrderResult(H=H, W1=W, residual=residual, design_rank=rank, kernel=kernel)


# -- full driver ------------------------------------------------------------


@contextlib.contextmanager
def _stage(name: str):
    """Time a driver stage, and re-raise any package error with its name prefixed.

    A numpy ``LinAlgError`` (a decomposition that did not converge) becomes
    :class:`InconsistentData` the same way.
    """
    try:
        with timed(name):
            yield
    except ScatjetError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise InconsistentData(f"[stage {name}] linear algebra failed: {exc}") from exc


@dataclass
class RecoveryReport:
    """What the driver recovered; a field no stage reached is ``None``.

    Grid fields have shape ``grid_shape``, plus ``(E,)`` for ``sigma``, the
    root at each energy, and ``(n, n)`` for ``h0`` and ``H``; ``alpha_sq``,
    ``v0`` and ``h0`` are always float64, and ``sigma``, ``H``, ``W1`` and
    each ``kernel_basis`` ``H`` are float64 for real data (real energies,
    float samples, real ``t_pair``) and complex128 otherwise.
    :meth:`to_dict` writes each as the base64 string of
    :func:`~scatjet.dataset.pack_array`, so a float field, or a complex one
    whose imaginary parts are all ``+0.0``, is written as its real parts and
    any other as ``re, im`` pairs.  ``residuals`` maps each judged
    :class:`~scatjet.errors.Residual` by name to its ``worst`` summary.
    """

    n: int
    grid_shape: tuple[int, ...]
    status: str  # "ok", or the partial status of one energy with alpha^2 unknown
    sigma: np.ndarray | None = None
    h0: np.ndarray | None = None
    alpha_sq: np.ndarray | None = None
    v0: np.ndarray | None = None
    H: np.ndarray | None = None
    W1: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    design_rank: int | None = None
    kernel_basis: tuple = ()
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "grid_shape": list(self.grid_shape),
            "status": self.status,
            "residuals": self.residuals,
            "notes": list(self.notes),
        }
        for name in ("sigma", "alpha_sq", "v0", "h0", "H", "W1"):
            val = getattr(self, name)
            out[name] = None if val is None else pack_array(val)
        out["design_rank"] = self.design_rank
        out["kernel_basis"] = [
            {"H": pack_array(h), "W": encode_complex(w)} for h, w in self.kernel_basis
        ]
        return out


def layer_strip_driver(dataset, *, margin=1e-6, alpha_sq_known=None) -> RecoveryReport:
    """Run the staged recovery over a full symbol dataset.

    Stages: root/norm recovery and metric polarization over every grid point
    and energy, the zeroth-order least squares over every energy (``alpha^2``
    fitted, or given as ``alpha_sq_known``), the admissibility screen, then
    the first-order fit when singularity samples are present, each reading the
    dataset's :class:`~scatjet.boundary_jets.ComplexEnergy` entries as they are.  An energy
    whose roots contradict the others' is refused by the zeroth-order misfit.
    A ``margin`` that is negative, NaN or infinite, or an ``alpha_sq_known``
    that is not finite and positive, raises :class:`ConfigError` before any
    stage runs.  The ``screen`` stage (:func:`~scatjet.spectral_sets.is_admissible`)
    judges every energy at ``margin`` on the recovered ``alpha^2`` and ``V0``
    at every grid point and mode order; the first energy that fails it
    raises :class:`ExceptionalEnergy` with the screen's reason, naming the
    energy, the grid index and the mode ``k`` or the branch cut.  Every
    refusal raises from its stage, led by ``[stage <name>]``.  With one
    energy and ``alpha^2`` unknown the driver stops at ``h0``, with the
    partial status, and ``notes`` says the screen did not run.
    ``sigma`` holds the root at every energy and ``h0`` is the metric at the
    first; ``h0_cross_energy`` is its largest gap to the metric at any
    energy, 0 at one energy.  That gap and the first-order fit residual are
    judged here, each a :class:`~scatjet.errors.Residual`: a metric gap
    above 1e-8 times the point's largest ``|h0|`` entry raises
    :class:`InconsistentData` in the metric stage, naming the grid index and
    the energy index, and a fit residual above 1e-8 times the point's largest
    ``|F|`` raises it in the first-order stage, naming the grid index.  Jets
    of order two and higher are out of scope and flagged in ``notes``.
    """
    if not isinstance(dataset, SymbolDataset):
        raise TypeError(f"layer_strip_driver needs a SymbolDataset, got {type(dataset).__name__}")
    a2 = alpha_sq_known
    if a2 is not None and not (math.isfinite(a2) and a2 > 0):
        raise ConfigError(f"alpha_sq_known={a2} must be finite and positive")
    if not valid_margin(margin):
        raise ConfigError(f"margin={margin} must be finite and >= 0")
    n = dataset.n
    log.info("sigma stage: sigma = n/2 + log(S(t xi)/S(xi)) / (2 log t), t=%g", dataset.scale_t)
    with _stage("sigma"):
        # a failure names the grid index and the sample (energy, covector), or the
        # energy alone for the spread and the pole
        symbols = dataset.symbols
        rec = recover_sigma_from_symbol(symbols[..., 0], symbols[..., 1], dataset.scale_t, n)

    log.info("metric stage: polarization of |xi|^2_{h0} over e_i, e_i + e_j")
    with _stage("metric"):
        h0_fields = metric_boundary_recovery(rec.norm, n)
        h0 = h0_fields[..., 0, :, :]
        # (*grid, E): each energy's largest gap to the metric at energy 0
        with np.errstate(all="ignore"):
            gaps = fold_last(np.maximum, np.abs(h0_fields - h0[..., None, :, :]), 2)
            h0_scale = fold_last(np.maximum, np.abs(h0), 2)
        gap = Residual(
            "h0_cross_energy",
            gaps,
            _CROSS_ENERGY_TOL * h0_scale[..., None],
            InconsistentData,
            lambda i: f"metric at energy index {i[n]} differs from energy 0's by "
            f"{gaps[i]:.3e}, more than {_CROSS_ENERGY_TOL:g} times the largest "
            f"|h0| entry {h0_scale[i[:n]]:.3e}",
        )
        raise_first(n, [gap])
    report = RecoveryReport(n, dataset.grid_shape, "ok", sigma=rec.sigma, h0=h0)
    judged = [rec.spread, rec.phase, gap]

    if len(dataset.energies) == 1 and a2 is None:
        report.status = "partial: sigma and h0 only (one energy, alpha unknown)"
        report.notes += [
            "a second energy or a known alpha^2 is required for the zeroth-order algebra",
            "admissibility screen not run: alpha^2 is unknown",
        ]
        report.residuals = {r.name: r.worst(n) for r in judged}
        return report

    log.info("zeroth-order stage: least squares of alpha^2 s(n-s) - V0 = -(l^2 + n^2/4)")
    with _stage("zeroth-order"):
        alpha_field, v0_field, misfit = zeroth_order_recovery(rec.sigma, dataset.energies, n, a2)
    with _stage("screen"):
        es = exceptional_set(alpha_field, v0_field, n)
        for en in dataset.energies:
            adm = is_admissible(en, es, margin)
            if not adm.ok:
                raise ExceptionalEnergy(adm.reason)
    if a2 is not None:
        report.notes.append("alpha^2 supplied a priori; V0 fitted over the energies")
    report.alpha_sq, report.v0 = alpha_field, v0_field
    judged.append(misfit)

    if dataset.singularity is not None:
        log.info("first-order stage: least squares of F = M (T u) from first_order_factors")
        with _stage("first-order"):
            fo = first_order_recovery(
                dataset.singularity, dataset.probes, rec.sigma[..., 0], *dataset.t_pair,
                alpha_field, h0
            )
            f_scale = fold_last(np.maximum, np.abs(dataset.singularity))
            # an all-zero F passes with its zero residual
            fit = Residual(
                "first_order_fit",
                fo.residual,
                _FIT_TOL * f_scale,
                InconsistentData,
                lambda i: f"first-order fit residual {fo.residual[i]:.3e} is more than "
                f"{_FIT_TOL:g} times the largest |F| {f_scale[i]:.3e}: the samples do "
                "not fit the first-order model",
            )
            raise_first(n, [fit])
        report.H = fo.H
        report.W1 = fo.W1
        judged.append(fit)
        report.design_rank = fo.design_rank
        # the kernel directions, as seen at the last grid index
        report.kernel_basis = fo.kernel_basis(tuple(m - 1 for m in dataset.grid_shape))

    report.notes.append("jets of order k >= 2: not attempted (out of scope)")
    report.residuals = {r.name: r.worst(n) for r in judged}
    return report
