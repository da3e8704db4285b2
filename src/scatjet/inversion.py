"""Recovery of boundary data from scattering samples.

Stage by stage:

1. ``recover_sigma_from_symbol`` reads a root off each sample's
   homogeneity: ``n/2 + log(S(t xi)/S(xi)) / (2 log t)``.  The roots of one
   point's covector samples must agree to 1e-6 (their spread is the
   ``sigma_consistency`` residual), and their mean is the point's
   ``sigma``.  The Gamma prefactor is peeled once per point, at that mean,
   to expose each covector norm ``|xi|_{h0}``, which must come out finite
   and real: a phase left on the samples is refused.  The stage runs real
   division, ``log`` and Gamma prefactor on every element whose operands are
   real and finite, and the complex ones elsewhere, so the exactly real
   symbols of real energies give exactly real roots.
2. ``metric_boundary_recovery`` polarizes squared norms at ``{e_i}`` and
   ``{e_i + e_j}`` into the inverse metric and inverts it.
3. ``two_energy_recovery`` solves the pair of indicial identities
   ``alpha^2 sigma_i (n - sigma_i) = V0 - lambda_i^2 - n^2/4`` for
   ``alpha^2`` and ``V0``; with ``alpha^2`` known, the first identity alone
   gives ``V0``.  Both routes share one formula for ``V0`` and one check
   that ``alpha^2`` and ``V0`` come out real, ``alpha^2`` positive.
4. ``first_order_recovery`` fits the first-order angular samples
   ``F(omega)`` by minimum-norm least squares in the unknowns ``(H, W)``.
   Its design is the forward map's factorization
   (:func:`~scatjet.forward_scattering.first_order_factors`): a real probe
   matrix, the same at every grid point, times a lower-triangular map per
   point, so one SVD of the probe matrix and a forward substitution per
   point give the fit, with no per-point SVD.  A fit past double range is
   refused.
   The fit has a structural one-dimensional kernel: ``omega^T H omega`` is
   constant over unit probes when ``H`` is a multiple of the identity, so
   that direction trades off against the constant ``W`` term.  The design
   rank and the kernel directions are reported, never silently resolved.
   Where ``t1 (3 - 2 sigma)(1 - 2 sigma)`` vanishes the probes cannot see
   the traceless part of ``H``, and the fit refuses.

Every stage takes scalars or whole grid arrays.  ``layer_strip_driver``
chains the stages over a full symbol dataset, one call per stage: the sigma
and metric stages carry the energy axis after the grid axes.  The dataset
holds the scattering data alone, so the energies are screened after stage 3,
on the recovered ``alpha^2`` and ``V0``, at every grid point and mode order
(:func:`~scatjet.spectral_sets.is_admissible`).
"""
from __future__ import annotations

import contextlib
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boundary_jets import ComplexEnergy, indicial_v0, positive_definite_inverse_or_raise
from .dataset import SymbolDataset, encode_complex, pack_array
from .errors import (
    BranchAmbiguity,
    ConfigError,
    DegenerateEnergies,
    InconsistentData,
    NotPositiveDefinite,
    ScatjetError,
    ZeroIntegralFactor,
    ZeroSymbol,
    raise_first,
)
from .forward_scattering import (
    first_order_factors,
    hessian_profile_factors,
    prefactor_and_poles,
    probe_array,
    real_or_complex,
    symmetric_pairs,
)
from .spectral_sets import exceptional_set, is_admissible

log = logging.getLogger(__name__)
STAGE_LOGGER = "scatjet.stages"  # the logger of the stage timings of ``timed``

_SV_CUT = 1e-10
_BRANCH_TOL = 1e-8  # how far Re sigma may sit below n/2
_SIGMA_SPREAD_TOL = 1e-6  # largest spread of sigma across one point's covectors
_REALNESS_TOL = 1e-8  # largest relative imaginary part of alpha^2 and V0
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
    """Complex ``a / b``, elementwise, ending in a true division.

    Where ``b`` is real, finite and nonzero and ``a`` is finite, the parts of
    ``a`` are divided by ``b``: the bits of Smith's method, but for the sign
    of a zero.  Elsewhere Smith's method divides.  numpy's complex division
    multiplies by a rounded reciprocal instead; the extra rounding, amplified
    by the two-energy solve, moved ``V0`` by up to 1e-12 against the scalar
    division.  No division raises a numpy warning, and a zero divisor gives
    inf or NaN for the caller to refuse.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return real_or_complex(
        (b.imag == 0) & (b.real != 0),
        lambda a, b: a.real / b.real + 1j * (a.imag / b.real),
        _smith_divide,
        a,
        b,
    )


def _log(x):
    """The principal log, elementwise: numpy's real ``log`` where ``x`` is real,
    finite and positive, its complex ``log`` elsewhere."""
    return real_or_complex((x.imag == 0) & (x.real > 0), lambda x: np.log(x.real), np.log, x)


@dataclass(frozen=True)
class SigmaRecovery:
    """The sigma stage per point: the root ``sigma`` and the ``spread`` of the
    roots of its samples, and the covector ``norm`` of each sample."""

    sigma: complex | np.ndarray
    norm: float | np.ndarray
    spread: float | np.ndarray


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
    if t <= 0 or t == 1.0:
        raise ValueError("scale factor t must be positive and != 1")
    v, vt = np.broadcast_arrays(
        np.asarray(value_xi, dtype=complex), np.asarray(value_txi, dtype=complex)
    )
    shape = v.shape
    with np.errstate(all="ignore"):
        q = _log(_divide(vt, v))
        d = 2.0 * math.log(t)
        # a real divisor: parts divided alone, each a true division like ``_divide``'s
        each = n / 2.0 + (q.real / d + 1j * (q.imag / d))
        samples = each.reshape(shape or (1,))
        # the first sample plus the mean deviation: exact where the samples
        # agree, where a sum over C can round off by an ulp, which the peel
        # amplifies near a Gamma pole
        sigma = samples[..., 0] + (samples - samples[..., :1]).mean(axis=-1)
        spread = np.max(np.abs(samples - sigma[..., None]), axis=-1)
        pref, pole_check = prefactor_and_poles(sigma, n)
        power = _divide(v.reshape(samples.shape), pref[..., None])
        w = _divide(_log(power), (2.0 * sigma - n)[..., None])
        power, w = power.reshape(shape), w.reshape(shape)
        norm = np.exp(w.real)
        phase = np.abs(w.imag)
    finite = np.isfinite(v) & np.isfinite(vt)
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
            # written so that a NaN spread fails too
            (
                ~(spread <= _SIGMA_SPREAD_TOL),
                InconsistentData,
                lambda i: f"sigma estimates disagree across covectors (spread {spread[i]:.3e})",
            ),
            pole_check,
            (power == 0, ZeroSymbol, lambda i: "prefactor-normalized sample is zero"),
            (
                ~np.isfinite(norm),
                InconsistentData,
                lambda i: f"recovered covector norm {norm[i]} is not finite",
            ),
            (
                ~(phase <= _PHASE_TOL),
                InconsistentData,
                lambda i: "log of the recovered covector norm has imaginary part "
                f"{phase[i]:.3e} above {_PHASE_TOL:g}: a phase on the samples, "
                "or sigma off the principal log branch",
            ),
        ],
    )
    return SigmaRecovery(sigma=sigma[()], norm=norm[()], spread=spread[()])


def metric_boundary_recovery(norms, n: int) -> np.ndarray:
    """Boundary metric from covector norms at ``{e_i}`` and ``{e_i + e_j}``.

    ``norms`` has shape ``(..., C)``: the norms ``|xi|_{h0}`` at the ``C``
    covectors of :func:`~scatjet.forward_scattering.polarization_covectors`,
    in that order.  Polarization fills the inverse metric, which must come out
    positive definite.  The result has shape ``(..., n, n)``.

    Each point is judged alone by
    :func:`~scatjet.boundary_jets.positive_definite_inverse_or_raise`, which
    reads the inverse off the Cholesky factor that judges the matrix, so a
    point passes or fails in any batch as it does alone; the first refused
    grid index (the first ``n`` axes) and sample (the axes between the grid
    and ``C``) are named with the eigenvalues of its matrix.
    Before that, a squared norm or a polarized entry past double range
    raises :class:`InconsistentData`, naming the point the same way.
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
        off = (sq[..., n:] - sq[..., i] - sq[..., j]) / 2.0
    raise_first(
        n,
        [
            (
                np.isinf(sq).any(axis=-1) | np.isinf(off).any(axis=-1),
                InconsistentData,
                lambda k: f"squared covector norm leaves double range (norms {norm[k]})",
            )
        ],
    )
    M = np.empty(sq.shape[:-1] + (n, n))
    M[..., rows, cols] = M[..., cols, rows] = np.concatenate([sq[..., :n], off], axis=-1)
    return positive_definite_inverse_or_raise(
        M,
        n,
        NotPositiveDefinite,
        lambda i: f"recovered inverse metric has eigenvalues {np.linalg.eigvalsh(M[i])}; "
        "not positive definite",
    )


def _zeroth_order(alpha_sq, sigma1, lam1: complex, n: int, checks=()):
    """``(alpha_sq, v0, realness_residual)`` from ``alpha^2`` and the first root.

    ``V0`` is :func:`~scatjet.boundary_jets.indicial_v0` at the first energy,
    with the complex ``alpha_sq`` and the roots as scalars or grid arrays.  Both
    outputs must be real to ``_REALNESS_TOL`` (relative) and ``alpha_sq``
    positive; ``checks`` come before these at each point.
    """
    with np.errstate(all="ignore"):
        v0 = indicial_v0(alpha_sq, complex(lam1) ** 2, sigma1, n)
        resid = np.maximum(
            np.abs(alpha_sq.imag) / (1.0 + np.abs(alpha_sq.real)),
            np.abs(v0.imag) / (1.0 + np.abs(v0.real)),
        )
    raise_first(
        n,
        [
            *checks,
            # both written so that NaN fails too
            (
                ~(resid <= _REALNESS_TOL),
                InconsistentData,
                lambda i: f"recovered alpha^2/V0 not real to tolerance (residual {resid[i]:.3e})",
            ),
            (
                ~(alpha_sq.real > 0),
                InconsistentData,
                lambda i: f"recovered alpha^2 = {alpha_sq.real[i]:.6g} is not positive",
            ),
        ],
    )
    return alpha_sq.real[()], v0.real[()], resid[()]


def two_energy_recovery(sigma1, sigma2, lam1: complex, lam2: complex, n: int):
    """Curvature scale and boundary potential from roots at two energies.

    Solves the indicial identity at both energies: their difference gives
    ``alpha^2 = (lambda_2^2 - lambda_1^2) / (sigma_1(n-sigma_1) - sigma_2(n-sigma_2))``
    and :func:`~scatjet.boundary_jets.indicial_v0` at the first gives ``V0``.

    Returns ``(alpha_sq, v0, realness_residual)``, scalars or grid arrays
    like the roots; both outputs must be real to 1e-8 (relative) and
    ``alpha_sq`` positive.
    """
    l1sq, l2sq = complex(lam1) ** 2, complex(lam2) ** 2
    if abs(l1sq - l2sq) <= 1e-12 * max(1.0, abs(l1sq)):
        raise DegenerateEnergies(f"lambda^2 values coincide: {l1sq} vs {l2sq}")
    s1 = np.asarray(sigma1, dtype=complex)
    s2 = np.asarray(sigma2, dtype=complex)
    p1 = s1 * (n - s1)
    denom = p1 - s2 * (n - s2)
    alpha_sq = _divide(l2sq - l1sq, denom)
    singular = (
        np.abs(denom) <= 1e-12 * np.maximum(1.0, np.abs(p1)),
        InconsistentData,
        lambda i: "indicial products coincide; system is singular",
    )
    return _zeroth_order(alpha_sq, s1, lam1, n, [singular])


# -- first-order stage ------------------------------------------------------


def _unpack(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(H, W)`` from the unknowns along the last axis.

    The ``H`` entries come at the pairs of
    :func:`~scatjet.forward_scattering.symmetric_pairs`, in that order, and ``W`` last.
    """
    H = np.empty(x.shape[:-1] + (n, n), dtype=complex)
    rows, cols = symmetric_pairs(n)
    H[..., rows, cols] = H[..., cols, rows] = x[..., :-1]
    return H, x[..., -1]


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


def _design_factors(probes, sigma, t1: complex, t2: complex, alpha_sq, h0):
    """``(M, a, e)``: the first-order design is ``M T`` with ``T = [[a I, 0], [e^T, t2]]``.

    ``M`` and ``a`` come from
    :func:`~scatjet.forward_scattering.first_order_factors`.  Per point,
    ``e = t1 (3-2 sigma) delta - t2 alpha^2 (1-n)/4 mult h0[i, j]``, with
    ``mult`` 1 on the pairs ``i = j`` and 2 on ``i < j``.
    """
    n = h0.shape[-1]
    rows, cols = symmetric_pairs(n)
    M, a, b = first_order_factors(probes, sigma, t1)
    c_trace = t2 * np.asarray(alpha_sq, dtype=float) * (1.0 - n) / 4.0
    mult = np.where(rows == cols, 1.0, 2.0)
    e = b[..., None] * (rows == cols) - c_trace[..., None] * mult * h0[..., rows, cols]
    return M, a, e


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
    Design rows follow the forward model
    ``F(omega) = t1 sum_ij H_ij D_ij(omega) + t2 (W - alpha^2 (1-n) tr(h0 H)/4)``
    in the unknowns ``(H_11, ..., H_nn, H_ij (i<j) ..., W)``, in that order.

    The design factors as ``A = M T`` (:func:`_design_factors`): a real
    probe matrix ``M``, the same at every point, times a lower-triangular
    ``T`` per point.  One SVD of ``M`` gives ``M^+``, its rank and its kernel
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
    b = np.asarray(values, dtype=complex)
    if b.shape[-1:] in ((), (0,)):
        raise ValueError("no singularity samples given")
    h0 = np.asarray(h0, dtype=float)
    n = h0.shape[-1]
    w = probe_array(probes, n, ValueError, "omega: ")
    sigma = np.asarray(sigma, dtype=complex)
    grid = np.broadcast_shapes(b.shape[:-1], sigma.shape, np.shape(alpha_sq), h0.shape[:-2])
    with np.errstate(all="ignore"):
        M, a, e = _design_factors(w, sigma, t1, t2, alpha_sq, h0)
        a, e = np.broadcast_to(a, grid), np.broadcast_to(e, grid + e.shape[-1:])
        bound = _SV_CUT * np.maximum(np.abs(t1 * hessian_profile_factors(sigma)[0]), abs(t2))
    raise_first(
        len(grid),
        [
            (
                ~(np.isfinite(a) & np.all(np.isfinite(e), axis=-1)),
                InconsistentData,
                lambda i: f"first-order design leaves double range (t1={t1}, t2={t2})",
            ),
            (
                np.abs(a) <= bound,
                InconsistentData,
                lambda i: f"|t1 (3-2 sigma)(1-2 sigma)| = {abs(a[i]):.3e} at sigma = "
                f"{np.broadcast_to(sigma, grid)[i]} is at most {_SV_CUT:g} "
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
        y = _solve_triangular(a, e, t2, z)
        Q, _ = np.linalg.qr(
            np.swapaxes(_solve_triangular(a[..., None], e[..., None, :], t2, Vh[rank:]), -1, -2)
        )
        kernel = np.swapaxes(Q, -1, -2)
        x = y - np.sum(kernel * np.vecdot(kernel, y[..., None, :])[..., None], axis=-2)
        miss = b - np.vecdot(M, z[..., None, :])
        residual = np.sqrt(np.vecdot(miss.real, miss.real) + np.vecdot(miss.imag, miss.imag))
    raise_first(
        len(grid),
        [
            (
                ~(np.all(np.isfinite(x), axis=-1) & np.isfinite(residual)),
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
def timed(stage: str):
    """Log the block's wall time at debug level as one JSON line.

    The line is ``{"seconds": ..., "stage": stage}`` on the logger named
    ``STAGE_LOGGER``; a block that raises logs nothing.
    """
    start = time.perf_counter()
    yield
    seconds = time.perf_counter() - start
    logging.getLogger(STAGE_LOGGER).debug(json.dumps({"seconds": seconds, "stage": stage}))


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
class InversionConfig:
    margin: float = 1e-6
    alpha_sq_known: float | None = None


@dataclass
class RecoveryReport:
    """What the driver recovered; a field no stage reached is ``None``.

    Grid fields have shape ``grid_shape``, plus ``(n, n)`` for ``h0`` and
    ``H``; ``alpha_sq``, ``v0`` and ``h0`` are real.  :meth:`to_dict` writes
    each, and each ``kernel_basis`` ``H``, as the base64 string of
    :func:`~scatjet.dataset.pack_array`.
    """

    n: int
    grid_shape: tuple[int, ...]
    status: str
    sigma1: np.ndarray | None = None
    sigma2: np.ndarray | None = None
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
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "notes": list(self.notes),
        }
        for name in ("sigma1", "sigma2", "alpha_sq", "v0", "h0", "H", "W1"):
            val = getattr(self, name)
            out[name] = None if val is None else pack_array(val)
        out["design_rank"] = self.design_rank
        out["kernel_basis"] = [
            {"H": pack_array(h), "W": encode_complex(w)} for h, w in self.kernel_basis
        ]
        return out


def layer_strip_driver(dataset, config: InversionConfig | None = None) -> RecoveryReport:
    """Run the staged recovery over a full symbol dataset.

    Stages: root/norm recovery and metric polarization over every grid point
    and energy, two-energy (or, for one energy, known-``alpha``) zeroth-order
    algebra, the admissibility screen, then the first-order fit when
    singularity samples are present.  The screen (:func:`~scatjet.spectral_sets.is_admissible`)
    judges every energy at ``margin`` on the recovered ``alpha^2`` and ``V0``
    at every grid point and mode order; an energy that fails it gives a
    ``refused`` report with the reason, naming the energy, the grid index and
    the mode ``k`` or the branch cut, in ``notes`` and no fields.  With one
    energy and ``alpha^2`` unknown the driver stops at ``h0``, and ``notes``
    says the screen did not run.
    A known ``alpha^2`` with two or more energies raises :class:`ConfigError`.
    ``h0`` is the metric at the first energy; ``h0_cross_energy`` is its
    largest gap to the metric at any other energy.  That gap and the
    first-order fit residual are judged here, each so that NaN fails:
    a metric gap above 1e-8 times the point's largest ``|h0|`` entry raises
    :class:`InconsistentData` in the metric stage, naming the grid index and
    the energy index, and a fit residual above 1e-8 times the point's largest
    ``|F|`` raises it in the first-order stage, naming the grid index.  Jets
    of order two and higher are out of scope and flagged in ``notes``.
    """
    if not isinstance(dataset, SymbolDataset):
        raise TypeError(f"layer_strip_driver needs a SymbolDataset, got {type(dataset).__name__}")
    cfg = config or InversionConfig()
    a2 = cfg.alpha_sq_known
    if a2 is not None and not (math.isfinite(a2) and a2 > 0):
        raise ConfigError(f"alpha_sq_known={a2} must be finite and positive")
    if a2 is not None and len(dataset.energies) > 1:
        raise ConfigError(
            f"alpha_sq_known applies to one energy only; the dataset has "
            f"{len(dataset.energies)} energies, which give alpha^2"
        )
    n = dataset.n
    shape = dataset.grid_shape
    report = RecoveryReport(n=n, grid_shape=shape, status="incomplete")

    # ComplexEnergy refuses a lambda whose square overflows
    energies = tuple(ComplexEnergy(lam) for lam in dataset.energies)
    single_energy = len(energies) == 1
    log.info("sigma stage: sigma = n/2 + log(S(t xi)/S(xi)) / (2 log t), t=%g", dataset.scale_t)
    with _stage("sigma"):
        # (*grid, E, C, 2): a failure names the grid index and the sample (energy,
        # covector), or the energy alone for the spread and the pole
        symbols = np.moveaxis(dataset.symbols, 0, n)
        rec = recover_sigma_from_symbol(symbols[..., 0], symbols[..., 1], dataset.scale_t, n)
    report.residuals["sigma_consistency"] = float(rec.spread.max())
    sigma1 = report.sigma1 = rec.sigma[..., 0]
    if not single_energy:
        report.sigma2 = rec.sigma[..., 1]

    log.info("metric stage: polarization of |xi|^2_{h0} over e_i, e_i + e_j")
    with _stage("metric"):
        h0_fields = metric_boundary_recovery(rec.norm, n)
        h0_field = h0_fields[..., 0, :, :]
        if not single_energy:
            # (*grid, E): each energy's largest gap to the metric at energy 0
            with np.errstate(all="ignore"):
                gaps = np.max(np.abs(h0_fields - h0_field[..., None, :, :]), axis=(-2, -1))
                scale = np.max(np.abs(h0_field), axis=(-2, -1))
            raise_first(
                n,
                [
                    # written so that a NaN gap fails too
                    (
                        ~(gaps <= _CROSS_ENERGY_TOL * scale[..., None]),
                        InconsistentData,
                        lambda i: f"metric at energy index {i[n]} differs from energy 0's by "
                        f"{gaps[i]:.3e}, more than {_CROSS_ENERGY_TOL:g} times the largest "
                        f"|h0| entry {scale[i[:n]]:.3e}",
                    )
                ],
            )
    report.h0 = h0_field
    if not single_energy:
        report.residuals["h0_cross_energy"] = float(np.max(gaps))

    if single_energy and a2 is None:
        report.status = "partial: sigma and h0 only (one energy, alpha unknown)"
        report.notes += [
            "a second energy or a known alpha^2 is required for the zeroth-order algebra",
            "admissibility screen not run: alpha^2 is unknown",
        ]
        return report

    with _stage("zeroth-order"):
        if single_energy:
            log.info("zeroth-order stage: V0 = lambda^2 + n^2/4 + alpha^2 sigma (n - sigma)")
            alpha_field, v0_field, realness = _zeroth_order(
                np.full(shape, complex(a2)), sigma1, energies[0].lam, n
            )
            report.notes.append("alpha^2 supplied a priori; single-energy recovery of V0")
        else:
            log.info(
                "zeroth-order stage: alpha^2 = (l2^2 - l1^2)/(s1(n-s1) - s2(n-s2)), "
                "V0 = l1^2 + n^2/4 + alpha^2 s1(n-s1)"
            )
            alpha_field, v0_field, realness = two_energy_recovery(
                sigma1, report.sigma2, energies[0].lam, energies[1].lam, n
            )
    # the energies are judged on the recovered fields; a refusal keeps none of them
    es = exceptional_set(alpha_field, v0_field, n)
    for en in energies:
        adm = is_admissible(en, es, cfg.margin)
        if not adm.ok:
            return RecoveryReport(n, shape, status="refused", notes=[adm.reason])
    report.alpha_sq = alpha_field
    report.v0 = v0_field
    report.residuals["zeroth_order_realness"] = float(np.max(realness))

    if dataset.singularity is not None:
        log.info(
            "first-order stage: F(w) = t1 sum H_ij D_ij(w) + t2 (W - alpha^2 (1-n) tr(h0 H)/4)"
        )
        with _stage("first-order"):
            fo = first_order_recovery(
                dataset.singularity, dataset.probes, sigma1, *dataset.t_pair, alpha_field, h0_field
            )
            scale = np.max(np.abs(dataset.singularity), axis=-1)
            raise_first(
                n,
                [
                    # written so that a NaN residual fails and an all-zero F passes
                    (
                        ~(fo.residual <= _FIT_TOL * scale),
                        InconsistentData,
                        lambda i: f"first-order fit residual {fo.residual[i]:.3e} is more than "
                        f"{_FIT_TOL:g} times the largest |F| {scale[i]:.3e}: the samples do "
                        "not fit the first-order model",
                    )
                ],
            )
        report.H = fo.H
        report.W1 = fo.W1
        report.residuals["first_order_fit"] = float(np.max(fo.residual))
        report.design_rank = fo.design_rank
        # the kernel directions, as seen at the last grid index
        report.kernel_basis = fo.kernel_basis(tuple(m - 1 for m in shape))

    report.notes.append("jets of order k >= 2: not attempted (out of scope)")
    report.status = "ok"
    return report
