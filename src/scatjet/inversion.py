"""Recovery of boundary data from scattering samples.

Stage by stage:

1. ``recover_sigma_from_symbol`` reads the indicial root off the symbol's
   homogeneity: ``sigma = n/2 + log(S(t xi)/S(xi)) / (2 log t)``, then peels
   the Gamma prefactor to expose the covector norm ``|xi|_{h0}``, which must
   come out finite and real: a phase left on the samples is refused.
2. ``metric_boundary_recovery`` polarizes squared norms at ``{e_i}`` and
   ``{e_i + e_j}`` into the inverse metric and inverts it.
3. ``two_energy_recovery`` solves the pair of indicial identities
   ``alpha^2 sigma_i (n - sigma_i) = V0 - lambda_i^2 - n^2/4`` for
   ``alpha^2`` and ``V0``; with ``alpha^2`` known, the first identity alone
   gives ``V0``.  Both routes share one formula for ``V0`` and one check
   that ``alpha^2`` and ``V0`` come out real, ``alpha^2`` positive.
4. ``first_order_recovery`` fits the first-order angular samples
   ``F(omega)`` by minimum-norm least squares in the unknowns ``(H, W)``,
   at every grid point through one batched SVD.
   The fit has a structural one-dimensional kernel: ``omega^T H omega`` is
   constant over unit probes when ``H`` is a multiple of the identity, so
   that direction trades off against the constant ``W`` term.  The design
   rank and the kernel directions are reported, never silently resolved.

Every stage takes scalars or whole grid arrays.  ``layer_strip_driver``
chains the stages over a full symbol dataset, one call per stage: the sigma
and metric stages carry the energy axis after the grid axes.
"""
from __future__ import annotations

import contextlib
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boundary_jets import ComplexEnergy, positive_definite_inverse
from .dataset import SymbolDataset, encode_complex, pack_array, polarization_covectors
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
from .forward_scattering import hessian_profile_entries, prefactor_and_poles
from .spectral_sets import is_admissible

log = logging.getLogger(__name__)
STAGE_LOGGER = "scatjet.stages"  # the logger of the stage timings of ``timed``

_SV_CUT = 1e-10
_BRANCH_TOL = 1e-8  # how far Re sigma may sit below n/2
_SIGMA_SPREAD_TOL = 1e-6  # largest spread of sigma across one point's covectors
_REALNESS_TOL = 1e-8  # largest relative imaginary part of alpha^2 and V0
_PHASE_TOL = 1e-8  # largest imaginary part of log |xi|_{h0} from the peeled symbol


def _divide(a, b):
    """Complex ``a / b`` by Smith's method, ending in a true division.

    numpy's complex division multiplies by a rounded reciprocal instead;
    the extra rounding, amplified by the two-energy solve, moved ``V0`` by
    up to 1e-12 against the scalar division.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    real_big = np.abs(b.real) >= np.abs(b.imag)
    ratio = np.where(real_big, b.imag / b.real, b.real / b.imag)
    denom = np.where(real_big, b.real + b.imag * ratio, b.real * ratio + b.imag)
    re = np.where(real_big, a.real + a.imag * ratio, a.real * ratio + a.imag)
    im = np.where(real_big, a.imag - a.real * ratio, a.imag * ratio - a.real)
    return re / denom + 1j * (im / denom)


@dataclass(frozen=True)
class SigmaRecovery:
    sigma: complex | np.ndarray
    norm: float | np.ndarray


def recover_sigma_from_symbol(
    value_xi,
    value_txi,
    t: float,
    n: int,
) -> SigmaRecovery:
    """Indicial root and covector norm from homogeneity pairs, elementwise.

    The real part of sigma comes from moduli and is branch-free; the
    principal log fixes the imaginary part (documented ambiguity of
    ``pi / log t``).  Raises :class:`BranchAmbiguity` if the recovered root
    falls below the principal half-plane ``Re sigma >= n/2``, and
    :class:`InconsistentData` if a recovered norm is not finite or its log
    keeps an imaginary part above 1e-8 once the Gamma prefactor is peeled:
    the trace of a phase on the samples, or of a root off the principal log
    branch.  The samples may be scalars or arrays whose first ``n`` axes are
    the grid; a failure names the first failing grid index and the sample
    along the other axes.
    """
    if t <= 0 or t == 1.0:
        raise ValueError("scale factor t must be positive and != 1")
    v = np.asarray(value_xi, dtype=complex)
    vt = np.asarray(value_txi, dtype=complex)
    with np.errstate(all="ignore"):
        sigma = n / 2.0 + _divide(np.log(_divide(vt, v)), 2.0 * math.log(t))
        pref, pole_check = prefactor_and_poles(sigma, n)
        power = _divide(v, pref)
        w = _divide(np.log(power), 2.0 * sigma - n)
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
                sigma.real < n / 2.0 - _BRANCH_TOL,
                BranchAmbiguity,
                lambda i: f"recovered Re sigma = {sigma.real[i]:.6g} below n/2 = {n / 2}; "
                "no log branch restores the principal half-plane",
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
    return SigmaRecovery(sigma=sigma[()], norm=norm[()])


def metric_boundary_recovery(norms, n: int) -> np.ndarray:
    """Boundary metric from covector norms at ``{e_i}`` and ``{e_i + e_j}``.

    ``norms`` has shape ``(..., C)``: the norms ``|xi|_{h0}`` at the ``C``
    covectors of :func:`~scatjet.dataset.polarization_covectors`, in that
    order.  Polarization fills the inverse metric, which must come out
    positive definite.  The result has shape ``(..., n, n)``.

    Each point is judged alone by
    :func:`~scatjet.boundary_jets.positive_definite_inverse` (Cholesky, then
    the inverse), so a point passes or fails in any batch as it does alone.
    Only when the batch is refused are its points judged one by one, and the
    first refused grid index (the first ``n`` axes) and sample (the axes
    between the grid and ``C``) are named with the eigenvalues of its matrix.
    Before that, a squared norm or a polarized entry past double range
    raises :class:`InconsistentData`, naming the point the same way.
    """
    norm = np.asarray(norms, dtype=float)
    count = len(polarization_covectors(n))
    if norm.shape[-1:] != (count,):
        raise ValueError(
            f"norms need a last axis of length {count} for n={n}, got shape {norm.shape}"
        )
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
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
    M[..., d, d] = sq[..., :n]
    M[..., i, j] = M[..., j, i] = off
    inverse = positive_definite_inverse(M)
    if inverse is None:
        refused = np.reshape(
            [positive_definite_inverse(m) is None for m in M.reshape(-1, n, n)], M.shape[:-2]
        )
        raise_first(
            n,
            [
                (
                    refused,
                    NotPositiveDefinite,
                    lambda i: "recovered inverse metric has eigenvalues "
                    f"{np.linalg.eigvalsh(M[i])}; not positive definite",
                )
            ],
        )
    return inverse


def _zeroth_order(alpha_sq, sigma1, lam1: complex, n: int, checks=()):
    """``(alpha_sq, v0, realness_residual)`` from ``alpha^2`` and the first root.

    ``V0 = lambda_1^2 + n^2/4 + alpha^2 sigma_1 (n - sigma_1)``, with the
    complex ``alpha_sq`` and the roots as scalars or grid arrays.  Both
    outputs must be real to ``_REALNESS_TOL`` (relative) and ``alpha_sq``
    positive; ``checks`` come before these at each point.
    """
    with np.errstate(all="ignore"):
        v0 = complex(lam1) ** 2 + n * n / 4.0 + alpha_sq * sigma1 * (n - sigma1)
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

    Solves ``alpha^2 sigma_i (n - sigma_i) = V0 - lambda_i^2 - n^2/4``:

        alpha^2 = (lambda_2^2 - lambda_1^2) / (sigma_1(n-sigma_1) - sigma_2(n-sigma_2))
        V0      = lambda_1^2 + n^2/4 + alpha^2 sigma_1 (n - sigma_1)

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
    with np.errstate(all="ignore"):
        alpha_sq = _divide(l2sq - l1sq, denom)
    singular = (
        np.abs(denom) <= 1e-12 * np.maximum(1.0, np.abs(p1)),
        InconsistentData,
        lambda i: "indicial products coincide; system is singular",
    )
    return _zeroth_order(alpha_sq, s1, lam1, n, [singular])


# -- first-order stage ------------------------------------------------------


def _unpack(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(H, W)`` from unknowns ``(H_ii..., H_ij (i<j)..., W)`` along the last axis."""
    H = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    H[..., d, d] = x[..., :n]
    H[..., i, j] = H[..., j, i] = x[..., n:-1]
    return H, x[..., -1]


@dataclass(frozen=True)
class FirstOrderResult:
    """The first-order fit: every field's leading axes are the grid.

    ``right_vectors`` holds each point's ``Vh`` from the SVD of its design.
    """

    H: np.ndarray
    W1: np.ndarray
    residual: np.ndarray
    design_rank: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    def kernel_basis(self, idx: tuple[int, ...] = ()) -> tuple[tuple[np.ndarray, complex], ...]:
        """The ``(H, W)`` kernel directions of the fit at grid index ``idx``."""
        n = self.H.shape[-1]
        rank = int(self.design_rank[idx])
        Hs, Ws = _unpack(self.right_vectors[idx][rank:].conj(), n)
        return tuple((H, complex(W)) for H, W in zip(Hs, Ws))


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

    ``values`` has shape ``(..., P)`` and ``probes`` ``(..., P, n)``: ``P``
    samples ``F(omega)`` per point, at probes that broadcast against the
    grid (a dataset's one ``(P, n)`` set); ``sigma`` and ``alpha_sq`` are
    scalars or arrays over ``...`` and ``h0`` has shape ``(..., n, n)``.
    Design rows follow the forward model
    ``F(omega) = t1 sum_ij H_ij D_ij(omega) + t2 (W - alpha^2 (1-n) tr(h0 H)/4)``
    in the unknowns ``(H_11, ..., H_nn, H_ij (i<j) ..., W)``, in that order.
    Every point's design gets one SVD; rank deficiency is reported, not raised.
    """
    if abs(t1) < 1e-12 or abs(t2) < 1e-12:
        raise ZeroIntegralFactor(f"model-integral factors t1={t1}, t2={t2} too small")
    b = np.asarray(values, dtype=complex)
    if b.shape[-1:] in ((), (0,)):
        raise ValueError("no singularity samples given")
    h0 = np.asarray(h0, dtype=float)
    n = h0.shape[-1]
    if np.shape(probes)[-1:] != (n,):
        raise ValueError(f"probes need a last axis of length n={n}, got shape {np.shape(probes)}")
    c_trace = t2 * np.asarray(alpha_sq, dtype=float) * (1.0 - n) / 4.0
    # design columns: the H_ii, then the H_ij (i < j) with a factor 2, then W
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    rows, cols = np.concatenate([d, i]), np.concatenate([d, j])
    G = t1 * hessian_profile_entries(probes, np.asarray(sigma)[..., None], rows, cols) - (
        c_trace[..., None, None] * h0[..., None, rows, cols]
    )
    A = np.empty(G.shape[:-1] + (G.shape[-1] + 1,), dtype=complex)
    A[..., :n] = G[..., :n]
    A[..., n:-1] = 2.0 * G[..., n:]
    A[..., -1] = t2

    U, svals, Vh = np.linalg.svd(A, full_matrices=True)
    keep = svals > _SV_CUT * svals[..., :1]
    # minimum-norm least-squares solution through the truncated SVD; the
    # C-order design, the contiguous rows of U^T, the direction-by-direction
    # sum and norm's one-vector formula make the BLAS calls of a one-point fit,
    # so every point gets the same bits in any grid (np.vecdot: numpy >= 2)
    k = svals.shape[-1]
    proj = np.vecdot(np.ascontiguousarray(np.swapaxes(U, -1, -2)[..., :k, :]), b[..., None, :])
    coef = np.divide(proj, svals, out=np.zeros_like(proj), where=keep)
    x = np.zeros(A.shape[:-2] + A.shape[-1:], dtype=complex)
    for r in range(k):
        x = np.where(keep[..., r, None], x + coef[..., r, None] * Vh[..., r, :].conj(), x)
    miss = (A @ x[..., None])[..., 0] - b
    residual = np.sqrt(np.vecdot(miss.real, miss.real) + np.vecdot(miss.imag, miss.imag))

    H, W = _unpack(x, n)
    return FirstOrderResult(
        H=H,
        W1=W,
        residual=residual,
        design_rank=keep.sum(axis=-1),
        singular_values=svals,
        right_vectors=Vh,
    )


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

    Stages: admissibility screen (when the dataset carries exceptional-set
    data), root/norm recovery and metric polarization over every grid point
    and energy, two-energy (or, for one energy, known-``alpha``) zeroth-order
    algebra, then the first-order fit when singularity samples are present.
    A known ``alpha^2`` with two or more energies raises :class:`ConfigError`.
    ``h0`` is the metric at the first energy; ``h0_cross_energy`` is its
    largest gap to the metric at any other energy.  Jets of order two and
    higher are out of scope and flagged in ``notes``.
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

    # ComplexEnergy refuses a lambda whose square overflows, screened or not
    energies = tuple(ComplexEnergy(lam) for lam in dataset.energies)
    if dataset.exceptional is not None:
        for en in energies:
            adm = is_admissible(en, dataset.exceptional, cfg.margin)
            if not adm.ok:
                report.status = "refused"
                report.notes.append(f"energy {en.lam}: {adm.reason}")
                return report

    single_energy = len(energies) == 1
    log.info("sigma stage: sigma = n/2 + log(S(t xi)/S(xi)) / (2 log t), t=%g", dataset.scale_t)
    with _stage("sigma"):
        # (*grid, E, C, 2): a failure names the grid index and the sample (energy, covector)
        symbols = np.moveaxis(dataset.symbols, 0, n)
        rec = recover_sigma_from_symbol(symbols[..., 0], symbols[..., 1], dataset.scale_t, n)
        sigmas = rec.sigma.mean(axis=-1)
        spread = np.max(np.abs(rec.sigma - sigmas[..., None]), axis=-1)
        # written so that a NaN spread fails too
        raise_first(
            n,
            [
                (
                    ~(spread <= _SIGMA_SPREAD_TOL),
                    InconsistentData,
                    lambda i: f"sigma estimates disagree across covectors (spread {spread[i]:.3e})",
                )
            ],
        )
    report.residuals["sigma_consistency"] = float(spread.max())
    sigma1 = report.sigma1 = sigmas[..., 0]
    if not single_energy:
        report.sigma2 = sigmas[..., 1]

    log.info("metric stage: polarization of |xi|^2_{h0} over e_i, e_i + e_j")
    with _stage("metric"):
        h0_fields = metric_boundary_recovery(rec.norm, n)
    h0_field = report.h0 = h0_fields[..., 0, :, :]
    if not single_energy:
        gaps = np.abs(h0_fields[..., 1:, :, :] - h0_field[..., None, :, :])
        report.residuals["h0_cross_energy"] = float(np.max(gaps))

    if single_energy and a2 is None:
        report.status = "partial: sigma and h0 only (one energy, alpha unknown)"
        report.notes.append(
            "a second energy or a known alpha^2 is required for the zeroth-order algebra"
        )
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
        report.H = fo.H
        report.W1 = fo.W1
        report.residuals["first_order_fit"] = float(np.max(fo.residual))
        # the fit's structure, as seen at the last grid index
        last = tuple(m - 1 for m in shape)
        report.design_rank = int(fo.design_rank[last])
        report.kernel_basis = fo.kernel_basis(last)

    report.notes.append("jets of order k >= 2: not attempted (out of scope)")
    report.status = "ok"
    return report
