"""Recovery of boundary data from scattering samples.

Stage by stage:

1. ``recover_sigma_from_symbol`` reads the indicial root off the symbol's
   homogeneity: ``sigma = n/2 + log(S(t xi)/S(xi)) / (2 log t)``, then peels
   the Gamma prefactor to expose the covector norm ``|xi|_{h0}``.
2. ``metric_boundary_recovery`` polarizes squared norms at ``{e_i}`` and
   ``{e_i + e_j}`` into the inverse metric and inverts it.
3. ``two_energy_recovery`` solves the pair of indicial identities
   ``alpha^2 sigma_i (n - sigma_i) = V0 - lambda_i^2 - n^2/4`` for
   ``alpha^2`` and ``V0``.
4. ``first_order_recovery`` fits the first-order angular samples
   ``F(omega)`` by minimum-norm least squares in the unknowns ``(H, W)``.
   The fit has a structural one-dimensional kernel: ``omega^T H omega`` is
   constant over unit probes when ``H`` is a multiple of the identity, so
   that direction trades off against the constant ``W`` term.  The kernel
   and the smallest singular value over the identity-trade-off plane are
   reported, never silently resolved.

``layer_strip_driver`` chains the stages over a full symbol dataset.
"""
from __future__ import annotations

import cmath
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BranchAmbiguity,
    DegenerateEnergies,
    InconsistentData,
    NotPositiveDefinite,
    ZeroIntegralFactor,
    ZeroSymbol,
)
from .forward_scattering import (
    ProbeSet,
    SingularitySample,
    default_probe_set,
    gamma_prefactor,
    radial_derivative_kernel,
)

log = logging.getLogger(__name__)

_SV_CUT = 1e-10


@dataclass(frozen=True)
class SigmaRecovery:
    sigma: complex
    norm: float
    prefactor_imag_residual: float


def recover_sigma_from_symbol(
    value_xi: complex,
    value_txi: complex,
    t: float,
    n: int,
    tol: float = 1e-8,
) -> SigmaRecovery:
    """Indicial root and covector norm from one homogeneity pair.

    The real part of sigma comes from moduli and is branch-free; the
    principal log fixes the imaginary part (documented ambiguity of
    ``pi / log t``).  Raises :class:`BranchAmbiguity` if the recovered root
    falls below the principal half-plane ``Re sigma >= n/2``.
    """
    if t <= 0 or t == 1.0:
        raise ValueError("scale factor t must be positive and != 1")
    if value_xi == 0 or value_txi == 0:
        raise ZeroSymbol("symbol sample is zero; cannot take ratios")
    ratio = value_txi / value_xi
    sigma = n / 2.0 + cmath.log(ratio) / (2.0 * cmath.log(t))
    if sigma.real < n / 2.0 - tol:
        raise BranchAmbiguity(
            f"recovered Re sigma = {sigma.real:.6g} below n/2 = {n / 2}; "
            "no log branch restores the principal half-plane"
        )
    pref = gamma_prefactor(sigma, n)
    power = value_xi / pref
    if power == 0:
        raise ZeroSymbol("prefactor-normalized sample is zero")
    w = cmath.log(power) / (2.0 * sigma - n)
    # consistent data gives a positive real norm; imaginary leakage is reported
    return SigmaRecovery(
        sigma=sigma, norm=float(np.exp(w.real)), prefactor_imag_residual=abs(w.imag)
    )


def metric_boundary_recovery(
    norms: Mapping[tuple[int, ...], float], n: int
) -> np.ndarray:
    """Boundary metric from covector norms at ``{e_i}`` and ``{e_i + e_j}``.

    ``norms`` maps ``(i,)`` to ``|e_i|_{h0}`` and ``(i, j)`` (``i < j``) to
    ``|e_i + e_j|_{h0}``; polarization fills the inverse metric, which must
    come out positive definite.
    """
    M = np.empty((n, n))
    try:
        for i in range(n):
            M[i, i] = norms[(i,)] ** 2
        for i in range(n):
            for j in range(i + 1, n):
                M[i, j] = M[j, i] = (norms[(i, j)] ** 2 - M[i, i] - M[j, j]) / 2.0
    except KeyError as exc:
        raise InconsistentData(f"missing covector norm sample {exc}") from None
    eigs = np.linalg.eigvalsh(M)
    if eigs.min() <= 0:
        raise NotPositiveDefinite(
            f"recovered inverse metric has eigenvalues {eigs}; not positive definite"
        )
    return np.linalg.inv(M)


def two_energy_recovery(
    sigma1: complex,
    sigma2: complex,
    lam1: complex,
    lam2: complex,
    n: int,
    realness_tol: float = 1e-8,
) -> tuple[float, float, float]:
    """Curvature scale and boundary potential from roots at two energies.

    Solves ``alpha^2 sigma_i (n - sigma_i) = V0 - lambda_i^2 - n^2/4``:

        alpha^2 = (lambda_2^2 - lambda_1^2) / (sigma_1(n-sigma_1) - sigma_2(n-sigma_2))
        V0      = lambda_1^2 + n^2/4 + alpha^2 sigma_1 (n - sigma_1)

    Returns ``(alpha_sq, v0, realness_residual)``; both outputs must be real
    to ``realness_tol`` (relative) and ``alpha_sq`` positive.
    """
    l1sq, l2sq = complex(lam1) ** 2, complex(lam2) ** 2
    if abs(l1sq - l2sq) <= 1e-12 * max(1.0, abs(l1sq)):
        raise DegenerateEnergies(f"lambda^2 values coincide: {l1sq} vs {l2sq}")
    s1, s2 = complex(sigma1), complex(sigma2)
    denom = s1 * (n - s1) - s2 * (n - s2)
    if abs(denom) <= 1e-12 * max(1.0, abs(s1 * (n - s1))):
        raise InconsistentData("indicial products coincide; system is singular")
    alpha_sq = (l2sq - l1sq) / denom
    v0 = l1sq + n * n / 4.0 + alpha_sq * s1 * (n - s1)
    resid = max(
        abs(alpha_sq.imag) / (1.0 + abs(alpha_sq.real)),
        abs(v0.imag) / (1.0 + abs(v0.real)),
    )
    if resid > realness_tol:
        raise InconsistentData(
            f"recovered alpha^2/V0 not real to tolerance (residual {resid:.3e})"
        )
    if alpha_sq.real <= 0:
        raise InconsistentData(f"recovered alpha^2 = {alpha_sq.real:.6g} is not positive")
    return float(alpha_sq.real), float(v0.real), float(resid)


# -- first-order stage ------------------------------------------------------


def _unknown_labels(n: int) -> list[str]:
    labels = [f"H{i + 1}{i + 1}" for i in range(n)]
    labels += [f"H{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
    labels.append("W")
    return labels


def _unpack(x: np.ndarray, n: int) -> tuple[np.ndarray, complex]:
    H = np.zeros((n, n), dtype=complex)
    pos = 0
    for i in range(n):
        H[i, i] = x[pos]
        pos += 1
    for i in range(n):
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = x[pos]
            pos += 1
    return H, complex(x[pos])


@dataclass(frozen=True)
class FirstOrderResult:
    H: np.ndarray
    W1: complex
    residual: float
    design_rank: int
    singular_values: np.ndarray
    kernel_basis: tuple[tuple[np.ndarray, complex], ...]
    identity_direction_sv: float
    labels: tuple[str, ...] = field(repr=False, default=())


def first_order_recovery(
    samples: Sequence[SingularitySample],
    sigma: complex,
    t1: complex,
    t2: complex,
    alpha_sq: float,
    h0: np.ndarray,
) -> FirstOrderResult:
    """Minimum-norm fit of ``(H, W)`` to angular singularity samples.

    Design rows follow the forward model
    ``F(omega) = t1 sum_ij H_ij D_ij(omega) + t2 (W - alpha^2 (1-n) tr(h0 H)/4)``;
    rank deficiency is reported, not raised.
    """
    if abs(t1) < 1e-12 or abs(t2) < 1e-12:
        raise ZeroIntegralFactor(f"model-integral factors t1={t1}, t2={t2} too small")
    if not samples:
        raise ValueError("no singularity samples given")
    n = len(samples[0].omega)
    h0 = np.asarray(h0, dtype=float)
    c_trace = t2 * alpha_sq * (1.0 - n) / 4.0
    rows, rhs = [], []
    for sample in samples:
        D = radial_derivative_kernel(sample.omega, sigma)
        row = [t1 * D[i, i] - c_trace * h0[i, i] for i in range(n)]
        row += [
            2.0 * (t1 * D[i, j] - c_trace * h0[i, j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        row.append(t2)
        rows.append(row)
        rhs.append(sample.value)
    A = np.asarray(rows, dtype=complex)
    b = np.asarray(rhs, dtype=complex)

    U, svals, Vh = np.linalg.svd(A, full_matrices=True)
    cut = _SV_CUT * (svals[0] if svals.size else 1.0)
    rank = int(np.sum(svals > cut))
    # minimum-norm least-squares solution through the truncated SVD
    x = np.zeros(A.shape[1], dtype=complex)
    for r in range(rank):
        x += (U[:, r].conj() @ b) / svals[r] * Vh[r].conj()
    residual = float(np.linalg.norm(A @ x - b))
    kernel = tuple(_unpack(Vh[r].conj(), n) for r in range(rank, A.shape[1]))

    # smallest singular value of the design restricted to the plane spanned by
    # (H = identity, W = 0) and (H = 0, W = 1): the identity/constant trade-off.
    # Gram-matrix route so both plane directions count even with one probe row.
    basis = np.zeros((A.shape[1], 2), dtype=complex)
    basis[:n, 0] = 1.0 / np.sqrt(n)
    basis[-1, 1] = 1.0
    M = A @ basis
    gram_eigs = np.linalg.eigvalsh(M.conj().T @ M)
    id_sv = float(np.sqrt(max(gram_eigs[0].real, 0.0)))

    H, W = _unpack(x, n)
    return FirstOrderResult(
        H=H,
        W1=W,
        residual=residual,
        design_rank=rank,
        singular_values=svals,
        kernel_basis=kernel,
        identity_direction_sv=id_sv,
        labels=tuple(_unknown_labels(n)),
    )


# -- full driver ------------------------------------------------------------


class _stage:
    """Re-raise any package error with the failing stage's name prefixed."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        from .errors import ScatjetError

        if exc is not None and isinstance(exc, ScatjetError):
            raise type(exc)(f"[stage {self.name}] {exc}") from exc
        return False


@dataclass
class InversionConfig:
    margin: float = 1e-6
    alpha_sq_known: float | None = None
    t_pair: tuple[complex, complex] | None = None
    realness_tol: float = 1e-8
    sigma_consistency_tol: float = 1e-6


@dataclass
class RecoveryReport:
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
    identity_direction_sv: float | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        from .dataset import encode_complex_array  # local import to avoid a cycle

        out = {
            "n": self.n,
            "grid_shape": list(self.grid_shape),
            "status": self.status,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "notes": list(self.notes),
        }
        for name in ("sigma1", "sigma2", "alpha_sq", "v0", "h0", "H", "W1"):
            val = getattr(self, name)
            out[name] = None if val is None else encode_complex_array(np.asarray(val))
        out["design_rank"] = self.design_rank
        out["identity_direction_sv"] = self.identity_direction_sv
        out["kernel_basis"] = [
            {"H": encode_complex_array(h), "W": [w.real, w.imag]}
            for h, w in self.kernel_basis
        ]
        return out


def layer_strip_driver(dataset, config: InversionConfig | None = None) -> RecoveryReport:
    """Run the staged recovery over a full symbol dataset.

    Stages: admissibility screen (when the dataset carries exceptional-set
    data), per-point root/norm recovery at each energy, metric polarization,
    two-energy (or known-``alpha``) zeroth-order algebra, then the
    first-order fit when singularity samples are present.  Jets of order
    two and higher are out of scope and flagged in ``notes``.
    """
    from .dataset import SymbolDataset  # local import to avoid a cycle
    from .spectral_sets import Admissibility, ExceptionalSet, is_admissible
    from .boundary_jets import ComplexEnergy

    if not isinstance(dataset, SymbolDataset):
        raise TypeError(f"layer_strip_driver needs a SymbolDataset, got {type(dataset).__name__}")
    cfg = config or InversionConfig()
    n = dataset.n
    shape = dataset.grid_shape
    report = RecoveryReport(n=n, grid_shape=shape, status="incomplete")

    es = dataset.exceptional_set()
    if es is not None:
        for lam in dataset.energies:
            adm = is_admissible(ComplexEnergy(lam), es, cfg.margin)
            if not adm.ok:
                report.status = "refused"
                report.notes.append(f"energy {lam}: {adm.reason}")
                return report

    energies = dataset.energies
    single_energy = len(energies) == 1
    log.info("sigma stage: sigma = n/2 + log(S(t xi)/S(xi)) / (2 log t), t=%g", dataset.scale_t)

    sigma_fields = []
    norm_maps = []  # per energy: dict grid-index -> {xi-key: norm}
    spread_max = 0.0
    with _stage("sigma"):
        for lam in energies:
            sig = np.empty(shape, dtype=complex)
            norms: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
            for idx in np.ndindex(*shape):
                pairs = dataset.symbol_pairs(idx, lam)
                ests = []
                norms[idx] = {}
                for key, (v, vt) in pairs.items():
                    rec = recover_sigma_from_symbol(v, vt, dataset.scale_t, n)
                    ests.append(rec.sigma)
                    norms[idx][key] = rec.norm
                if not ests:
                    raise InconsistentData(f"no symbol pairs at grid index {idx}")
                mean = sum(ests) / len(ests)
                spread = max(abs(e - mean) for e in ests)
                # written so that a NaN spread fails too
                if not spread <= cfg.sigma_consistency_tol:
                    raise InconsistentData(
                        f"sigma estimates disagree across covectors at grid index {idx} "
                        f"(spread {spread:.3e})"
                    )
                spread_max = max(spread_max, spread)
                sig[idx] = mean
            sigma_fields.append(sig)
            norm_maps.append(norms)
        report.residuals["sigma_consistency"] = spread_max
    report.sigma1 = sigma_fields[0]
    if not single_energy:
        report.sigma2 = sigma_fields[1]

    log.info("metric stage: polarization of |xi|^2_{h0} over e_i, e_i + e_j")
    h0_field = np.empty(shape + (n, n))
    h0_cross = 0.0
    with _stage("metric"):
        for idx in np.ndindex(*shape):
            h0_first = metric_boundary_recovery(norm_maps[0][idx], n)
            h0_field[idx] = h0_first
            if not single_energy:
                h0_second = metric_boundary_recovery(norm_maps[1][idx], n)
                h0_cross = max(h0_cross, float(np.max(np.abs(h0_second - h0_first))))
    report.h0 = h0_field
    if not single_energy:
        report.residuals["h0_cross_energy"] = h0_cross

    if single_energy and cfg.alpha_sq_known is None:
        report.status = "partial: sigma and h0 only (one energy, alpha unknown)"
        report.notes.append(
            "a second energy or a known alpha^2 is required for the zeroth-order algebra"
        )
        return report

    alpha_field = np.empty(shape)
    v0_field = np.empty(shape)
    realness = 0.0
    if single_energy:
        log.info("zeroth-order stage: V0 = lambda^2 + n^2/4 + alpha^2 sigma (n - sigma)")
        a2 = float(cfg.alpha_sq_known)
        lam = energies[0]
        with _stage("zeroth-order"):
            for idx in np.ndindex(*shape):
                s1 = complex(sigma_fields[0][idx])
                v0 = complex(lam) ** 2 + n * n / 4.0 + a2 * s1 * (n - s1)
                realness = max(realness, abs(v0.imag) / (1.0 + abs(v0.real)))
                alpha_field[idx] = a2
                v0_field[idx] = v0.real
        report.notes.append("alpha^2 supplied a priori; single-energy recovery of V0")
    else:
        log.info(
            "zeroth-order stage: alpha^2 = (l2^2 - l1^2)/(s1(n-s1) - s2(n-s2)), "
            "V0 = l1^2 + n^2/4 + alpha^2 s1(n-s1)"
        )
        with _stage("zeroth-order"):
            for idx in np.ndindex(*shape):
                a2, v0, resid = two_energy_recovery(
                    sigma_fields[0][idx],
                    sigma_fields[1][idx],
                    energies[0],
                    energies[1],
                    n,
                    cfg.realness_tol,
                )
                alpha_field[idx] = a2
                v0_field[idx] = v0
                realness = max(realness, resid)
    report.alpha_sq = alpha_field
    report.v0 = v0_field
    report.residuals["zeroth_order_realness"] = realness

    if dataset.singularity:
        log.info(
            "first-order stage: F(w) = t1 sum H_ij D_ij(w) + t2 (W - alpha^2 (1-n) tr(h0 H)/4)"
        )
        t_pair = cfg.t_pair if cfg.t_pair is not None else dataset.t_pair
        if t_pair is None:
            report.notes.append("no t1/t2 factors available; first-order stage skipped")
        else:
            H_field = np.empty(shape + (n, n), dtype=complex)
            W_field = np.empty(shape, dtype=complex)
            fit_resid = 0.0
            fo = None
            with _stage("first-order"):
                for idx in np.ndindex(*shape):
                    samples = dataset.singularity_samples(idx)
                    fo = first_order_recovery(
                        samples,
                        complex(sigma_fields[0][idx]),
                        t_pair[0],
                        t_pair[1],
                        float(alpha_field[idx]),
                        h0_field[idx],
                    )
                    H_field[idx] = fo.H
                    W_field[idx] = fo.W1
                    fit_resid = max(fit_resid, fo.residual)
            report.H = H_field
            report.W1 = W_field
            report.residuals["first_order_fit"] = fit_resid
            report.design_rank = fo.design_rank
            report.kernel_basis = fo.kernel_basis
            report.identity_direction_sv = fo.identity_direction_sv

    report.notes.append("jets of order k >= 2: not attempted (out of scope)")
    report.status = "ok"
    return report
