"""Synthetic boundary pairs and their forward scattering datasets.

Everything here is driven by a seeded :class:`numpy.random.Generator`; the
same seed always produces the same truth, the same admissible energies and
the same serialized dataset.  Energies are drawn real in ``[3, 6]`` so that
``lambda^2`` sits far above the exceptional interval and every mode value,
giving real indicial roots and well-conditioned recovery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary_jets import (
    BoundaryPatch,
    ComplexEnergy,
    indicial_root_at,
    perturbation_coefficients,
)
from .dataset import SymbolDataset, exceptional_to_dict, polarization_covectors
from .errors import ScatjetError
from .forward_scattering import (
    ProbeSet,
    default_probe_set,
    principal_symbol,
    singularity_coefficient,
)
from .spectral_sets import exceptional_set, is_admissible

_ENERGY_DRAWS = 100


def random_spd(rng: np.random.Generator, n: int, eig_range=(0.5, 2.0)) -> np.ndarray:
    """Random symmetric positive definite matrix with bounded spectrum."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(*eig_range, size=n)
    return q @ np.diag(eigs) @ q.T


def traceless_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symmetric matrix with zero trace (identically 0 for n = 1)."""
    s = rng.normal(size=(n, n))
    s = (s + s.T) / 2.0
    return s - np.trace(s) / n * np.eye(n)


def constant_patch(
    n: int,
    alpha: float,
    v0: float,
    h0: np.ndarray,
    v1: float | None = None,
    h1: np.ndarray | None = None,
    axes: tuple[int, ...] | None = None,
) -> BoundaryPatch:
    """Patch with constant fields; pass ``v1``/``h1`` to attach first-order jets."""
    axes = tuple(axes) if axes is not None else (4,) * n
    shape = axes
    v_jet = [np.full(shape, float(v0))]
    h_jet = [np.tile(np.asarray(h0, dtype=float), shape + (1, 1))]
    if v1 is not None or h1 is not None:
        v_jet.append(np.full(shape, 0.0 if v1 is None else float(v1)))
        m1 = np.zeros((n, n)) if h1 is None else np.asarray(h1, dtype=float)
        h_jet.append(np.tile(m1, shape + (1, 1)))
    return BoundaryPatch(
        n=n,
        axes=axes,
        alpha=np.full(shape, float(alpha)),
        v_jet=tuple(v_jet),
        h_jet=tuple(h_jet),
    )


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth behind a generated dataset, for round-trip comparison."""

    n: int
    alpha: float
    v0: float
    h0: np.ndarray
    H: np.ndarray
    L: np.ndarray
    W1: float
    energies: tuple[complex, complex]
    scale_t: float
    t_pair: tuple[complex, complex]

    @property
    def alpha_sq(self) -> float:
        return self.alpha * self.alpha


def draw_admissible_energies(
    rng: np.random.Generator,
    patch: BoundaryPatch,
    margin: float = 1e-3,
    min_gap: float = 0.5,
    k_max: int = 2,
) -> tuple[ComplexEnergy, ComplexEnergy]:
    """Two real energies in [3, 6], admissible and with separated squares."""
    es = exceptional_set(patch, k_max=k_max)
    picked: list[ComplexEnergy] = []
    for _ in range(_ENERGY_DRAWS):
        lam = ComplexEnergy(complex(rng.uniform(3.0, 6.0)))
        if not is_admissible(lam, es, margin):
            continue
        if picked and abs(picked[0].lam_sq - lam.lam_sq) < min_gap:
            continue
        picked.append(lam)
        if len(picked) == 2:
            return picked[0], picked[1]
    raise ScatjetError("could not draw admissible energies (exhausted attempts)")


def forward_dataset(
    patch1: BoundaryPatch,
    energies: tuple[ComplexEnergy, ...],
    patch2: BoundaryPatch | None = None,
    scale_t: float = 2.0,
    probes: ProbeSet | None = None,
    t_pair: tuple[complex, complex] | None = None,
    k_max: int = 2,
) -> SymbolDataset:
    """Forward map: symbol pairs (and first-order singularity samples) on disk form.

    Symbols are sampled at ``xi in {e_i} u {e_i + e_j}`` and at ``scale_t``
    times each, per grid point and energy.  When a second patch is supplied,
    the first-order angular samples ``F(omega)`` over the probe set are
    attached together with the model-integral factor pair used to build them.
    """
    n = patch1.n
    shape = patch1.alpha.shape
    eye = np.eye(n)
    covectors = {key: eye[list(key)].sum(axis=0) for key in polarization_covectors(n)}

    symbols = []
    for en in energies:
        per_idx = {}
        for idx in np.ndindex(*shape):
            pairs = {}
            for key, xi in covectors.items():
                v = principal_symbol(patch1, idx, xi, en).value
                vt = principal_symbol(patch1, idx, scale_t * xi, en).value
                pairs[key] = (complex(v), complex(vt))
            per_idx[idx] = pairs
        symbols.append(per_idx)

    singularity = None
    if patch2 is not None:
        if t_pair is None:
            t_pair = (1.0 + 0.0j, 1.0 + 0.0j)
        probes = probes if probes is not None else default_probe_set(n)
        singularity = {}
        for idx in np.ndindex(*shape):
            pd = perturbation_coefficients(patch1, patch2, idx)
            sig = indicial_root_at(patch1, idx, energies[0])
            singularity[idx] = tuple(
                singularity_coefficient(
                    pd,
                    np.asarray(patch1.h_jet[0][idx]),
                    float(patch1.alpha[idx]),
                    sig,
                    t_pair[0],
                    t_pair[1],
                    w,
                )
                for w in probes
            )

    return SymbolDataset(
        n=n,
        grid_shape=shape,
        scale_t=float(scale_t),
        energies=tuple(en.lam for en in energies),
        symbols=tuple(symbols),
        singularity=singularity,
        t_pair=t_pair,
        exceptional=exceptional_to_dict(exceptional_set(patch1, k_max=k_max)),
    )


def make_synthetic_pair(
    seed: int,
    n: int,
    axes: tuple[int, ...] | None = None,
    scale_t: float = 2.0,
    t_pair: tuple[complex, complex] = (1.0 + 0.0j, 1.0 + 0.0j),
    with_first_order: bool = True,
) -> tuple[SyntheticTruth, SymbolDataset]:
    """Random constant-coefficient truth plus its forward dataset.

    The first-order perturbation uses a traceless ``H`` (so the fitted
    system's structural kernel direction is orthogonal to the truth) and
    ``W1 = 0``, matching the regime in which minimum-norm recovery is exact.
    """
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.5, 2.0))
    v0 = float(rng.uniform(-1.0, 1.0))
    h0 = random_spd(rng, n)
    H = traceless_symmetric(rng, n)
    L = h0 @ H @ h0
    W1 = 0.0
    v1_base = float(rng.uniform(-0.5, 0.5))
    h1_base = rng.normal(size=(n, n))
    h1_base = (h1_base + h1_base.T) / 2.0

    patch1 = constant_patch(n, alpha, v0, h0, v1=v1_base, h1=h1_base, axes=axes)
    patch2 = constant_patch(n, alpha, v0, h0, v1=v1_base + W1, h1=h1_base + L, axes=axes)
    lam1, lam2 = draw_admissible_energies(rng, patch1)

    ds = forward_dataset(
        patch1,
        (lam1, lam2),
        patch2=patch2 if with_first_order else None,
        scale_t=scale_t,
        t_pair=t_pair if with_first_order else None,
    )
    truth = SyntheticTruth(
        n=n,
        alpha=alpha,
        v0=v0,
        h0=h0,
        H=H,
        L=L,
        W1=W1,
        energies=(lam1.lam, lam2.lam),
        scale_t=scale_t,
        t_pair=t_pair,
    )
    return truth, ds
