"""Synthetic boundary patches and their forward scattering datasets.

Everything here is driven by a seeded :class:`numpy.random.Generator`; the
same seed always produces the same truth, the same admissible energies and
the same serialized dataset.  Energies are drawn real in ``[3, 6]``, so that
``lambda^2`` sits far above mode 0 and the branch cut, giving real indicial
roots, and are kept when :func:`~scatjet.spectral_sets.is_admissible` finds
them more than 1e-3 from the mode of every order at every point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary_jets import BoundaryPatch, ComplexEnergy, polarization_covectors
from .dataset import SymbolDataset, check_header
from .errors import ConfigError, ScatjetError
from .forward_scattering import default_probe_set, principal_symbol, singularity_coefficient
from .spectral_sets import exceptional_set, is_admissible

_ENERGY_DRAWS = 100


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symmetric positive definite matrix with spectrum in ``[0.5, 2]``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(0.5, 2.0, size=n)
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
    W1: float

    @property
    def alpha_sq(self) -> float:
        return self.alpha * self.alpha


def draw_admissible_energies(
    rng: np.random.Generator, patch: BoundaryPatch
) -> tuple[ComplexEnergy, ComplexEnergy]:
    """Two real energies in [3, 6], admissible to 1e-3 and with squares 0.5 apart."""
    es = exceptional_set(patch.alpha**2, patch.v_jet[0], patch.n)
    picked: list[ComplexEnergy] = []
    for _ in range(_ENERGY_DRAWS):
        lam = ComplexEnergy(complex(rng.uniform(3.0, 6.0)))
        if not is_admissible(lam, es, 1e-3).ok:
            continue
        if picked and abs(picked[0].lam_sq - lam.lam_sq) < 0.5:
            continue
        picked.append(lam)
        if len(picked) == 2:
            return picked[0], picked[1]
    raise ScatjetError("could not draw admissible energies (exhausted attempts)")


def forward_dataset(
    patch: BoundaryPatch,
    energies: tuple[ComplexEnergy, ...],
    scale_t: float = 2.0,
    probes: np.ndarray | None = None,
    t_pair: tuple[complex, complex] | None = None,
) -> SymbolDataset:
    """Forward map: symbol pairs (and first-order singularity samples) on disk form.

    Each energy's ``lam`` is kept: a :class:`ComplexEnergy` in memory, ``[re, im]`` on disk.
    Symbols are sampled at the covectors of :func:`polarization_covectors`
    and at ``scale_t`` times each, at every grid point and energy.  When the
    patch carries order-1 entries in both jets, the first-order angular
    samples ``F(omega)`` of those jets
    (:func:`~scatjet.forward_scattering.singularity_coefficient`) at the
    ``(P, n)`` array of unit ``probes`` (:func:`default_probe_set` unless
    given), at every grid point, are attached together with the probes and
    the model-integral factor pair used to build them (``(1, 1)`` unless
    given).  The dataset holds these samples and nothing else derived from
    the patch: the inverse screens the energies against the exceptional set
    of the fields it recovers.  Order-1 entries in one jet alone, probes for
    a patch with none, or a header that :func:`~scatjet.dataset.check_header`
    refuses, raise :class:`ConfigError` before any sampling.
    """
    lacking = [name for name in ("v_jet", "h_jet") if len(getattr(patch, name)) < 2]
    if len(lacking) == 1:
        raise ConfigError(
            f"the patch has no order-1 entry in {lacking[0]}: first-order samples need "
            "order-1 entries in both v_jet and h_jet"
        )
    first_order = not lacking
    if probes is not None and not first_order:
        raise ConfigError(
            "probes given for a patch with no order-1 jets: there are no first-order samples"
        )
    n = patch.n
    shape = patch.grid_shape
    # the header is judged before sampling: a scale_t it refuses makes zero or NaN covectors
    check_header(n, shape, scale_t, energies)
    covectors = polarization_covectors(n)
    xi = np.stack([covectors, scale_t * covectors], axis=1)  # (C, 2, n)
    # the roots of every energy, computed once: the singularity samples read the first
    sigma, symbols = principal_symbol(patch, xi, energies)

    singularity = omega = None
    if first_order:
        if t_pair is None:
            t_pair = (1.0 + 0.0j, 1.0 + 0.0j)
        omega = default_probe_set(n) if probes is None else probes
        singularity = singularity_coefficient(patch, sigma[..., 0], t_pair[0], t_pair[1], omega)

    return SymbolDataset(
        n=n,
        grid_shape=shape,
        scale_t=float(scale_t),
        energies=energies,
        symbols=symbols,
        singularity=singularity,
        probes=omega,
        t_pair=t_pair,
    )


def make_synthetic_pair(
    seed: int,
    n: int,
    axes: tuple[int, ...] | None = None,
) -> tuple[SyntheticTruth, SymbolDataset]:
    """Random constant-coefficient truth plus its forward dataset.

    The truth is one :func:`constant_patch` whose first-order jets are
    ``h^(1) = h0 H h0`` with a traceless ``H`` and ``V^(1) = W1 = 0``: the
    fitted system's structural kernel direction is then orthogonal to the
    truth, the regime in which minimum-norm recovery is exact.  The dataset
    has ``scale_t = 2`` and first-order data at the default probes, with
    ``t_pair = (1, 1)``.
    """
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.5, 2.0))
    v0 = float(rng.uniform(-1.0, 1.0))
    h0 = random_spd(rng, n)
    H = traceless_symmetric(rng, n)
    W1 = 0.0
    patch = constant_patch(n, alpha, v0, h0, v1=W1, h1=h0 @ H @ h0, axes=axes)
    energies = draw_admissible_energies(rng, patch)
    ds = forward_dataset(patch, energies)
    return SyntheticTruth(n=n, alpha=alpha, v0=v0, h0=h0, H=H, W1=W1), ds
