"""Exceptional energy sets and admissibility screening."""

import numpy as np
import pytest

from scatjet.boundary_jets import BoundaryPatch, ComplexEnergy, indicial_root
from scatjet.spectral_sets import (
    exceptional_set,
    is_admissible,
    omega_interval,
    omega_prime_modes,
)
from scatjet.synthetic import constant_patch


def _variable_patch():
    # alpha in [1,2], V0 in [0,1] on an 8-point circle
    return BoundaryPatch.from_dict(
        {
            "n": 2,
            "axes": [8, 4],
            "alpha": "1.5 + 0.5*cos(y1)",
            "v_jet": ["0.5 + 0.5*cos(y1)"],
            "h_jet": [[["1", "0"], ["0", "1"]]],
        }
    )


# -- interval ---------------------------------------------------------------


def test_interval_collapses_for_constant_fields():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    assert omega_interval(patch) == (0.0, 0.0)


def test_interval_variable_fields():
    lo, hi = omega_interval(_variable_patch())
    assert lo == pytest.approx(-3.0)
    assert hi == pytest.approx(1.0)


def test_interval_monotone_in_potential():
    a = constant_patch(2, 1.0, 0.0, np.eye(2))
    b = constant_patch(2, 1.0, 0.5, np.eye(2))
    assert omega_interval(b)[1] > omega_interval(a)[1]
    assert omega_interval(b)[0] > omega_interval(a)[0]


# -- discrete modes ---------------------------------------------------------


def test_modes_worked_values():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    modes = omega_prime_modes(patch, k_max=2)
    assert modes.shape == (4, 4, 3)
    assert modes[0, 0, 0] == pytest.approx(-2.0)
    assert modes[0, 0, 2] == pytest.approx(-1.0)


def test_modes_hit_half_integer_roots():
    """Each emitted lambda^2 puts the lower indicial root at (n-k)/2."""
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    modes = omega_prime_modes(patch, k_max=3)
    for *idx, k in np.ndindex(*modes.shape):
        lam_sq = complex(modes[(*idx, k)])
        en = ComplexEnergy(complex(np.sqrt(lam_sq)), lam_sq=lam_sq)
        sig = indicial_root(patch, en).sigma[tuple(idx)]
        assert 2 - sig == pytest.approx((2 - k) / 2.0, abs=1e-8)


def test_modes_match_the_per_point_formula():
    """The array expression gives the bits of the scalar formula at every point and k.

    4096 random alphas: with ``alpha * alpha`` in place of a Python float's
    ``** 2`` (libm's pow), a few would differ in the last bit.
    """
    rng = np.random.default_rng(3)
    shape = (64, 64)
    patch = BoundaryPatch(
        n=2,
        axes=shape,
        alpha=rng.uniform(0.5, 2.0, size=shape),
        v_jet=(rng.uniform(-1.0, 1.0, size=shape),),
        h_jet=(np.tile(np.eye(2), shape + (1, 1)),),
    )
    modes = omega_prime_modes(patch, k_max=3)
    assert modes.shape == shape + (4,)
    n = patch.n
    for idx in np.ndindex(*shape):
        v0 = float(patch.v_jet[0][idx])
        a2 = float(patch.alpha[idx]) ** 2
        for k in range(4):
            assert modes[idx + (k,)] == v0 - n * n / 4.0 + a2 * (k * k - n * n) / 4.0


def test_modes_constant_patch_dedup_and_validation():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    modes = omega_prime_modes(patch, k_max=0)
    assert len(set(modes.ravel().tolist())) == 1
    with pytest.raises(ValueError):
        omega_prime_modes(patch, k_max=-1)


# -- admissibility ----------------------------------------------------------


def test_admissible_far_energy():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = exceptional_set(patch)
    adm = is_admissible(ComplexEnergy(5.0j), es, margin=0.1)
    assert adm.ok and bool(adm)
    assert set(adm.distances) >= {"omega-interval", "omega-prime-mode"}


def test_inadmissible_in_interval():
    es = exceptional_set(_variable_patch())
    # lambda^2 = -1 lies inside [-3, 1]
    adm = is_admissible(ComplexEnergy(1.0j), es, margin=0.1)
    assert not adm.ok
    assert "omega-interval" in adm.reason


def test_inadmissible_near_mode():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = exceptional_set(patch, k_max=2)
    adm = is_admissible(ComplexEnergy(complex(np.sqrt(complex(-2.001)))), es, margin=0.1)
    assert not adm.ok
    assert "omega-prime-mode" in adm.reason


def test_inadmissible_user_excluded():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = exceptional_set(patch, user_excluded=(3.0 + 0.0j,))
    adm = is_admissible(ComplexEnergy(3.0 + 0.05j), es, margin=0.1)
    assert not adm.ok
    assert "user-excluded" in adm.reason
    assert is_admissible(ComplexEnergy(3.0 + 0.05j), es, margin=0.01).ok
    # a NaN excluded energy gives a NaN distance, which counts as a violation
    es = exceptional_set(patch, user_excluded=(complex(np.nan, 0.0),))
    adm = is_admissible(ComplexEnergy(5.0j), es, margin=0.1)
    assert not adm.ok and "user-excluded" in adm.reason


def test_admissibility_margin_validation_and_monotonicity():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = exceptional_set(patch)
    with pytest.raises(ValueError):
        is_admissible(ComplexEnergy(5.0j), es, margin=-1.0)
    lam = ComplexEnergy(complex(np.sqrt(complex(-2.3))))
    assert is_admissible(lam, es, margin=0.05).ok
    assert not is_admissible(lam, es, margin=1.0).ok

