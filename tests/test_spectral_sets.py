"""Exceptional energy sets, admissibility screening, and zero scans."""
import math

import numpy as np
import pytest

from scatjet.boundary_jets import BoundaryPatch, ComplexEnergy, indicial_root
from scatjet.errors import EvaluationFailure, NotConvergent
from scatjet.forward_scattering import gamma_prefactor
from scatjet.model_quadrature import QuadratureSpec, t_limit_integral
from scatjet.spectral_sets import (
    exceptional_set,
    is_admissible,
    omega_interval,
    omega_prime_modes,
    zero_scan,
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
    by_k = {m.k: m.lambda_sq for m in modes}
    assert by_k[0] == pytest.approx(-2.0)
    assert by_k[2] == pytest.approx(-1.0)


def test_modes_hit_half_integer_roots():
    """Each emitted lambda^2 puts the lower indicial root at (n-k)/2."""
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    for m in omega_prime_modes(patch, k_max=3):
        lam = complex(np.sqrt(complex(m.lambda_sq)))
        en = ComplexEnergy(lam, lam_sq=complex(m.lambda_sq))
        sig = indicial_root(patch, en).sigma[m.y_index]
        assert 2 - sig == pytest.approx((2 - m.k) / 2.0, abs=1e-8)


def test_modes_constant_patch_dedup_and_validation():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    modes = omega_prime_modes(patch, k_max=0)
    assert len({m.lambda_sq for m in modes}) == 1
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


def test_admissibility_margin_validation_and_monotonicity():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = exceptional_set(patch)
    with pytest.raises(ValueError):
        is_admissible(ComplexEnergy(5.0j), es, margin=-1.0)
    lam = ComplexEnergy(complex(np.sqrt(complex(-2.3))))
    assert is_admissible(lam, es, margin=0.05).ok
    assert not is_admissible(lam, es, margin=1.0).ok


# -- zero scans -------------------------------------------------------------


def test_scan_linear_root():
    zeros = zero_scan(lambda s: s - 3.0, (2.0, 4.0, -0.5, 0.5), step=0.3, tol=1e-6)
    assert len(zeros) == 1
    assert zeros[0].real == pytest.approx(3.0, abs=1e-6)
    assert abs(zeros[0].imag) < 1e-6


def test_scan_sine_roots():
    zeros = zero_scan(lambda s: complex(math.sin(s.real) + 1j * s.imag), (0.0, 10.0, -0.5, 0.5), step=0.5)
    got = sorted(z.real for z in zeros)
    want = [0.0, math.pi, 2 * math.pi, 3 * math.pi]
    assert len(got) == 4
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_scan_positive_function_finds_nothing():
    zeros = zero_scan(lambda s: abs(s) ** 2 + 1.0, (-1.0, 1.0, -1.0, 1.0), step=0.4)
    assert zeros == []


def test_scan_wraps_evaluation_errors():
    def bad(s):
        raise NotConvergent("diverges here")

    with pytest.raises(EvaluationFailure) as info:
        zero_scan(bad, (0.0, 1.0, 0.0, 1.0), step=0.5)
    assert info.value.at is not None


def test_scan_gamma_prefactor_window_clean():
    # poles/zeros of the Gamma ratio all sit at half-plane boundary or below
    # Re sigma = n/2; the scan window stays strictly above and off integers
    zeros = zero_scan(
        lambda s: gamma_prefactor(s, 2), (1.3, 2.6, -0.2, 0.2), step=0.3, tol=1e-3
    )
    assert zeros == []


def test_scan_limit_integral_positive_window():
    """T_2 has no real zeros in a convergent window (scan at loose tolerance)."""
    loose = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-8, max_subdivisions=2000)
    zeros = zero_scan(
        lambda s: t_limit_integral(2, s, 1, loose).value,
        (1.6, 3.0, 0.0, 0.0),
        step=0.35,
        tol=1e-4,
    )
    assert zeros == []
