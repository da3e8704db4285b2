"""Adaptive model integrals against the independent truncated-Gauss route.

Expected numerical values here are either closed forms or come from
``oracles.two_center_truncated``, which shares no code or method with the
adaptive engine (graded fixed-order panels + tail extrapolation vs.
compactified embedded-pair adaptivity).
"""
import math

import numpy as np
import pytest

from scatjet.errors import GammaPole, NotConvergent, QuadratureFailure
from scatjet.model_quadrature import (
    ModelIntegralValue,
    QuadratureSpec,
    green_kernel,
    i_full_integral,
    j_converges,
    j_integral,
    t_limit_integral,
)

from oracles import j_oracle, t_oracle, two_center_truncated

SPEC = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10, max_subdivisions=20000)


# -- QuadratureSpec ---------------------------------------------------------


def test_spec_defaults_and_validation():
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-7 and spec.abs_tol == 1e-10
    for bad in (
        dict(rel_tol=0.0),
        dict(abs_tol=-1e-3),
        dict(max_subdivisions=0),
    ):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)


# -- convergence predicate --------------------------------------------------


def test_j_converges_examples():
    assert j_converges(1, 1, 2.0, 2) is True  # 4 >= max(2,3)
    assert j_converges(1, 1, 1.4, 2) is False  # 2.8 < 3
    # k = n + 1 makes the threshold max(0, n+3) = n+3
    for n in (1, 2, 3):
        assert j_converges(1, n + 1, (n + 3) / 2.0, n) is True
        assert j_converges(1, n + 1, (n + 3) / 2.0 - 0.01, n) is False


def test_j_integral_gates():
    with pytest.raises(NotConvergent):
        j_integral(1, 1, 1.4, 2, SPEC)
    with pytest.raises(ValueError):
        j_integral(3, 1, 3.0, 1, SPEC)
    with pytest.raises(ValueError):
        j_integral(1, 0, 3.0, 1, SPEC)
    with pytest.raises(ValueError):
        j_integral(1, 1, 3.0, 4, SPEC)


# -- J values ---------------------------------------------------------------

J_CASES = [
    (1, 1, 3.0, 1),
    (2, 2, 2.2, 1),
    (2, 1, 3.0, 2),
]


@pytest.mark.parametrize("l,k,sigma,n", J_CASES)
def test_j_against_oracle(l, k, sigma, n):
    got = j_integral(l, k, sigma, n, SPEC)
    want = j_oracle(l, k, sigma, n)
    assert got.value.imag == 0.0
    assert got.value.real > 0.0
    assert abs(got.value - want) <= 1e-5 * abs(want)


def test_j_monotone_decreasing_in_sigma():
    """Pointwise the integrand ratio u^2/(AB) <= 1, so J falls with Re sigma."""
    vals = [j_integral(1, 1, s, 1, SPEC).value.real for s in (2.2, 2.4, 2.6, 2.8, 3.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# -- T values ---------------------------------------------------------------


def test_t_closed_forms_n1():
    t1 = t_limit_integral(1, 2.0, 1, SPEC).value
    t2 = t_limit_integral(2, 2.0, 1, SPEC).value
    assert t1 == pytest.approx(math.pi**2 / 8, rel=1e-6)
    assert t2 == pytest.approx(math.pi**2 / 4, rel=1e-6)
    assert abs(t1 - t2) > 1.0  # the two exponents give distinct integrals


def test_t_closed_form_n2():
    val = t_limit_integral(1, 2.5, 2, SPEC).value
    assert val == pytest.approx(2 * math.pi / 9, rel=1e-6)
    assert abs(val - t_oracle(1, 2.5, 2)) <= 1e-5 * abs(val)


def test_t_complex_sigma_against_oracle():
    got = t_limit_integral(1, 2.3 + 0.4j, 1, SPEC).value
    want = t_oracle(1, 2.3 + 0.4j, 1)
    assert abs(got - want) <= 1e-5 * abs(want)


def test_t_schwarz_reflection():
    for l in (1, 2):
        plus = t_limit_integral(l, 2.0 + 0.5j, 1, SPEC)
        minus = t_limit_integral(l, 2.0 - 0.5j, 1, SPEC)
        assert abs(plus.value.conjugate() - minus.value) <= plus.est_error + minus.est_error


def test_t_divergent_gate():
    with pytest.raises(NotConvergent):
        t_limit_integral(2, 0.4, 1, SPEC)  # decay 1.6 - (-0.2) = 1.8 <= n+1
    with pytest.raises(NotConvergent):
        t_limit_integral(1, 0.9, 1, SPEC)  # decay 3.6 - 2.8 = 0.8 <= n+1


def test_halving_rel_tol_stays_within_estimate():
    for run in (
        lambda r: t_limit_integral(2, 2.0, 1, QuadratureSpec(rel_tol=r, abs_tol=1e-12, max_subdivisions=20000)),
        lambda r: j_integral(1, 1, 3.0, 1, QuadratureSpec(rel_tol=r, abs_tol=1e-12, max_subdivisions=20000)),
    ):
        first = run(1e-5)
        second = run(5e-6)
        assert first.converged and second.converged
        assert abs(first.value - second.value) <= first.est_error


def test_quadrature_failure_on_tiny_budget():
    starved = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=2)
    with pytest.raises(QuadratureFailure, match=r"2 subdivisions \(\d+ evals, \d+ live cells\)"):
        t_limit_integral(1, 2.0, 1, starved)


def test_result_invariant():
    res = t_limit_integral(1, 2.0, 1, SPEC)
    assert isinstance(res, ModelIntegralValue)
    assert res.converged
    assert res.est_error <= max(SPEC.rel_tol * abs(res.value), SPEC.abs_tol)
    assert res.n_evals > 0


# -- full integral ----------------------------------------------------------


def test_i_scaling_identity():
    """I against the substituted two-center form with softened centers."""
    sig, s, zmag = 2.5, 0.1, 8.0
    for l in (1, 2):
        got = i_full_integral(l, sig, s, [zmag], SPEC).value
        want = s**sig * zmag ** (5 - 2 * sig - 2 * l) * two_center_truncated(
            2 * sig + 4 - 2 * l - 1, sig, 1, a_shift=(s / zmag) ** 2, b_shift=zmag**-2
        )
        assert abs(got - want) <= 1e-4 * abs(want)


def test_i_positive_real():
    val = i_full_integral(1, 2.2, 0.7, [0.0], SPEC).value
    assert val.imag == 0.0 and val.real > 0.0


def test_i_limit_moderate_separation():
    """Rescaled I sits within a few percent of T already at (s, |z|) = (1e-2, 1e2).

    The remaining gap here is the genuine finite-(s, |z|) deviation, not
    quadrature error; the tight check at extreme separation lives in the
    acceptance suite.
    """
    sig, s, zmag = 2.0, 1e-2, 1e2
    ispec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-300, max_subdivisions=20000)
    for l in (1, 2):
        iv = i_full_integral(l, sig, s, [zmag], ispec).value
        tv = t_limit_integral(l, sig, 1, SPEC).value
        scaled = iv * s ** (-sig) * zmag ** (2 * sig - 5 + 2 * l)
        assert abs(scaled / tv - 1.0) < 0.03


def test_i_rotation_invariance():
    """I depends on z only through |z|: off-axis and mirrored z agree."""
    on_axis = i_full_integral(1, 2.5, 0.5, [5.0, 0.0], SPEC)
    off_axis = i_full_integral(1, 2.5, 0.5, [3.0, 4.0], SPEC)
    assert off_axis == on_axis
    plus = i_full_integral(1, 2.5, 0.5, [8.0], SPEC)
    minus = i_full_integral(1, 2.5, 0.5, [-8.0], SPEC)
    assert abs(plus.value - minus.value) <= plus.est_error + minus.est_error


def test_i_validation():
    with pytest.raises(ValueError):
        i_full_integral(1, 2.5, -0.1, [1.0], SPEC)
    with pytest.raises(ValueError):
        i_full_integral(1, 2.5, 0.5, [1.0] * 4, SPEC)
    with pytest.raises(NotConvergent):
        i_full_integral(1, 0.9, 0.5, [1.0], SPEC)


# -- Green kernel values ----------------------------------------------------


def test_green_kernel_at_unit_point():
    from scipy.special import gamma

    for sigma, n in ((1.7, 1), (2.5, 2), (2.2 + 0.3j, 3)):
        const = np.pi ** (-n / 2) / 2 * gamma(sigma) / gamma(sigma - (n - 2) / 2)
        got = green_kernel(1.0, [0.0] * n, sigma, n)
        assert got == pytest.approx(const * 2.0**-sigma, rel=1e-12)


def test_green_kernel_n2_constant():
    # Gamma(sigma)/Gamma(sigma - 0) = 1, so the constant is 1/(2 pi)
    val = green_kernel(1.0, [0.0, 0.0], 2.5, 2)
    assert val == pytest.approx(2.0**-2.5 / (2 * np.pi), rel=1e-12)


def test_green_kernel_decay_slope():
    sigma, n = 2.3, 2
    zs = np.linspace(10.0, 100.0, 12)
    mags = [abs(green_kernel(0.7, [z, 0.0], sigma, n)) for z in zs]
    slope = np.polyfit(np.log(zs), np.log(mags), 1)[0]
    assert slope == pytest.approx(-2 * sigma, abs=0.05)


def test_green_kernel_pole():
    with pytest.raises(GammaPole):
        green_kernel(1.0, [0.0, 0.0, 0.0], 0.5, 3)  # sigma - 1/2 = 0
