"""Model integrals against independent routes.

Expected numerical values here are either closed forms, values from
``oracles.two_center_truncated`` (graded fixed-order panels + tail
extrapolation of the two-center integral itself, no Feynman parameter), or
30-digit ``mpmath.quad`` values of the 1-D Feynman integral of ``I``.
"""
import math

import numpy as np
import pytest

from scatjet import model_quadrature
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
    # k = n + 1 makes the threshold max(0, n+3) = n+3; at equality b = 1 for
    # l = 2, but b = 0 for l = 1, where J diverges logarithmically
    for n in (1, 2, 3):
        assert j_converges(2, n + 1, (n + 3) / 2.0, n) is True
        assert j_converges(1, n + 1, (n + 3) / 2.0, n) is False
        for l in (1, 2):
            assert j_converges(l, n + 1, (n + 3) / 2.0 - 0.01, n) is False


@pytest.mark.parametrize("l,k,sigma,n", [(1, 1, 1.5, 1), (1, 2, 2.0, 2)])
def test_j_boundary_b_zero_not_convergent(l, k, sigma, n):
    """2 Re(sigma) = k + 2 meets the inequality, but b = 0 there."""
    assert j_converges(l, k, sigma, n) is False
    with pytest.raises(NotConvergent, match="Re b = 0 <= 0"):
        j_integral(l, k, sigma, n, SPEC)


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


def test_t_limit_has_no_zeros_where_it_converges():
    """What ``scatjet sets`` states: T_l has no zeros where it converges.

    Sampled over a complex window above both convergence gates, and on the
    real window sigma in [1.6, 3.0] for T_2 at n = 1, where it is positive.
    """
    for l in (1, 2):
        for n in (1, 2, 3):
            lo = max((5 - 2 * l) / 2, (n + 2 * l - 5) / 2)
            for re in lo + np.linspace(0.05, 3.0, 12):
                for im in np.linspace(-2.0, 2.0, 9):
                    value = t_limit_integral(l, complex(re, im), n).value
                    assert np.isfinite(value) and abs(value) > 0
    window = [t_limit_integral(2, s, 1).value for s in np.linspace(1.6, 3.0, 15)]
    assert all(v.imag == 0.0 and v.real > 0.0 for v in window)


def test_t_divergent_gate():
    with pytest.raises(NotConvergent):
        t_limit_integral(2, 0.4, 1, SPEC)  # decay 1.6 - (-0.2) = 1.8 <= n+1
    with pytest.raises(NotConvergent):
        t_limit_integral(1, 0.9, 1, SPEC)  # decay 3.6 - 2.8 = 0.8 <= n+1


def test_halving_rel_tol_stays_within_estimate():
    """The I rule's error estimate bounds the move of a run at half of it."""
    for sigma, s, z in ((2.5, 1e-3, [1e3]), (2.2 + 0.3j, 0.5, [3.0, 0.0])):
        first = i_full_integral(2, sigma, s, z, QuadratureSpec(abs_tol=1e-300))
        half = 0.5 * first.est_error / abs(first.value)
        second = i_full_integral(2, sigma, s, z, QuadratureSpec(rel_tol=half, abs_tol=1e-300))
        assert second.n_evals > first.n_evals  # the tighter run refined
        assert abs(first.value - second.value) <= first.est_error


def test_quadrature_failure_on_tiny_budget():
    """A tolerance below rounding fails every integral, each saying why.

    The I rule names what it spent; T and J name their rounding bound.
    """
    starved = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=100)
    with pytest.raises(
        QuadratureFailure, match=r"after [1-9]\d* subdivisions \([1-9]\d* evals, \d+ panels\)"
    ):
        i_full_integral(1, 2.5, 0.5, [3.0], starved)
    with pytest.raises(QuadratureFailure, match=r"^T_1 at sigma=2.5, n=2: closed-form rounding"):
        t_limit_integral(1, 2.5, 2, starved)
    with pytest.raises(QuadratureFailure, match=r"^J_2 at sigma=3.0, n=1, k=1: closed-form"):
        j_integral(2, 1, 3.0, 1, starved)


def test_value_past_double_range_is_refused(monkeypatch):
    """A NaN never comes back converged, and I refuses a NaN front before its rule runs."""
    with pytest.raises(QuadratureFailure, match=r"^T_1 at sigma=1e\+308, n=2: the closed form leaves"):
        t_limit_integral(1, 1e308, 2)
    with pytest.raises(QuadratureFailure, match=r"^J_1 at sigma=1e\+308, n=2, k=1: the closed form"):
        j_integral(1, 1, 1e308, 2)
    evals = []
    real_sums = model_quadrature._half_sums
    monkeypatch.setattr(
        model_quadrature, "_half_sums", lambda *a: evals.append(a) or real_sums(*a)
    )
    with pytest.raises(
        QuadratureFailure,
        match=r"^I_1 at sigma=1e\+308, s=1.0, n=2: the front factor \(nan\+nanj\) leaves double",
    ):
        i_full_integral(1, 1e308, 1.0, [1.0, 0.0])
    assert evals == []
    assert i_full_integral(1, 2.5, 0.5, [3.0]).n_evals > 0 and evals


def test_result_invariant():
    for res, evaluated in (
        (t_limit_integral(1, 2.0, 1, SPEC), False),
        (j_integral(1, 1, 3.0, 1, SPEC), False),
        (i_full_integral(1, 2.0, 0.5, [3.0], SPEC), True),
    ):
        assert isinstance(res, ModelIntegralValue)
        assert res.converged
        assert res.est_error <= max(SPEC.rel_tol * abs(res.value), SPEC.abs_tol)
        assert (res.n_evals > 0) is evaluated  # closed forms evaluate no integrand


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


def _i_mpmath(l, sigma, s, zmag, n):
    """I from its 1-D Feynman integral by 30-digit tanh-sinh quadrature."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        sig = mp.mpc(sigma)
        s, d = mp.mpf(s), mp.mpf(zmag)
        E = 2 * sig + 4 - 2 * l - n
        b = 2 * sig - (E + 1 + n) / 2
        front = s**sig * mp.pi ** (mp.mpf(n) / 2) * mp.gamma((E + 1) / 2) * mp.gamma(b)
        front /= 2 * mp.gamma(sig) ** 2

        def f(t, u):  # u = 1 - t, passed exactly near t = 1
            return t ** (sig - 1) * u ** (sig - 1) * (t * u * d**2 + t * s**2 + u) ** -b

        half, knee = mp.mpf(1) / 2, 1 / (1 + s**2 + d**2)
        near_0 = mp.quad(lambda t: f(t, 1 - t), [0, min(knee, half), half])
        near_1 = mp.quad(lambda u: f(1 - u, u), [0, min(s**2 * knee, half), half])
        return complex(front * (near_0 + near_1))


I_MPMATH_POINTS = [
    (l, sigma, s, zmag, 1)
    for l in (1, 2)
    for sigma in (2.0, 2.5)
    for s, zmag in ((1e-3, 1e3), (0.5, 3.0), (1e-2, 1e2))
] + [(l, 2.2 + 0.3j, s, zmag, 2) for l in (1, 2) for s, zmag in ((1e-3, 1e3), (0.5, 3.0))]


def test_i_against_mpmath():
    """At the default spec, tiny values (down to 1e-20) too: abs_tol must not hide them."""
    for l, sigma, s, zmag, n in I_MPMATH_POINTS:
        got = i_full_integral(l, sigma, s, [zmag] + [0.0] * (n - 1))
        want = _i_mpmath(l, sigma, s, zmag, n)
        assert abs(got.value - want) <= 1e-7 * abs(want), (l, sigma, s, zmag, n)


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


def test_i_refuses_an_integrand_that_underflows_at_every_node():
    """A zero sum passes any error check, but it is no value: 30-digit mpmath gives 9.19e-274."""
    with pytest.raises(
        QuadratureFailure,
        match=r"^I_1 at sigma=30, s=10000000000\.0, n=1: the integrand underflows at every node",
    ):
        i_full_integral(1, 30, 1e10, [1.0])


@pytest.mark.parametrize(
    "l,sigma,s,z,message",
    [
        (1, 2.5, 1e-3, 1e160, r"the rule's knee .* leaves double range \(\|z\| = 1e\+160\)$"),
        # s^2 underflows to zero
        (1, 1.6, 1e-200, 1.0, r"the rule's knee .* leaves double range \(\|z\| = 1\)$"),
        # the knee s^2 / |z|^2 = 1e-400 underflows
        (1, 1.6, 1e-150, 1e50, r"the rule's knee .* leaves double range \(\|z\| = 1e\+50\)$"),
        # s^sigma = 1e-500
        (1, 5.0, 1e-100, 1.0, r"the front factor 0j leaves double range$"),
        (2, 2.6, 1e-50, 1e50, r"the front factor 6\.487e-131\+0\.000e\+00j times the rule's sum "),
    ],
    ids=[
        "z-squared-overflows",
        "s-squared-underflows",
        "knee-underflows",
        "front-underflows",
        "value-underflows",
    ],
)
def test_i_refuses_what_leaves_double_range(l, sigma, s, z, message):
    """Each of these ended in a bare ValueError or a silent zero."""
    with pytest.raises(QuadratureFailure, match=rf"^I_{l} at sigma={sigma}, s={s}, n=1: {message}"):
        i_full_integral(l, sigma, s, [z])


def test_i_validation():
    for s, z in ((-0.1, [1.0]), (math.nan, [1.0]), (math.inf, [1.0]), (0.5, [math.inf])):
        with pytest.raises(ValueError):
            i_full_integral(1, 2.5, s, z, SPEC)
    for integral in (
        lambda sig: i_full_integral(1, sig, 0.5, [1.0], SPEC),
        lambda sig: t_limit_integral(1, sig, 1, SPEC),
        lambda sig: j_integral(1, 1, sig, 1, SPEC),
    ):
        with pytest.raises(ValueError, match="not finite"):
            integral(complex(math.nan, 0.0))
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


def test_green_kernel_refuses_a_value_past_double_range():
    with pytest.raises(
        QuadratureFailure,
        match=r"^G at sigma=\(10000000000\+0j\): value \(nan\+nanj\) \(error 0\.0\) "
        r"is not finite in double precision$",
    ):
        green_kernel(1.0, [0.0, 0.0], 1e10, 2)


def test_green_kernel_pole():
    with pytest.raises(GammaPole):
        green_kernel(1.0, [0.0, 0.0, 0.0], 0.5, 3)  # sigma - 1/2 = 0
