"""Model integrals against independent routes.

Expected numerical values here are either closed forms, values from
``oracles.two_center_truncated`` (graded fixed-order panels + tail
extrapolation of the two-center integral itself, no Feynman parameter), or
30-digit ``mpmath.quad`` values of the 1-D Feynman integral of ``I``.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "tols",
    [
        dict(rel_tol=math.nan),
        dict(abs_tol=math.nan),
        dict(rel_tol=math.inf),
        dict(abs_tol=math.inf),
        dict(rel_tol=math.inf, abs_tol=math.nan),
    ],
)
def test_spec_refuses_non_finite_tolerances(tols):
    """A NaN tolerance fails every comparison, so an unchecked one passes any error estimate."""
    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        QuadratureSpec(**tols)


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
    """A tolerance below rounding fails every integral, each naming its rounding bound.

    The I rule refuses it at once, before any bisection, and names what it spent.
    """
    starved = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=100)
    with pytest.raises(
        QuadratureFailure,
        match=r"^I_1 at sigma=2\.5, s=0\.5, n=1: error estimate \d\.\d{3}e-15 above tolerance "
        r"1\.000e-300, which is below the rule's rounding bound \d\.\d{3}e-18 \(912 evals, "
        r"38 panels\): the 16- and 8-point sums cannot resolve it$",
    ):
        i_full_integral(1, 2.5, 0.5, [3.0], starved)
    with pytest.raises(QuadratureFailure, match=r"^T_1 at sigma=2.5, n=2: closed-form rounding"):
        t_limit_integral(1, 2.5, 2, starved)
    with pytest.raises(QuadratureFailure, match=r"^J_2 at sigma=3.0, n=1, k=1: closed-form"):
        j_integral(2, 1, 3.0, 1, starved)


def test_i_rule_blames_the_budget_only_for_a_tolerance_it_can_meet():
    """Above the rounding bound, a tolerance that needs more bisections than the
    budget allows names the budget and what it spent."""
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=50)
    with pytest.raises(
        QuadratureFailure,
        match=r"^I_2 at sigma=2\.5, s=0\.001, n=1: error estimate \d\.\d{3}e-\d\d above "
        r"tolerance \d\.\d{3}e-\d\d after 0 "
        r"subdivisions \(1752 evals, 73 panels\); bisecting every panel would exceed "
        r"max_subdivisions=50$",
    ):
        i_full_integral(2, 2.5, 1e-3, [1e3], spec)
    enough = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=73)
    assert i_full_integral(2, 2.5, 1e-3, [1e3], enough).n_evals == 5256


def test_i_rule_refuses_a_level_that_does_not_lower_the_estimate(monkeypatch):
    """Past the level where the estimate stops falling, no bisection would meet the
    tolerance: the rule refuses there, naming the estimate it stalled at, not the budget.

    The raw estimates of levels 0 to 3 are about 8.4e-24, 3.0e-27, 1.8e-27 and
    2.1e-27: (73 + 146 + 292 + 584) * 24 = 26280 evals, 584 panels.
    """
    raw = []
    real_sums = model_quadrature._panel_sums

    def spy(*args):
        sums = real_sums(*args)
        raw.append(float(np.sum(np.abs(sums[:, 0] - sums[:, 1]))))
        return sums

    monkeypatch.setattr(model_quadrature, "_panel_sums", spy)
    spec = QuadratureSpec(rel_tol=4e-16, abs_tol=1e-300, max_subdivisions=20000)
    with pytest.raises(
        QuadratureFailure,
        match=r"^I_2 at sigma=2\.5, s=0\.001, n=1: error estimate stalled at 3\.782e-35 above "
        r"tolerance 2\.645e-35: bisecting every panel again gave 4\.424e-35 \(26280 evals, "
        r"584 panels\)$",
    ):
        i_full_integral(2, 2.5, 1e-3, [1e3], spec)
    assert len(raw) == 4 and raw[1] > raw[2] < raw[3]
    np.testing.assert_allclose(raw, [8.4e-24, 3.0e-27, 1.8e-27, 2.1e-27], rtol=0.05)


def test_i_rule_refuses_a_stall_where_a_noise_dip_would_have_converged():
    """Below rel_tol 6e-16 the rule refuses a stall that one more level might pass.

    At rel_tol 5e-16 the estimate rises from about 2.3 to 2.6 rounding bounds at
    level 2; bisecting on, level 3 dips under the tolerance within noise at 26280
    evals.  At 6e-16 the estimate of level 1 meets the tolerance.
    """
    spec = QuadratureSpec(rel_tol=5e-16, abs_tol=1e-300, max_subdivisions=20000)
    with pytest.raises(
        QuadratureFailure,
        match=r"^I_1 at sigma=2\.5, s=0\.001, n=1: error estimate stalled at 1\.067e-29 above "
        r"tolerance 1\.035e-29: bisecting every panel again gave 1\.183e-29 \(12264 evals, "
        r"292 panels\)$",
    ):
        i_full_integral(1, 2.5, 1e-3, [1e3], spec)
    converged = i_full_integral(1, 2.5, 1e-3, [1e3], QuadratureSpec(6e-16, 1e-300, 20000))
    assert converged.n_evals == 5256 and converged.est_error == pytest.approx(1.067e-29, rel=1e-3)


def test_value_past_double_range_is_refused(monkeypatch):
    """A NaN never comes back converged, and I refuses a NaN front before its rule runs."""
    with pytest.raises(QuadratureFailure, match=r"^T_1 at sigma=1e\+308, n=2: the closed form leaves"):
        t_limit_integral(1, 1e308, 2)
    with pytest.raises(QuadratureFailure, match=r"^J_1 at sigma=1e\+308, n=2, k=1: the closed form"):
        j_integral(1, 1, 1e308, 2)
    evals = []
    real_sums = model_quadrature._panel_sums
    monkeypatch.setattr(
        model_quadrature, "_panel_sums", lambda *a: evals.append(a) or real_sums(*a)
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


# the benchmark's I cases: (s, |z|) = (1e-3, 1e3) at the spec (5e-4, 1e-300, 20000)
I_BENCH_SPEC = QuadratureSpec(rel_tol=5e-4, abs_tol=1e-300, max_subdivisions=20000)


@pytest.mark.parametrize(
    "l,sigma,n_evals", [(1, 2.0, 1944), (2, 2.0, 1944), (1, 2.5, 1752), (2, 2.5, 1752)]
)
def test_i_rule_layout_is_pinned(l, sigma, n_evals):
    """The rule's panels, as counted by ``n_evals``, at the benchmark's I cases.

    Each half has ``ceil(40 / sigma)`` unit panels below its knee, 20 at
    sigma = 2 and 16 at 2.5, and 14 (half near t = 0) or 27 (near t = 1)
    from the knee to ``-log 2``.  One level of 24 nodes a panel meets the
    spec: 81 * 24 = 1944 and 73 * 24 = 1752.
    """
    assert i_full_integral(l, complex(sigma), 1e-3, [1e3], I_BENCH_SPEC).n_evals == n_evals


def test_i_rule_layout_is_pinned_after_a_bisection():
    """The second run of the halving test bisects every panel once: (73 + 146) * 24 evals."""
    first = i_full_integral(2, 2.5, 1e-3, [1e3], QuadratureSpec(abs_tol=1e-300))
    half = 0.5 * first.est_error / abs(first.value)
    second = i_full_integral(2, 2.5, 1e-3, [1e3], QuadratureSpec(rel_tol=half, abs_tol=1e-300))
    assert (first.n_evals, second.n_evals) == (1752, 5256)


@pytest.mark.parametrize(
    "start,stop",
    [(-33.815510557964274, -13.815510557964274), (-13.815510557964274, -math.log(2.0)),
     (-43.63102111592855, -27.631021115928547), (-1.5, -1.5), (-math.pi, -math.log(2.0))],
)
def test_panel_edges_are_linspace_bit_for_bit(start, stop):
    """The rule's unit panels keep the edges ``np.linspace`` made, so its nodes stay put."""
    m = math.ceil((stop - start) / 1.0)
    edges = model_quadrature._panel_starts(start, stop) + [stop]
    assert edges == np.linspace(start, stop, m + 1).tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    l=st.sampled_from([1, 2]),
    n=st.integers(1, 3),
    above=st.floats(0.05, 4.0),
    log_s=st.floats(-3.0, 3.0),
    log_z=st.floats(-3.0, 3.0),
)
def test_i_real_sigma_matches_the_complex_kernel(l, n, above, log_s, log_z):
    """A real sigma runs the rule in float64; sigma + 0j forced through complex gives the same.

    Same panels and ``n_evals``, the same value to rounding, and the float64
    value is exactly real.  sigma sits above both convergence gates.
    """
    sigma = max((5 - 2 * l) / 2, (n + 2 * l - 5) / 2) + above
    s, z = 10.0**log_s, [10.0**log_z] + [0.0] * (n - 1)
    dtypes = []
    panel_sums = model_quadrature._panel_sums

    def spy(*args):
        sums = panel_sums(*args)
        dtypes.append(sums.dtype)
        return sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_quadrature, "_panel_sums", spy)
        real = i_full_integral(l, sigma, s, z)
        # the complex kernel: p and b stay complex
        mp.setattr(model_quadrature, "real_part_if_real", lambda x: x)
        forced = i_full_integral(l, complex(sigma), s, z)
    assert set(dtypes) == {np.dtype(float), np.dtype(complex)}
    assert real.n_evals == forced.n_evals
    assert real.value.imag == 0.0
    assert abs(real.value - forced.value) <= 1e-14 * abs(forced.value)


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


def test_i_refuses_a_rule_with_no_panel():
    """At s = 1, z = 0 both knees sit at -log 2, and 40 / sigma is below their ulp."""
    with pytest.raises(
        QuadratureFailure,
        match=r"^I_1 at sigma=1e\+200, s=1\.0, n=1: the rule has no panel, so no node is "
        r"evaluated: both knees sit at the top, -log 2, and the span 40 / Re\(sigma\) = "
        r"4\.000e-199 below them rounds away$",
    ):
        i_full_integral(1, 1e200, 1.0, [0.0])


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


@pytest.mark.parametrize("n,z", [(4, [0.0] * 4), (0, []), (4, [math.nan])])
def test_green_kernel_refuses_a_dimension_outside_1_to_3(n, z):
    """The dimension is judged as T, J and I judge it, before ``z`` is read."""
    message = r"^n must be 1\.\.3 \(the supported boundary dimensions\)$"
    with pytest.raises(ValueError, match=message):
        t_limit_integral(1, 5.3, n, SPEC)
    with pytest.raises(ValueError, match=message):
        green_kernel(1.0, z, 5.3, n)


def test_green_kernel_pole():
    """The prefactor's rule judges the Gamma arguments: an integer to 1e-12, at most 0."""
    for sigma, n, message in (
        (0.5, 3, r"sigma - \(n-2\)/2 = 0j"),  # sigma - 1/2 = 0
        (-3.0, 2, r"sigma = \(-3\+0j\)"),
        (-3 + 1e-13j, 1, r"sigma = \(-3\+1e-13j\)"),
    ):
        with pytest.raises(GammaPole, match=rf"^Gamma argument {message} is a nonpositive integer$"):
            green_kernel(1.0, [0.0] * n, sigma, n)


def test_green_kernel_names_no_pole_past_2_to_the_52():
    """Every double past 2^52 is an integer, so no pole is judged there: the Gamma
    is not finite and the value is refused as such."""
    with pytest.raises(
        QuadratureFailure,
        match=r"^G at sigma=\(-1e\+20\+0j\): value \(nan\+nanj\) \(error 0\.0\) is not finite",
    ):
        green_kernel(1.0, [0.0, 0.0], -1e20, 2)
