"""Stage-by-stage recovery tests, mostly exact algebraic round trips."""
import dataclasses
import json
import math
import re
import warnings


import numpy as np
import pytest
from scipy.special import digamma
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scatjet.boundary_jets import ComplexEnergy, indicial_root, polarization_covectors
from scatjet.dataset import SymbolDataset, canonical_json
from scatjet.errors import (
    BranchAmbiguity,
    ConfigError,
    ExceptionalEnergy,
    InconsistentData,
    NotPositiveDefinite,
    ZeroIntegralFactor,
    ZeroSymbol,
)
from scatjet.forward_scattering import (
    _exp,
    default_probe_set,
    first_order_factors,
    prefactor_and_poles,
    principal_symbol,
    singularity_coefficient,
)
from scatjet.inversion import (
    _divide,
    _log,
    first_order_recovery,
    layer_strip_driver,
    metric_boundary_recovery,
    recover_sigma_from_symbol,
    zeroth_order_recovery,
)
from scatjet.spectral_sets import exceptional_set, is_admissible
from scatjet.synthetic import (
    constant_patch,
    draw_admissible_energies,
    forward_dataset,
    make_synthetic_pair,
    traceless_symmetric,
)

from oracles import first_order_design, first_order_svd_fit, per_sample_sigma_and_norm
from varying_patch import varying_patch


def _symbol_pair(sigma, norm, t, n):
    pref = complex(prefactor_and_poles(np.asarray(sigma, dtype=complex), n)[0])
    v = pref * norm ** (2 * sigma - n)
    vt = pref * (t * norm) ** (2 * sigma - n)
    return v, vt


# -- sigma stage ------------------------------------------------------------


def test_sigma_round_trip():
    v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
    rec = recover_sigma_from_symbol(v, vt, 2.0, 2)
    assert rec.sigma == pytest.approx(2.3, abs=1e-12)
    assert rec.norm == pytest.approx(1.7, abs=1e-12)


def test_sigma_branch_consistent_across_scales():
    got = []
    for t in (2.0, 4.0):
        v, vt = _symbol_pair(2.3, 0.9, t, 2)
        got.append(recover_sigma_from_symbol(v, vt, t, 2).sigma)
    assert abs(got[0] - got[1]) <= 1e-12


def test_sigma_noise_robustness():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v, vt = _symbol_pair(2.3, 1.2, 2.0, 2)
        v *= 1.0 + 1e-6 * rng.normal()
        vt *= 1.0 + 1e-6 * rng.normal()
        rec = recover_sigma_from_symbol(v, vt, 2.0, 2)
        assert abs(rec.sigma - 2.3) <= 1e-5


def test_sigma_via_forward_module():
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    en = ComplexEnergy(4.0)
    xi = np.array([0.6, 0.8])
    v, vt = principal_symbol(patch, [xi, 2 * xi], (en,))[1][0][0, 0]
    rec = recover_sigma_from_symbol(v, vt, 2.0, 2)
    assert rec.sigma == pytest.approx(indicial_root(patch, en)[0, 0], abs=1e-12)
    assert rec.norm == pytest.approx(1.0, abs=1e-12)  # h0 = I and |xi| = 1


def test_divide_by_a_real_divisor_warns_nothing():
    """A real divisor takes the real kernel, which also runs, discarded, on every
    other element; neither that nor Smith's method on the rest may raise a numpy
    warning, not even for a zero divisor."""
    assert _divide(1, 2.0) == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _divide([1.0, 1.0 + 1.0j, 1.0], [2.0, 1.0j, 0.0])
    assert got[:2].tolist() == [0.5, 1.0 - 1.0j]
    assert not np.isfinite(got[2])


def test_float_operands_of_an_empty_broadcast_give_float():
    """An element that no broadcast keeps decides nothing, not even when it is NaN."""
    for a, b in ((np.zeros(0), np.array([math.nan])), (np.zeros((0, 1)), np.array([1.0, 0.0]))):
        assert _divide(a, b).dtype == np.float64
        assert _divide(b, a).dtype == np.float64
    assert _log(np.zeros(0)).dtype == np.float64


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_PARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SPECIAL)
_ENTRIES = st.one_of(_PARTS.map(complex), st.builds(complex, _PARTS, _PARTS))


def _mixed(size):
    """1-D complex arrays of ``size`` entries mixing real, complex, zero, +-inf and NaN."""
    return hnp.arrays(complex, size, elements=_ENTRIES)


def _real_finite(x):
    return (x.imag == 0) & np.isfinite(x.real)


def _bits(x):
    """The bytes of ``x`` with every NaN part made one NaN: numpy's vector and
    scalar loops may give a NaN either sign."""
    parts = np.array(x, dtype=complex).reshape(-1).view(float)
    parts[np.isnan(parts)] = math.nan
    return parts.tobytes()


def _kernel_calls(f, a, b):
    """The calls of ``f`` on ``a`` (and ``b``) that the kernel tests make.

    A one-operand ``f`` runs on ``a`` and on a 0-d ``a[0]``.  ``_divide``
    runs on ``(a, b)``, then on operands that broadcast without being
    broadcast first, as the sigma stage divides a point's samples by its
    prefactor (``v / pref[..., None]``): ``a`` as a column over ``b``, and
    a 0-d numerator or divisor against a 1-d other.
    """
    if f is not _divide:
        return [(a,), (np.asarray(a[0]),)]
    return [(a, b), (a[:, None], b), (np.asarray(a[0]), b), (a, np.asarray(b[0]))]


_SPECIALS = np.array([-math.inf, math.inf, math.nan, 0.0, -1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda k: st.tuples(_mixed(k), _mixed(k))), st.integers(1, 3))
@example((_SPECIALS.astype(complex), _SPECIALS[::-1].astype(complex)), 2)
def test_real_axis_kernels_judge_each_element_alone(ab, n):
    """The Gamma prefactor, the symbol's exp, the division and the log pick their kernel per element.

    Each element gets the same bits in the array as alone, also where the
    operands broadcast or are 0-d; real finite operands give an imaginary
    part of exactly zero; and a finite numerator over a real, finite,
    nonzero divisor is its parts divided by the divisor.
    """
    a, b = ab

    def prefactor(sigma):
        # as the sigma stage calls it: a non-finite sigma warns in the pole check
        with np.errstate(all="ignore"):
            return prefactor_and_poles(np.asarray(sigma), n)[0]

    for f in (prefactor, _exp, _log, _divide):
        for args in _kernel_calls(f, a, b):
            whole = f(*args)
            each = np.broadcast_arrays(*args)
            assert whole.shape == each[0].shape
            for i in np.ndindex(whole.shape):
                assert _bits(whole[i]) == _bits(f(*(x[i] for x in each)))

    assert np.all(prefactor(a)[_real_finite(a)].imag == 0)
    assert np.all(_exp(a)[_real_finite(a)].imag == 0)
    assert np.all(_log(a)[_real_finite(a) & (a.real > 0)].imag == 0)
    by_real = _real_finite(b) & (b.real != 0)
    got = _divide(a, b)
    assert np.all(got[by_real & _real_finite(a)].imag == 0)
    keep = by_real & np.isfinite(a)
    a, d = a[keep], b.real[keep]
    with np.errstate(all="ignore"):
        want = a.real / d + 1j * (a.imag / d)
    assert _bits(got[keep]) == _bits(want)


_FLOAT_OPERANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]),
)


def _float_operands(size):
    """1-D float64 arrays of ``size`` entries with zeros, negatives, +-inf and NaN."""
    return hnp.arrays(float, size, elements=_FLOAT_OPERANDS)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda k: st.tuples(_float_operands(k), _float_operands(k))),
    st.integers(1, 3),
)
@example((_SPECIALS, _SPECIALS[::-1].copy()), 2)
@example((np.array([1.0, 2.0]), np.array([math.inf, 3.0])), 2)
@example((np.array([-math.inf, 1.0]), np.array([1.0, 2.0])), 2)
@example((np.array([1.0, 2.0]), np.array([1.0, math.nan])), 2)
def test_float_operands_give_float_only_where_every_element_is_real(ab, n):
    """Float operands give a float64 result exactly when every element takes the real kernel.

    The float result has the bits of the real parts of the same call on the
    operands widened to complex, and its imaginary parts are zero; a
    division's zero quotient may differ in sign only (``_divide``'s
    docstring).  Any other result is complex, bit for bit the widened call's.
    A real result that is finite is no reason for the real kernel: a finite
    number over an infinite divisor, or the exp of ``-inf``, is zero, yet
    takes the complex kernel.  All of this holds for operands that
    broadcast and for 0-d operands too.
    """
    a, b = ab

    def prefactor(sigma):
        with np.errstate(all="ignore"):
            return prefactor_and_poles(sigma, n)[0]

    conditions = {
        prefactor: np.isfinite,
        _exp: np.isfinite,
        _log: lambda a: np.isfinite(a) & (a > 0),
        _divide: lambda a, b: np.isfinite(a) & np.isfinite(b) & (b != 0),
    }
    for f, condition in conditions.items():
        for args in _kernel_calls(f, a, b):
            real = condition(*np.broadcast_arrays(*args))
            got = f(*args)
            widened = f(*(x.astype(complex) for x in args))
            assert widened.dtype == complex
            if real.all():
                assert got.dtype == np.float64
                assert not np.any(widened.imag)
                if f is _divide:
                    got, widened = got + 0.0, widened.real + 0.0  # -0.0 + 0.0 is +0.0
                assert _bits(got) == _bits(widened.real)
            else:
                assert got.dtype == complex
                assert _bits(got) == _bits(widened)


def test_real_energies_give_exactly_real_symbols_and_roots():
    """Real energies run the round trip in float64, and agree with its complex widening.

    The forward map and the decoder give float64 ``symbols`` and
    ``singularity``, and the driver float64 fields.  The driver on the same
    dataset widened to complex128 gives bit-identical sigma, alpha^2, V0
    and h0, with zero imaginary parts, and H and W1 within 1e-15 of the
    point's largest |H| entry: they differ only by complex dot products and
    QR in place of real ones.
    """
    for seed in range(600, 625):
        for n in (1, 2, 3):
            ds = make_synthetic_pair(seed, n)[1]
            again = SymbolDataset.from_dict(json.loads(canonical_json(ds.to_dict())))
            for d in (ds, again):
                assert d.symbols.dtype == d.singularity.dtype == np.float64
            report = layer_strip_driver(ds)
            assert report.status == "ok"
            fields = ("sigma", "alpha_sq", "v0", "h0", "H", "W1")
            for name in fields:
                assert getattr(report, name).dtype == np.float64, name
            assert all(H.dtype == np.float64 for H, _ in report.kernel_basis)
            widened = layer_strip_driver(
                dataclasses.replace(
                    ds,
                    symbols=ds.symbols.astype(complex),
                    singularity=ds.singularity.astype(complex),
                )
            )
            assert widened.status == "ok"
            for name in fields[:4]:
                got, want = getattr(report, name), getattr(widened, name)
                assert not np.any(np.imag(want)), name
                assert np.real(want).tobytes() == got.tobytes(), name
            assert widened.H.dtype == widened.W1.dtype == complex
            scale = np.max(np.abs(report.H), axis=(-2, -1))
            assert np.all(np.abs(widened.H - report.H) <= 1e-15 * scale[..., None, None])
            assert np.all(np.abs(widened.W1 - report.W1) <= 1e-15 * scale)


@pytest.mark.parametrize(
    "lams",
    [(4 + 0.5j, 5 - 0.25j), (4.0, 5 - 0.25j), (4 + 0.5j, 5.0)],
    ids=["complex", "real-first", "complex-first"],
)
def test_a_complex_energy_keeps_complex128(lams):
    """A complex energy in the pair keeps the symbols, the samples and the roots complex128.

    Read back from a file, the samples of a real first energy are exactly
    real, written as their real parts, and decode as float64.
    """
    h0 = np.diag([2.0, 1.0])
    patch = constant_patch(2, 1.1, 0.4, h0, v1=0.0, h1=0.1 * h0)
    ds = forward_dataset(patch, tuple(ComplexEnergy(lam) for lam in lams))
    assert ds.symbols.dtype == ds.singularity.dtype == complex
    again = SymbolDataset.from_dict(json.loads(canonical_json(ds.to_dict())))
    assert again.symbols.dtype == complex
    assert again.singularity.dtype == (np.float64 if lams[0] == 4.0 else complex)
    report = layer_strip_driver(ds)
    assert report.status == "ok"
    for name in ("sigma", "H", "W1"):
        assert getattr(report, name).dtype == complex, name
    for name in ("alpha_sq", "v0", "h0"):
        assert getattr(report, name).dtype == np.float64, name


def test_sigma_zero_and_scale_validation():
    with pytest.raises(ZeroSymbol):
        recover_sigma_from_symbol(0.0, 1.0, 2.0, 2)
    # a NaN or infinite t is refused up front too, not as a spread or a pole
    for t in (1.0, 0.0, -2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^scale factor t={t} must be finite, positive and != 1$"):
            recover_sigma_from_symbol(1.0, 1.0, t, 2)


def test_sigma_rejects_non_finite_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentData, match="not finite"):
            recover_sigma_from_symbol(math.nan, 1.0 + 0j, 2.0, 2)
        v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
        values = np.full((4, 4, 1), v)
        values[1, 0, 0] = complex(math.inf, 0.0)
        with pytest.raises(
            InconsistentData, match=r"not finite at grid index \(1, 0\), sample \(0,\)$"
        ):
            recover_sigma_from_symbol(values, np.full((4, 4, 1), vt), 2.0, 2)


def test_stages_name_the_first_failing_grid_index():
    """Grid input raises at the first failing index in C order, naming it."""
    v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
    values = np.full((3, 4, 2), v)
    values[2, 0, 0] = 0.0
    values[1, 3, 1] = 0.0
    with pytest.raises(ZeroSymbol, match=r"grid index \(1, 3\), sample \(1,\)$"):
        recover_sigma_from_symbol(values, np.full((3, 4, 2), vt), 2.0, 2)
    # the first failing index wins, even when a later index fails an earlier check
    values = np.full((2, 2, 1), v)
    txi = np.full((2, 2, 1), vt)
    txi[0, 1, 0] = 0.5 * v
    values[1, 0, 0] = 0.0
    with pytest.raises(BranchAmbiguity, match=r"grid index \(0, 1\), sample \(0,\)$"):
        recover_sigma_from_symbol(values, txi, 2.0, 2)

    norms = np.tile([1.0, 1.0, 2**0.5], (2, 3, 1))
    norms[1, 2, 2] = 5.0
    with pytest.raises(NotPositiveDefinite, match=r"grid index \(1, 2\)$"):
        metric_boundary_recovery(norms, 2)

    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    s1 = indicial_root(patch, ComplexEnergy(3j))
    s2 = indicial_root(patch, ComplexEnergy(5j)).copy()
    s2[3, 1] = s1[3, 1]
    with pytest.raises(InconsistentData, match=r"singular at grid index \(3, 1\)$"):
        zeroth_order_recovery(np.stack([s1, s2], axis=-1), _ENERGIES_3J_5J, 2)


def test_sigma_checks_each_point_in_order():
    """The samples of a point share one root: their spread is judged after the
    sample checks and before the peel's, point by point in C order."""
    v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
    values = np.full((2, 2, 3), v)
    txi = np.full((2, 2, 3), vt)
    rec = recover_sigma_from_symbol(values, txi, 2.0, 2)
    assert rec.sigma.shape == rec.spread.values.shape == (2, 2) and rec.norm.shape == (2, 2, 3)
    # at (0, 1) a phase on sample 0 and a root off the others' on sample 1
    values[0, 1, 0] *= np.exp(0.3j)
    txi[0, 1, 0] *= np.exp(0.3j)
    txi[0, 1, 1] *= 1.5
    with pytest.raises(
        InconsistentData,
        match=r"^sigma estimates disagree across covectors \(spread 1\.950e-01\) "
        r"at grid index \(0, 1\)$",
    ):
        recover_sigma_from_symbol(values, txi, 2.0, 2)
    # a zero sample comes before the spread, at any sample of the point
    values[0, 1, 2] = 0.0
    with pytest.raises(ZeroSymbol, match=r"grid index \(0, 1\), sample \(2,\)$"):
        recover_sigma_from_symbol(values, txi, 2.0, 2)
    # an earlier point wins, whichever of its checks fails
    values[0, 0, 2] *= np.exp(0.3j)
    txi[0, 0, 2] *= np.exp(0.3j)
    with pytest.raises(
        InconsistentData, match=r"imaginary part .* at grid index \(0, 0\), sample \(2,\)$"
    ):
        recover_sigma_from_symbol(values, txi, 2.0, 2)


def test_sigma_stage_norms_match_the_per_sample_peel():
    """Peeling once per point, at the mean root, moves each norm by rounding only.

    Rounding here is a root's rounding carried through the peel: a move
    ``d`` of sigma moves ``log |xi|`` by ``d (P'/P + 2 log |xi|) / (2 sigma - n)``,
    with ``P'/P = -2 log 2 - psi(n/2 - sigma) - psi(sigma - n/2)`` the log
    derivative of the Gamma prefactor, which grows near its poles.  The bar
    is 8 ulps of that, per sample.
    """
    cases = []
    for seed in range(600, 625):
        for n in (1, 2, 3):
            cases.append((n, make_synthetic_pair(seed, n)[1]))
    for seed in (29, 31, 37):
        patch, energies, _ = varying_patch(seed=seed)
        cases.append((2, forward_dataset(patch, energies)))
    worst = 0.0
    for n, ds in cases:
        symbols = ds.symbols
        rec = recover_sigma_from_symbol(symbols[..., 0], symbols[..., 1], ds.scale_t, n)
        sigma, norm = per_sample_sigma_and_norm(symbols[..., 0], symbols[..., 1], ds.scale_t, n)
        np.testing.assert_allclose(rec.sigma, sigma.mean(axis=-1), rtol=1e-15, atol=0)
        s = rec.sigma[..., None]
        log_derivative = -2.0 * math.log(2.0) - digamma(n / 2.0 - s) - digamma(s - n / 2.0)
        gain = np.abs(s) * np.abs(log_derivative + 2.0 * np.log(norm)) / np.abs(2.0 * s - n)
        ulps = np.abs(rec.norm / norm - 1.0) / (np.finfo(float).eps * (1.0 + gain))
        worst = max(worst, np.max(ulps))
    assert worst <= 8


def test_sigma_branch_ambiguity():
    # ratio t^(2(sigma - n/2)) with sigma = n/2 - 1/2 sits below the
    # principal half-plane no matter which log branch is used
    with pytest.raises(BranchAmbiguity):
        recover_sigma_from_symbol(1.0, 0.5, 2.0, 2)


def test_sigma_phase_leak_detected():
    """A complex phase on the samples is refused, naming the grid index and sample."""
    v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
    phase = np.exp(0.3j)
    with pytest.raises(InconsistentData, match=r"imaginary part \d\.\d{3}e-0\d above 1e-08"):
        recover_sigma_from_symbol(v * phase, vt * phase, 2.0, 2)
    _, ds = make_synthetic_pair(seed=7, n=2)
    with pytest.raises(
        InconsistentData,
        match=r"^\[stage sigma\] log of the recovered covector norm has imaginary part "
        r"1\.773e-01 above 1e-08: .* at grid index \(0, 0\), sample \(0, 0\)$",
    ):
        layer_strip_driver(dataclasses.replace(ds, symbols=ds.symbols * np.exp(1j)))
    # with 2 Im(sigma) log t past pi the root comes back off the principal log
    # branch, and the peeled prefactor leaves the same trace
    patch = constant_patch(2, 1.0, 0.3, np.diag([2.0, 0.5]))
    ds = forward_dataset(patch, (ComplexEnergy(2 + 3j), ComplexEnergy(1 + 4j)))
    with pytest.raises(InconsistentData, match=r"^\[stage sigma\] log of the recovered"):
        layer_strip_driver(ds)


# -- metric stage -----------------------------------------------------------


def test_metric_identity():
    norms = [1.0, 1.0, math.sqrt(2.0)]
    np.testing.assert_allclose(metric_boundary_recovery(norms, 2), np.eye(2), atol=1e-12)


def test_metric_worked_diagonal():
    # h0 = diag(4, 1): quadratic form values 1/4, 1, 5/4 at e_0, e_1, e_0 + e_1
    norms = [0.5, 1.0, math.sqrt(1.25)]
    got = metric_boundary_recovery(norms, 2)
    np.testing.assert_allclose(got, np.diag([4.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_metric_random_round_trip(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        from scatjet.synthetic import random_spd

        h0 = random_spd(rng, n)
        norms = [math.sqrt(xi @ np.linalg.solve(h0, xi)) for xi in polarization_covectors(n)]
        np.testing.assert_allclose(metric_boundary_recovery(norms, n), h0, atol=1e-10)


def test_metric_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        metric_boundary_recovery([1.0, 1.0, 5.0], 2)
    # a NaN norm gives NaN eigenvalues, which fail the check too
    with pytest.raises(NotPositiveDefinite, match=r"grid index \(1,\)$"):
        metric_boundary_recovery([[1.0, 1.0, 2**0.5], [1.0, math.nan, 2**0.5]], 2)


def test_metric_names_the_one_indefinite_point_of_a_batch():
    """Every other point passes; the refused batch names the one that fails."""
    norms = np.tile([1.0, 1.0, 2**0.5], (3, 4, 2, 1))
    got = metric_boundary_recovery(norms, 2)
    np.testing.assert_allclose(got, np.broadcast_to(np.eye(2), (3, 4, 2, 2, 2)), atol=1e-12)
    norms[2, 1, 1, 2] = 3.0  # |e_0 + e_1|^2 = 9 gives the off-diagonal entry 3.5
    with pytest.raises(
        NotPositiveDefinite,
        match=r"eigenvalues \[-2\.5  4\.5\]; not positive definite "
        r"at grid index \(2, 1\), sample \(1,\)$",
    ):
        metric_boundary_recovery(norms, 2)
    # a NaN at one point of a large batch: the factor is NaN, not an exception
    norms = np.tile([1.0, 1.0, 2**0.5], (6, 5, 1))
    norms[4, 3, 0] = math.nan
    with pytest.raises(NotPositiveDefinite, match=r"\[nan nan\]; .* grid index \(4, 3\)$"):
        metric_boundary_recovery(norms, 2)


def _borderline_norms(rng, count):
    """Norms of 2x2 inverse metrics within rounding of singular, in both directions."""
    out = []
    while len(out) < count:
        v = rng.normal(size=2)
        M = np.outer(v, v) + rng.uniform(-2.0, 2.0) * 1e-16 * np.eye(2)
        sq = np.array([M[0, 0], M[1, 1], M[0, 0] + M[1, 1] + 2.0 * M[0, 1]])
        if np.all(sq >= 0):
            out.append(np.sqrt(sq))
    return np.array(out)


def _refused_alone(norms) -> bool:
    try:
        metric_boundary_recovery(norms, 2)
    except NotPositiveDefinite:
        return True
    return False


def test_metric_verdict_does_not_depend_on_the_batch():
    """Near a singular matrix a point passes or fails as it does alone."""
    # the tests disagree on points like these (on one build of LAPACK: A fails
    # Cholesky with eigenvalues > 0; B passes Cholesky with a 0 one, fails LU)
    a = [float.fromhex(x) for x in ("0x1.7e5180e78d0dfp+0", "0x1.42521e63e874fp+0", "0x1.dffb141d24ca6p-3")]
    b = [float.fromhex(x) for x in ("0x1.2bca6f1cf33bep-1", "0x1.575a2cd8b5b32p+0", "0x1.ed3f64672f511p+0")]
    norms = np.concatenate([[a, b], _borderline_norms(np.random.default_rng(11), 30)]).reshape(4, 8, 3)
    alone = np.array([_refused_alone(norms[idx]) for idx in np.ndindex(4, 8)]).reshape(4, 8)
    assert alone.any() and not alone.all()
    for batch, refused in (
        (norms, alone),
        (norms[:, ::-1], alone[:, ::-1]),
        (np.stack([norms[0, :2], norms[0, 1::-1]]), np.stack([alone[0, :2], alone[0, 1::-1]])),
    ):
        first = tuple(int(k) for k in np.argwhere(refused)[0])
        with pytest.raises(NotPositiveDefinite, match=re.escape(f"at grid index {first}") + "$"):
            metric_boundary_recovery(batch, 2)
    kept = norms[~alone]
    got = metric_boundary_recovery(kept, 2)
    for k in range(len(kept)):
        np.testing.assert_array_equal(got[k], metric_boundary_recovery(kept[k], 2))


def test_metric_refuses_a_squared_norm_past_double_range():
    """Finite norms whose squares overflow: named as such, not as NaN eigenvalues."""
    patch = constant_patch(2, 1.0, 3.0, np.eye(2))
    ds = forward_dataset(patch, (ComplexEnergy(1.00125), ComplexEnergy(1.1)))
    # sigma - n/2 = 0.05 at the first energy: the norms come out near 1e200
    big = dataclasses.replace(ds, symbols=ds.symbols * 1e20)
    with pytest.raises(
        InconsistentData,
        match=r"^\[stage metric\] squared covector norm leaves double range \(norms \[8\.66\d*e\+199 "
        r".*\]\) at grid index \(0, 0\), sample \(0,\)$",
    ):
        layer_strip_driver(big)
    # squares in range whose polarization -(|e_0|^2 + |e_1|^2)/2 is not
    norms = np.tile([1.0, 1.0, 2**0.5], (3, 1))
    norms[1] = [1.3e154, 1.3e154, 1.0]
    with pytest.raises(InconsistentData, match=r"leaves double range .* at grid index \(1,\)$"):
        metric_boundary_recovery(norms, 2)


def test_metric_at_one_dimension_refuses_a_squared_norm_past_double_range():
    """At n = 1 there is no polarized entry: the empty axis passes, a huge norm does not."""
    norms = np.array([[0.5], [2.0], [4.0]])
    np.testing.assert_array_equal(metric_boundary_recovery(norms, 1), [[[4.0]], [[0.25]], [[0.0625]]])
    norms[1] = 1e200
    with pytest.raises(
        InconsistentData,
        match=r"^squared covector norm leaves double range \(norms \[1\.e\+200\]\) "
        r"at grid index \(1,\)$",
    ):
        metric_boundary_recovery(norms, 1)
    # through the driver: sigma - n/2 = 0.05 at the first energy, as at n = 2
    patch = constant_patch(1, 1.0, 1.5, np.eye(1))
    ds = forward_dataset(patch, (ComplexEnergy(1.00125), ComplexEnergy(1.1)))
    report = layer_strip_driver(ds)
    assert report.status == "ok"
    np.testing.assert_allclose(report.h0, np.ones((4, 1, 1)), rtol=1e-12)
    big = dataclasses.replace(ds, symbols=ds.symbols * 1e20)
    with pytest.raises(
        InconsistentData,
        match=r"^\[stage metric\] squared covector norm leaves double range \(norms \[8\.66\d*e\+199\]\) "
        r"at grid index \(0,\), sample \(0,\)$",
    ):
        layer_strip_driver(big)


def test_metric_refuses_a_negative_norm():
    """A norm of -1 squares to the metric of +1: refused by name, before polarization."""
    norms = np.tile([1.0, 1.0, 2**0.5], (4, 4, 1))
    norms[2, 3, 1] = -1.0
    with pytest.raises(
        InconsistentData,
        match=r"^recovered covector norm -1\.0 is negative at grid index \(2, 3\), sample \(1,\)$",
    ):
        metric_boundary_recovery(norms, 2)
    # before the range check of the same point, and at n = 1
    norms[2, 3, 2] = 1e200
    with pytest.raises(InconsistentData, match=r"norm -1\.0 is negative at grid index \(2, 3\)"):
        metric_boundary_recovery(norms, 2)
    with pytest.raises(
        InconsistentData,
        match=r"^recovered covector norm -1\.0 is negative at grid index \(1,\), sample \(0,\)$",
    ):
        metric_boundary_recovery([[2.0], [-1.0]], 1)
    # -0.0 is not negative: its zero square is refused as not positive definite
    with pytest.raises(NotPositiveDefinite, match=r"grid index \(0,\)$"):
        metric_boundary_recovery([[-0.0], [1.0]], 1)


def test_metric_missing_sample():
    """Norms come as a (..., C) array; a missing covector is a shape error."""
    with pytest.raises(ValueError, match=r"last axis of length 3 for n=2, got shape \(2,\)"):
        metric_boundary_recovery([1.0, 1.0], 2)


# -- zeroth-order algebra ---------------------------------------------------


_ENERGIES_3J_5J = (ComplexEnergy(3j), ComplexEnergy(5j))


def test_two_energy_worked_example():
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    sigma = [indicial_root(patch, en)[0, 0] for en in _ENERGIES_3J_5J]
    a2, v0, misfit = zeroth_order_recovery(sigma, _ENERGIES_3J_5J, 2)
    assert a2 == pytest.approx(1.69, abs=1e-12)
    assert v0 == pytest.approx(0.7, abs=1e-12)
    assert misfit.values <= 1e-12


def test_two_energy_degenerate():
    """Real lambda^2 that coincide leave the alpha^2 column zero: the system is singular."""
    # roots that differ at one real lambda^2 = -9 leave only alpha^2 = 0 to fit them
    with pytest.raises(
        InconsistentData,
        match=r"^lambda\^2 are real and coincide, yet the indicial products sigma \(n - sigma\) "
        r"differ: no alpha\^2 > 0 fits$",
    ):
        zeroth_order_recovery([2.0, 2.5], (ComplexEnergy(3j), ComplexEnergy(-3j)), 2)
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    energies = (ComplexEnergy(3j), ComplexEnergy(-3j))  # lambda^2 = -9 twice
    sigma = np.stack([indicial_root(patch, en) for en in energies], axis=-1)
    singular = r"^indicial products sigma \(n - sigma\) are real and coincide; system is singular"
    with pytest.raises(InconsistentData, match=singular + r" at grid index \(0, 0\)$"):
        zeroth_order_recovery(sigma, energies, 2)
    # one real energy cannot give alpha^2
    with pytest.raises(InconsistentData, match=singular + "$"):
        zeroth_order_recovery([2.0], (ComplexEnergy(3j),), 2)


@pytest.mark.parametrize("lams", [(4 + 0.5j, 4 + 0.5j), (2 + 1.5j,)], ids=["coinciding", "one"])
def test_zeroth_order_solves_complex_lambda_sq_from_the_imaginary_rows(lams):
    """Complex lambda^2, coinciding or alone, determine alpha^2 and V0 by their imaginary parts."""
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    energies = tuple(ComplexEnergy(lam) for lam in lams)
    sigma = np.stack([indicial_root(patch, en) for en in energies], axis=-1)
    a2, v0, misfit = zeroth_order_recovery(sigma, energies, 2)
    np.testing.assert_allclose(a2, 1.69, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v0, 0.7, rtol=0, atol=1e-12)
    assert np.max(misfit.values) <= 1e-14


def test_two_energy_singular_system():
    with pytest.raises(InconsistentData, match="coincide"):
        zeroth_order_recovery([2.0, 2.0], _ENERGIES_3J_5J, 2)


def test_two_energy_realness_enforced():
    with pytest.raises(InconsistentData, match="^no real alpha"):
        zeroth_order_recovery([2.0 + 0.1j, 3.0], _ENERGIES_3J_5J, 2)


def test_two_energy_rejects_negative_alpha_sq():
    # swapping the energies against the roots flips the sign of alpha^2
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    s1, s2 = (indicial_root(patch, en)[0, 0] for en in _ENERGIES_3J_5J)
    with pytest.raises(InconsistentData, match="positive"):
        zeroth_order_recovery([s2, s1], _ENERGIES_3J_5J, 2)


def test_zeroth_order_matches_the_two_energy_formula():
    """Over two energies the fit is the Cramer solution of the pair of identities."""
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    energies = (ComplexEnergy(4.0), ComplexEnergy(2.0 + 1.5j))
    s1, s2 = (indicial_root(patch, en) for en in energies)
    a2, v0, misfit = zeroth_order_recovery(np.stack([s1, s2], axis=-1), energies, 2)
    p1, p2 = s1 * (2 - s1), s2 * (2 - s2)
    (l1, l2) = (en.lam_sq for en in energies)
    cramer = (l2 - l1) / (p1 - p2)
    np.testing.assert_allclose(a2, cramer.real, rtol=1e-13)
    np.testing.assert_allclose(v0, (l1 + 1 + cramer * p1).real, rtol=0, atol=1e-12)
    assert a2.dtype == v0.dtype == misfit.values.dtype == np.float64
    assert np.max(misfit.values) <= 1e-14


def test_zeroth_order_with_a_known_alpha_sq_fits_v0_alone():
    """A known alpha^2 drops its column: V0 comes from any number of energies."""
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    energies = (ComplexEnergy(4.0), ComplexEnergy(5.0), ComplexEnergy(2.0 + 1.5j))
    sigma = np.stack([indicial_root(patch, en) for en in energies], axis=-1)
    a2, v0, misfit = zeroth_order_recovery(sigma, energies, 2, alpha_sq=1.69)
    np.testing.assert_array_equal(a2, 1.69)
    np.testing.assert_allclose(v0, 0.7, rtol=0, atol=1e-12)
    assert np.max(misfit.values) <= 1e-14
    # coinciding energies are no obstacle when alpha^2 is known
    a2, v0, _ = zeroth_order_recovery(sigma[..., [0, 0]], energies[:1] * 2, 2, alpha_sq=1.69)
    np.testing.assert_allclose(v0, 0.7, rtol=0, atol=1e-12)
    with pytest.raises(
        InconsistentData,
        match=r"^no real alpha\^2 and V0 fit the indicial identities: misfit 9\.615e-01 "
        r"above 1e-08 .* = 2\.600e\+01 at grid index \(0, 0\)$",
    ):
        zeroth_order_recovery(sigma, energies, 2, alpha_sq=3 * 1.69)


def test_zeroth_order_refuses_a_root_axis_that_misses_an_energy():
    with pytest.raises(ValueError, match=r"last axis of 2 energies, got \(3,\)"):
        zeroth_order_recovery([2.0, 2.5, 3.0], _ENERGIES_3J_5J, 2)


# -- first-order fit --------------------------------------------------------


def _samples(H, W1, h0, alpha, sigma, t1, t2, probes=None):
    """``(values, probes)``: the forward model's samples at one point.

    They are read at the first point of a constant patch whose first-order
    jets are ``h^(1) = h0 H h0`` and ``V^(1) = W1``.
    """
    n = H.shape[0]
    patch = constant_patch(n, alpha, 0.0, h0, v1=W1, h1=h0 @ H @ h0)
    probes = default_probe_set(n) if probes is None else probes
    return singularity_coefficient(patch, sigma, t1, t2, probes)[(0,) * n], probes


def test_first_order_zero_data():
    samples = _samples(np.zeros((2, 2)), 0.0, np.eye(2), 1.0, 2.3, 1.0, 1.0)
    res = first_order_recovery(*samples, 2.3, 1.0, 1.0, 1.0, np.eye(2))
    assert np.max(np.abs(res.H)) <= 1e-12
    assert abs(res.W1) <= 1e-12
    assert res.residual <= 1e-12


def test_first_order_traceless_exact():
    H = np.diag([1.0, -1.0])
    h0 = np.diag([4.0, 1.0])
    samples = _samples(H, 0.0, h0, 1.2, 2.4, 1.0, 1.0)
    res = first_order_recovery(*samples, 2.4, 1.0, 1.0, 1.2**2, h0)
    np.testing.assert_allclose(res.H, H, atol=1e-8)
    assert abs(res.W1) <= 1e-8
    assert res.residual <= 1e-10
    assert res.design_rank == 3  # 4 unknowns, one structural kernel direction
    assert len(res.kernel_basis()) == 1


def test_first_order_kernel_direction():
    """The unresolved direction is (identity, constant) with the fixed slope."""
    sigma, t1, t2, alpha, n = 2.4, 1.0 + 0.0j, 1.0 + 0.0j, 1.2, 2
    h0 = np.diag([4.0, 1.0])
    samples = _samples(np.diag([1.0, -1.0]), 0.0, h0, alpha, sigma, t1, t2)
    res = first_order_recovery(*samples, sigma, t1, t2, alpha**2, h0)
    Hk, Wk = res.kernel_basis()[0]
    # H-part proportional to the identity ...
    off = Hk - np.trace(Hk) / n * np.eye(n)
    assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(Hk))
    # ... with the trade-off slope that cancels every design row
    w_star = alpha**2 * (1.0 - n) * np.trace(h0) / 4.0 - (t1 / t2) * (
        3.0 - 2 * sigma
    ) * (n + 1 - 2 * sigma)
    ratio = Wk / Hk[0, 0]
    assert ratio == pytest.approx(w_star, abs=1e-8)


def test_first_order_nonzero_w_hits_projection():
    """With W != 0 the truth has a kernel component; the fit returns the
    minimum-norm representative, which differs from the truth exactly along
    the kernel direction while still matching the data."""
    H = np.diag([1.0, -1.0])
    h0 = np.eye(2)
    samples = _samples(H, 0.7, h0, 1.0, 2.4, 1.0, 1.0)
    res = first_order_recovery(*samples, 2.4, 1.0, 1.0, 1.0, h0)
    assert res.residual <= 1e-10  # data still fit perfectly
    dH = res.H - H
    dW = res.W1 - 0.7
    assert abs(dW) > 1e-3  # genuinely not the truth
    Hk, Wk = res.kernel_basis()[0]
    scale = dW / Wk
    np.testing.assert_allclose(dH, scale * Hk, atol=1e-8)


def test_first_order_probe_rotation_invariance():
    H = np.array([[0.4, 0.3], [0.3, -0.4]])
    h0 = np.eye(2)
    theta = 0.37
    c, s = math.cos(theta), math.sin(theta)
    base = default_probe_set(2)
    rotated = base @ np.array([[c, s], [-s, c]])  # each probe w becomes R(theta) w
    results = []
    for probes in (base, rotated):
        samples = _samples(H, 0.0, h0, 1.0, 2.4, 1.0, 1.0, probes=probes)
        results.append(first_order_recovery(*samples, 2.4, 1.0, 1.0, 1.0, h0))
    np.testing.assert_allclose(results[0].H, results[1].H, atol=1e-8)
    assert abs(results[0].W1 - results[1].W1) <= 1e-8


def test_first_order_zero_factor():
    samples = _samples(np.zeros((2, 2)), 0.0, np.eye(2), 1.0, 2.3, 1.0, 1.0)
    with pytest.raises(ZeroIntegralFactor):
        first_order_recovery(*samples, 2.3, 0.0, 1.0, 1.0, np.eye(2))


def test_first_order_n1_rank():
    samples = _samples(np.array([[0.0]]), 0.0, np.eye(1), 1.0, 2.1, 1.0, 1.0)
    res = first_order_recovery(*samples, 2.1, 1.0, 1.0, 1.0, np.eye(1))
    assert res.design_rank == 1  # 2 unknowns collapse onto one usable direction


def test_first_order_n1_kernel_direction():
    """With fewer probes than unknowns the kernel holds the one unresolved direction."""
    sigma, t1, t2 = 2.1, 0.9 + 0.2j, 1.3 - 0.1j
    samples = _samples(np.array([[0.4]]), 0.0, np.eye(1), 1.0, sigma, t1, t2)
    res = first_order_recovery(*samples, sigma, t1, t2, 1.0, np.eye(1))
    assert res.kernel.shape == (1, 2)
    (Hk, Wk), = res.kernel_basis()
    # at n = 1 a design row is t1 H D + t2 W, with D = (3 - 2 sigma)(2 - 2 sigma)
    slope = -(t1 / t2) * (3 - 2 * sigma) * (2 - 2 * sigma)
    assert Wk / Hk[0, 0] == pytest.approx(slope, abs=1e-12)


def test_first_order_grid_matches_each_point():
    """One call over a varying grid equals the one-point fit at every point."""
    patch, energies, _ = varying_patch(seed=29)
    ds = forward_dataset(patch, energies, t_pair=(0.9 + 0.2j, 1.3 - 0.1j))
    sigma = indicial_root(patch, energies[0])
    alpha_sq = patch.alpha**2
    h0 = patch.h_jet[0]
    args = (0.9 + 0.2j, 1.3 - 0.1j)
    grid = first_order_recovery(ds.singularity, ds.probes, sigma, *args, alpha_sq, h0)
    assert grid.H.shape == (5, 6, 2, 2) and grid.design_rank == 3
    for idx in np.ndindex(5, 6):
        one = first_order_recovery(
            ds.singularity[idx], ds.probes, sigma[idx], *args, alpha_sq[idx], h0[idx]
        )
        for name in ("H", "W1", "residual"):
            np.testing.assert_allclose(
                getattr(grid, name)[idx], getattr(one, name), rtol=1e-12, atol=1e-14
            )
        assert one.design_rank == 3
        for (Hg, Wg), (H1, W1) in zip(grid.kernel_basis(idx), one.kernel_basis(), strict=True):
            np.testing.assert_array_equal(Hg, H1)
            assert Wg == W1
    with pytest.raises(ValueError, match=r"^omega: expected an array of shape \(P, 2\) with P >= 1"):
        first_order_recovery(ds.singularity, ds.probes[:, :1], sigma, *args, alpha_sq, h0)


@pytest.mark.parametrize("sigma", [1.5, 0.5])
def test_first_order_refuses_a_vanishing_profile_factor(sigma):
    """Where (3-2 sigma)(1-2 sigma) vanishes the probes do not see the traceless
    part of H: the fit refuses, naming the point, instead of returning a wrong H."""
    H, h0, alpha = np.diag([1.0, -1.0]), np.diag([4.0, 1.0]), 1.2
    values, probes = _samples(H, 0.0, h0, alpha, sigma, 1.0, 1.0)
    grid_sigma = np.full((2, 3), 2.4)
    grid_sigma[1, 2] = sigma
    with pytest.raises(
        InconsistentData,
        match=rf"= 0\.000e\+00 at sigma = \({sigma}\+0j\) is at most 1e-10 .* "
        r"traceless part of H at grid index \(1, 2\)$",
    ):
        first_order_recovery(
            np.broadcast_to(values, (2, 3, len(probes))), probes, grid_sigma, 1.0, 1.0, alpha**2, h0
        )
    # just off the vanishing factor the fit still recovers H
    near = sigma + 1e-9
    samples = _samples(H, 0.0, h0, alpha, near, 1.0, 1.0)
    res = first_order_recovery(*samples, near, 1.0, 1.0, alpha**2, h0)
    np.testing.assert_allclose(res.H, H, atol=1e-6)
    assert res.residual <= 1e-12


def _assert_matches_svd_oracle(values, probes, sigma, t1, t2, alpha_sq, h0):
    """The factored fit equals the per-point SVD fit of ``tests/oracles.py``.

    ``H`` and ``W1`` agree within 1e-12 of their largest entry, the residual
    within 1e-12 of the largest sample; the rank is equal at every point and
    the kernel bases span one subspace (their projectors agree within 1e-12).
    """
    args = (values, probes, sigma, t1, t2, alpha_sq, h0)
    new, old = first_order_recovery(*args), first_order_svd_fit(*args)
    scale = max(np.max(np.abs(old.H)), np.max(np.abs(old.W1)))
    np.testing.assert_allclose(new.H, old.H, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(new.W1, old.W1, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        new.residual, old.residual, rtol=0, atol=1e-12 * np.max(np.abs(values))
    )
    assert np.all(old.design_rank == new.design_rank)
    for idx in np.ndindex(*new.residual.shape):
        K_new, K_old = new.kernel[idx], old.kernel(idx)
        np.testing.assert_allclose(K_new.T @ K_new.conj(), K_old.T @ K_old.conj(), atol=1e-12)


def test_first_order_matches_svd_oracle_on_seeded_data():
    for seed in [*range(600, 625), 701, 702, 703]:
        for n in (1, 2, 3):
            _, ds = make_synthetic_pair(seed, n)
            report = layer_strip_driver(ds)
            _assert_matches_svd_oracle(
                ds.singularity,
                ds.probes,
                report.sigma[..., 0],
                *ds.t_pair,
                report.alpha_sq,
                report.h0,
            )
    for seed in (29, 31, 37):
        for t_pair in ((1.0, 1.0), (0.9 + 0.2j, 1.3 - 0.1j)):
            patch, energies, _ = varying_patch(seed=seed)
            ds = forward_dataset(patch, energies, t_pair=t_pair)
            sigma = indicial_root(patch, energies[0])
            _assert_matches_svd_oracle(
                ds.singularity, ds.probes, sigma, *t_pair, patch.alpha**2, patch.h_jet[0]
            )


def _random_first_order_case(rng, n, P, repeat):
    """Random complex samples, sigma, t1 and t2 at three points, with ``P`` random
    unit probes; with ``repeat`` every probe is +-the first, so the probe matrix has rank 1."""
    probes = rng.normal(size=(P, n))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    if repeat:
        probes = probes[:1] * rng.choice([-1.0, 1.0], size=(P, 1))
    q = rng.normal(size=(3, n, n))
    return (
        rng.normal(size=(3, P)) + 1j * rng.normal(size=(3, P)),
        probes,
        rng.uniform(1.6, 4.0, size=3) + 1j * rng.uniform(-1.0, 1.0, size=3),
        complex(*rng.normal(size=2)),
        complex(*rng.normal(size=2)),
        rng.uniform(0.3, 3.0, size=3),
        q @ np.swapaxes(q, -1, -2) + np.eye(n),
    )


def test_first_order_matches_svd_oracle_on_random_cases():
    rng = np.random.default_rng(2024)
    seen = set()
    for case in range(120):
        n = case % 3 + 1
        k = n * (n + 1) // 2 + 1
        P = int(rng.integers(1, n * n + 3))
        repeat = P > 1 and case % 4 == 0
        args = _random_first_order_case(rng, n, P, repeat)
        _assert_matches_svd_oracle(*args)
        seen.add(("P<k" if P < k else "P>k" if P > k else "P=k", repeat))
    assert {("P<k", False), ("P>k", False), ("P<k", True), ("P>k", True)} <= seen


def test_first_order_design_factors_as_probe_matrix_times_triangular_map():
    """``M T`` is the design the forward model's Hessian profile gives, to rounding."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for probes in (default_probe_set(n), _random_first_order_case(rng, n, 5, False)[1]):
            _, _, sigma, t1, t2, alpha_sq, h0 = _random_first_order_case(rng, n, 1, False)
            M, a, _, e = first_order_factors(probes, sigma, t1, t2, alpha_sq, h0)
            k = M.shape[1]
            T = np.zeros((3, k, k), dtype=complex)
            T[:, :-1, :-1] = a[:, None, None] * np.eye(k - 1)
            T[:, -1, :-1] = e
            T[:, -1, -1] = t2
            A = first_order_design(probes, sigma, t1, t2, alpha_sq, h0)
            np.testing.assert_allclose(M @ T, A, rtol=0, atol=1e-14 * np.max(np.abs(A)))


# -- full driver ------------------------------------------------------------


def test_driver_round_trip():
    truth, ds = make_synthetic_pair(seed=11, n=2)
    report = layer_strip_driver(ds)
    assert report.status == "ok"
    np.testing.assert_allclose(report.h0[0, 0], truth.h0, atol=1e-8)
    np.testing.assert_allclose(report.alpha_sq, truth.alpha_sq, atol=1e-8)
    np.testing.assert_allclose(report.v0, truth.v0, atol=1e-8)
    np.testing.assert_allclose(report.H[0, 0], truth.H, atol=1e-8)
    assert np.max(np.abs(report.W1)) <= 1e-8
    assert report.residuals["sigma_consistency"]["worst"] <= 1e-8
    assert report.residuals["h0_cross_energy"]["worst"] <= 1e-8
    assert any("jets of order" in note for note in report.notes)


def test_driver_single_energy_partial():
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(4.0),))
    report = layer_strip_driver(ds)
    assert report.status.startswith("partial")
    assert report.h0 is not None and report.alpha_sq is None
    # the screen needs alpha^2, so with one energy and no known alpha^2 it cannot run
    assert "admissibility screen not run: alpha^2 is unknown" in report.notes


def test_driver_single_energy_with_known_alpha():
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(4.0),))
    report = layer_strip_driver(ds, alpha_sq_known=1.1**2)
    assert report.status == "ok"
    np.testing.assert_allclose(report.v0, 0.4, atol=1e-8)
    assert any("a priori" in note for note in report.notes)


def test_driver_known_alpha_checks_realness():
    """A wrong known alpha^2 at a complex energy leaves the imaginary row unfit: refused."""
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(3 + 0.5j),))
    report = layer_strip_driver(ds, alpha_sq_known=1.1**2)
    np.testing.assert_allclose(report.v0, 0.4, atol=1e-8)
    assert report.residuals["zeroth_order_misfit"]["worst"] <= 1e-12
    with pytest.raises(
        InconsistentData,
        match=r"\[stage zeroth-order\] no real alpha\^2 and V0 fit the indicial identities: "
        r"misfit 1\.920e-01 above 1e-08 times max\(1, \|lambda\^2 \+ n\^2/4\|\) = 1\.020e\+01 "
        r"at grid index \(0, 0\)$",
    ):
        layer_strip_driver(ds, alpha_sq_known=2.0)


def test_driver_known_alpha_with_two_energies():
    """A known alpha^2 fits V0 over every energy; a wrong one leaves a misfit."""
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(4.0), ComplexEnergy(5.0)))
    report = layer_strip_driver(ds, alpha_sq_known=1.1**2)
    assert report.status == "ok"
    np.testing.assert_array_equal(report.alpha_sq, 1.1**2)
    np.testing.assert_allclose(report.v0, 0.4, rtol=0, atol=1e-12)
    assert report.residuals["zeroth_order_misfit"]["worst"] <= 1e-14
    with pytest.raises(
        InconsistentData, match=r"^\[stage zeroth-order\] no real alpha\^2 and V0 fit"
    ):
        layer_strip_driver(ds, alpha_sq_known=3.0 * 1.1**2)


def _three_energy_dataset(v0_last):
    """Energies 4, 4.5 and 5 from alpha = 1.1, h0 = diag(2, 1) and V0 = 0.3, the
    last energy's symbols from the same patch with V0 = ``v0_last``."""
    energies = (ComplexEnergy(4.0), ComplexEnergy(4.5), ComplexEnergy(5.0))
    h0 = np.diag([2.0, 1.0])
    ds = forward_dataset(constant_patch(2, 1.1, 0.3, h0), energies)
    last = forward_dataset(constant_patch(2, 1.1, v0_last, h0), energies)
    return dataclasses.replace(
        ds, symbols=np.concatenate([ds.symbols[:, :, :2], last.symbols[:, :, 2:]], 2)
    )


def test_driver_refuses_an_energy_that_contradicts_the_others():
    """Every energy enters the zeroth-order fit: a third energy from another V0 is refused."""
    with pytest.raises(
        InconsistentData,
        match=r"^\[stage zeroth-order\] no real alpha\^2 and V0 fit the indicial identities: "
        r"misfit \d\.\d{3}e-03 above 1e-08 .* at grid index \(0, 0\)$",
    ):
        layer_strip_driver(_three_energy_dataset(0.9))


def test_driver_fits_three_consistent_energies():
    report = layer_strip_driver(_three_energy_dataset(0.3))
    assert report.status == "ok", report.notes
    np.testing.assert_allclose(report.alpha_sq, 1.1**2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.v0, 0.3, rtol=0, atol=1e-12)
    h0 = np.broadcast_to(np.diag([2.0, 1.0]), report.h0.shape)
    np.testing.assert_allclose(report.h0, h0, rtol=0, atol=1e-12)
    assert report.residuals["zeroth_order_misfit"]["worst"] <= 1e-14


def test_driver_reports_sigma_at_every_energy():
    """A third energy's roots are reported, not dropped: ``sigma`` is one (*grid, E) field."""
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    energies = tuple(ComplexEnergy(lam) for lam in (3.5, 4.5, 5.5))
    report = layer_strip_driver(forward_dataset(patch, energies))
    assert report.status == "ok", report.notes
    assert report.sigma.shape == (4, 4, 3)
    for e, en in enumerate(energies):
        want = indicial_root(patch, en)
        np.testing.assert_allclose(report.sigma[..., e], want, rtol=0, atol=1e-12)


def test_driver_residuals_name_where_their_worst_value_sits():
    """Each residual reports its largest value, that value's grid index and sample, and
    the bound there: a nudge to one symbol of energy 1 shows in the sigma spread and the
    metric gap at that point, well inside both bounds."""
    _, ds = make_synthetic_pair(seed=7, n=2)
    symbols = ds.symbols.copy()
    symbols[2, 3, 1, 0, 1] *= 1 + 1e-9
    report = layer_strip_driver(dataclasses.replace(ds, symbols=symbols))
    assert report.status == "ok", report.notes
    assert sorted(report.residuals) == [
        "first_order_fit", "h0_cross_energy", "sigma_consistency", "sigma_phase",
        "zeroth_order_misfit",
    ]
    for name in ("sigma_consistency", "h0_cross_energy"):
        record = report.residuals[name]
        assert (record["grid_index"], record["sample"]) == ((2, 3), (1,)), name
        assert 0 < record["worst"] <= record["bound"], name
    assert report.residuals["sigma_consistency"]["bound"] == 1e-6
    assert report.residuals["sigma_phase"]["sample"] == (0, 0)
    assert report.residuals["first_order_fit"]["sample"] == ()
    # the JSON report writes each record as an object, its indices as lists
    written = json.loads(canonical_json(report.to_dict()))["residuals"]["h0_cross_energy"]
    assert written["grid_index"] == [2, 3] and written["sample"] == [1]
    assert written["worst"] == report.residuals["h0_cross_energy"]["worst"]


def test_driver_judges_the_metric_gap_at_one_energy():
    """At one energy the metric gap is built and judged too, and reads 0 everywhere."""
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    report = layer_strip_driver(forward_dataset(patch, (ComplexEnergy(4.0),)))
    assert report.status.startswith("partial") and report.sigma.shape == (4, 4, 1)
    assert sorted(report.residuals) == ["h0_cross_energy", "sigma_consistency", "sigma_phase"]
    assert report.residuals["h0_cross_energy"]["worst"] == 0.0


def test_driver_refuses_inadmissible_energy():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    # lambda^2 = -2 is a mode value for this patch, so the screen trips
    ds = forward_dataset(patch, (ComplexEnergy(1j * math.sqrt(2.0)), ComplexEnergy(4.0)))
    with pytest.raises(ExceptionalEnergy, match=r"^\[stage screen\] energy "):
        layer_strip_driver(ds)


def test_driver_screens_one_energy_on_a_known_alpha():
    """With alpha^2 known, the screen runs on one energy: lambda^2 = -2 is a mode value."""
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    ds = forward_dataset(patch, (ComplexEnergy(1j * math.sqrt(2.0)),))
    with pytest.raises(ExceptionalEnergy) as exc:
        layer_strip_driver(ds, alpha_sq_known=1.0)
    message = str(exc.value)
    assert message.startswith("[stage screen] energy ") and "of omega-prime-mode" in message


# alpha = 1, V0 = 10 at n = 2: mode_k = 8 + k^2/4, so the cut is lambda^2 < 8 and the
# Gamma poles (even k) sit at 8, 9, 12, 17, ...
_MODE_PATCH = (2, 1.0, 10.0, np.eye(2))


def test_driver_admits_a_regular_energy_between_modes():
    """lambda^2 = 10 lies 0.25 from mode 3; the bounding-interval screen refused it."""
    patch = constant_patch(*_MODE_PATCH)
    ds = forward_dataset(patch, (ComplexEnergy(math.sqrt(10.0)), ComplexEnergy(math.sqrt(11.0))))
    report = layer_strip_driver(ds)
    assert report.status == "ok", report.notes
    np.testing.assert_allclose(report.v0, 10.0, atol=1e-8)


def test_driver_refuses_an_energy_next_to_a_high_order_pole():
    """lambda^2 = 12 + 1e-7 is 1e-7 from the Gamma pole of mode 4, which k <= 2 never saw.

    The screen stage raises with the reason of
    :func:`~scatjet.spectral_sets.is_admissible` on the recovered fields, led
    by the stage's name.
    """
    patch = constant_patch(*_MODE_PATCH)
    energies = (ComplexEnergy(math.sqrt(12.0 + 1e-7)), ComplexEnergy(math.sqrt(11.0)))
    ds = forward_dataset(patch, energies)
    with pytest.raises(ExceptionalEnergy) as exc:
        layer_strip_driver(ds)
    assert str(exc.value) == (
        f"[stage screen] energy {complex(math.sqrt(12.0 + 1e-7))}: lambda^2 within margin "
        "1e-06 of omega-prime-mode k = 4 at grid index (0, 0) (distance 1.000e-07)"
    )
    assert isinstance(exc.value.__cause__, ExceptionalEnergy)


def test_driver_screens_at_the_margin_it_is_given():
    """lambda^2 = 10 lies 0.25 from mode 3: admitted at margin 0.2, refused at 0.3."""
    patch = constant_patch(*_MODE_PATCH)
    ds = forward_dataset(patch, (ComplexEnergy(math.sqrt(10.0)), ComplexEnergy(math.sqrt(11.0))))
    assert layer_strip_driver(ds, margin=0.2).status == "ok"
    with pytest.raises(
        ExceptionalEnergy,
        match=r"^\[stage screen\] energy \(3\.1622776601683795\+0j\): lambda\^2 within "
        r"margin 0\.3 of omega-prime-mode k = 3 at grid index \(0, 0\) \(distance 2\.500e-01\)$",
    ):
        layer_strip_driver(ds, margin=0.3)


@pytest.mark.parametrize(
    "margin", [float("nan"), -1.0, float("inf")], ids=["nan", "negative", "inf"]
)
@pytest.mark.parametrize("energies", [2, 1], ids=["two-energies", "one-energy"])
def test_driver_refuses_a_bad_margin_before_any_stage(margin, energies):
    """A NaN, negative or infinite margin is a ConfigError at entry, led by no
    stage, also with one energy and alpha^2 unknown, where the screen never runs."""
    if energies == 2:
        _, ds = make_synthetic_pair(3, 2)
    else:
        patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
        ds = forward_dataset(patch, (ComplexEnergy(4.0),))
        assert layer_strip_driver(ds).status.startswith("partial")
    with pytest.raises(ConfigError, match=rf"^margin={margin} must be finite and >= 0$"):
        layer_strip_driver(ds, margin=margin)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_screen_on_recovered_fields_matches_the_truths_set(n):
    """The set the driver builds from its recovered alpha^2 and V0 is the truth's set.

    Modes and interval agree to 1e-12, and every energy of the dataset gets
    the verdict the truth's set gives it, at both margins.
    """
    for seed in range(600, 605):
        truth, ds = make_synthetic_pair(seed, n)
        report = layer_strip_driver(ds)
        assert report.status == "ok"
        recovered = exceptional_set(report.alpha_sq, report.v0, n)
        a2 = np.full(ds.grid_shape, np.float_power(truth.alpha, 2))
        true = exceptional_set(a2, np.full(ds.grid_shape, truth.v0), n)
        np.testing.assert_allclose(
            recovered.interval_lambda_sq, true.interval_lambda_sq, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            recovered.modes_lambda_sq, true.modes_lambda_sq, rtol=0, atol=1e-12
        )
        for en in ds.energies:
            for margin in (1e-6, 1e-3):
                assert (
                    is_admissible(en, recovered, margin).ok == is_admissible(en, true, margin).ok
                )


def _with_symbol(ds, index, value):
    """``ds`` with one symbol sample replaced (datasets are read-only), widened to
    complex for a complex ``value``."""
    symbols = np.array(ds.symbols, dtype=np.result_type(ds.symbols, np.asarray(value)))
    symbols[index] = value
    return dataclasses.replace(ds, symbols=symbols)


def test_driver_stage_labels_on_failure():
    truth, ds = make_synthetic_pair(seed=3, n=2)
    bad = _with_symbol(ds, (0, 0, 0, 0), [0j, 0j])
    with pytest.raises(ZeroSymbol, match=r"\[stage sigma\].*grid index \(0, 0\)"):
        layer_strip_driver(bad)
    # the sample names the energy and the covector
    bad = _with_symbol(ds, (2, 3, 1, 1), [0j, 0j])
    with pytest.raises(ZeroSymbol, match=r"grid index \(2, 3\), sample \(1, 1\)$"):
        layer_strip_driver(bad)


@pytest.mark.parametrize("with_first_order", [False, True])
def test_driver_refuses_non_finite_norm(with_first_order):
    """Finite but huge samples overflow the norm: an error, not a NaN report."""
    _, ds = make_synthetic_pair(seed=3, n=2)
    if not with_first_order:
        ds = dataclasses.replace(ds, singularity=None, probes=None, t_pair=None)
    big = dataclasses.replace(ds, symbols=ds.symbols * 1e308)
    with pytest.raises(
        InconsistentData,
        match=r"\[stage sigma\] recovered covector norm nan is not finite "
        r"at grid index \(0, 0\), sample \(0, 0\)$",
    ):
        layer_strip_driver(big)


def test_driver_refuses_a_fit_past_double_range():
    """Finite singularity samples whose fit overflows: refused at the point, no raw warning."""
    _, ds = make_synthetic_pair(seed=3, n=2)
    huge = dataclasses.replace(ds, singularity=np.full_like(ds.singularity, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            InconsistentData,
            match=r"^\[stage first-order\] fitted H, W1 or fit residual leaves double range "
            r"\(residual inf\) at grid index \(0, 0\)$",
        ):
            layer_strip_driver(huge)


def test_driver_names_the_stage_of_a_linalg_failure(monkeypatch):
    _, ds = make_synthetic_pair(seed=3, n=2)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(
        InconsistentData, match=r"^\[stage first-order\] linear algebra failed: SVD did not"
    ):
        layer_strip_driver(ds)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_makes_no_lapack_cholesky_call(monkeypatch, n):
    """h0 and the recovered inverse metrics are factored entry-wise, never by LAPACK per matrix."""

    def fail(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    truth, ds = make_synthetic_pair(seed=5, n=n)
    report = layer_strip_driver(ds)
    assert report.status == "ok"
    assert np.max(np.abs(report.h0 - truth.h0)) <= 1e-8


def test_driver_checks_the_metric_at_every_energy():
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    energies = tuple(ComplexEnergy(lam) for lam in (4.0, 5.0, 5.5))
    ds = forward_dataset(patch, energies)
    report = layer_strip_driver(ds)
    assert report.status == "ok" and report.residuals["h0_cross_energy"]["worst"] <= 1e-12
    # scaling both samples of one pair keeps sigma and moves only that norm
    symbols = ds.symbols.copy()
    symbols[1, 2, 2, 2] *= 1e6
    with pytest.raises(
        NotPositiveDefinite, match=r"^\[stage metric\].*grid index \(1, 2\), sample \(2,\)$"
    ):
        layer_strip_driver(dataclasses.replace(ds, symbols=symbols))


def test_driver_refuses_metrics_that_differ_across_energies():
    """Energy-0 symbols of h0 = diag(2, 1), energy-1 symbols of h0 = diag(1, 3)."""
    energies = (ComplexEnergy(3.2), ComplexEnergy(4.5))
    a = forward_dataset(constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0])), energies)
    b = forward_dataset(constant_patch(2, 1.1, 0.4, np.diag([1.0, 3.0])), energies)
    mixed = dataclasses.replace(a, symbols=np.concatenate([a.symbols[:, :, :1], b.symbols[:, :, 1:]], 2))
    with pytest.raises(
        InconsistentData,
        match=r"^\[stage metric\] metric at energy index 1 differs from energy 0's by "
        r"2\.000e\+00, more than 1e-08 times the largest \|h0\| entry 2\.000e\+00 "
        r"at grid index \(0, 0\), sample \(1,\)$",
    ):
        layer_strip_driver(mixed)


@pytest.mark.parametrize("n", [2, 3])
def test_driver_refuses_samples_the_first_order_model_cannot_fit(n):
    """Unit normal noise on the singularity samples leaves a fit residual near 1."""
    _, ds = make_synthetic_pair(seed=7, n=n)
    noise = np.random.default_rng(1).normal(size=ds.singularity.shape)
    noisy = dataclasses.replace(ds, singularity=ds.singularity + noise)
    with pytest.raises(
        InconsistentData,
        match=r"^\[stage first-order\] first-order fit residual .* is more than 1e-08 times "
        rf"the largest \|F\| .* at grid index \({', '.join(['0'] * n)}\)$",
    ):
        layer_strip_driver(noisy)


def test_driver_detects_inconsistent_homogeneity():
    truth, ds = make_synthetic_pair(seed=3, n=2)
    v, vt = ds.symbols[0, 0, 0, 0]
    bad = _with_symbol(ds, (0, 0, 0, 0), [v, 1.5 * vt])
    with pytest.raises(InconsistentData, match=r"\[stage sigma\].*disagree"):
        layer_strip_driver(bad)


def test_driver_rejects_nan_symbol_pair():
    """A NaN pair never reaches layer_strip_driver: the dataset refuses it when built."""
    _, ds = make_synthetic_pair(seed=3, n=2)
    with pytest.raises(ConfigError, match=r"symbols: .* not finite at grid index \(1, 0\)"):
        _with_symbol(ds, (1, 0, 0, 0, 1), complex(math.nan, 0.0))


def test_driver_round_trip_on_varying_patch():
    """Every field recovered point by point where every field varies."""
    patch, energies, H = varying_patch(seed=29)
    ds = forward_dataset(patch, energies, t_pair=(1.0 + 0j, 1.0 + 0j))
    report = layer_strip_driver(ds)
    assert report.status == "ok"
    sigmas = [indicial_root(patch, en) for en in energies]
    np.testing.assert_allclose(report.sigma[..., 0], sigmas[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.sigma[..., 1], sigmas[1], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.h0, patch.h_jet[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.alpha_sq, patch.alpha**2, rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.v0, patch.v_jet[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.H, H, rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.W1, 0.0, rtol=0, atol=1e-8)


def test_driver_refuses_an_energy_whose_square_overflows():
    _, ds = make_synthetic_pair(seed=3, n=2)
    with pytest.raises(ConfigError, match=r"^energy \(1e\+200\+0j\): lambda\^2 = \(inf\+0j\)"):
        huge = dataclasses.replace(ds, energies=(1e200, ds.energies[1]))
        layer_strip_driver(huge)


def test_driver_rejects_non_dataset():
    with pytest.raises(TypeError, match="SymbolDataset"):
        layer_strip_driver({"n": 2})


@st.composite
def _truths(draw):
    """A constant-coefficient truth and its forward dataset after a JSON round trip.

    ``h0`` has eigenvalues in [0.5, 2] and a random orientation; ``H`` is
    traceless and ``W1 = 0``, where the minimum-norm first-order fit is exact.
    """
    n = draw(st.sampled_from([1, 2, 3]))
    alpha = draw(st.floats(0.5, 2.0))
    v0 = draw(st.floats(-1.0, 1.0))
    eigs = draw(hnp.arrays(float, n, elements=st.floats(0.5, 2.0)))
    q, _ = np.linalg.qr(np.eye(n) + draw(hnp.arrays(float, (n, n), elements=st.floats(-1, 1))))
    h0 = (q * eigs) @ q.T
    h0 = (h0 + h0.T) / 2.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = traceless_symmetric(rng, n)
    patch = constant_patch(n, alpha, v0, h0, v1=0.0, h1=h0 @ H @ h0)
    energies = draw_admissible_energies(rng, patch)
    ds = forward_dataset(patch, energies)
    ds = SymbolDataset.from_dict(json.loads(canonical_json(ds.to_dict())))
    return alpha * alpha, v0, h0, H, ds


@settings(max_examples=30, deadline=None)
@given(_truths())
def test_forward_encode_decode_invert_is_identity(truth):
    alpha_sq, v0, h0, H, ds = truth
    report = layer_strip_driver(ds)
    assert report.status == "ok"
    for got, want in ((report.alpha_sq, alpha_sq), (report.v0, v0), (report.h0, h0), (report.H, H)):
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape), rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.W1, 0.0, rtol=0, atol=1e-8)

    # known-alpha mode on the first energy alone
    one = dataclasses.replace(
        ds,
        energies=ds.energies[:1],
        symbols=ds.symbols[..., :1, :, :],
        singularity=None,
        probes=None,
        t_pair=None,
    )
    report = layer_strip_driver(one, alpha_sq_known=alpha_sq)
    assert report.status == "ok"
    np.testing.assert_array_equal(report.alpha_sq, alpha_sq)
    np.testing.assert_allclose(report.v0, v0, rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.h0, np.broadcast_to(h0, report.h0.shape), rtol=0, atol=1e-8)
