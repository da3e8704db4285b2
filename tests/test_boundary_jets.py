"""Boundary patch construction, indicial roots, and jet differences."""
import dataclasses

import numpy as np
import pytest

from scatjet.boundary_jets import (
    BoundaryPatch,
    ComplexEnergy,
    IndicialField,
    density_ratio_coefficient,
    indicial_identity_residual,
    indicial_root,
    indicial_root_at,
    perturbation_coefficients,
)
from scatjet.errors import BranchCut, ConfigError, MismatchedBoundary
from scatjet.synthetic import constant_patch, random_spd

from oracles import quarter_density_slope_fd


# -- ComplexEnergy ----------------------------------------------------------


def test_energy_coerces_and_caches_square():
    en = ComplexEnergy(2.0)
    assert en.lam == 2.0 + 0j
    assert en.lam_sq == 4.0 + 0j


def test_energy_rejects_inconsistent_square():
    with pytest.raises(ConfigError):
        ComplexEnergy(2.0, lam_sq=4.1)
    # consistent value within tolerance is accepted
    ComplexEnergy(2.0, lam_sq=4.0 + 1e-14)


# -- BoundaryPatch validation ----------------------------------------------


def test_patch_rejects_bad_dimension():
    with pytest.raises(ConfigError):
        constant_patch(4, 1.0, 0.0, np.eye(4))
    with pytest.raises(ConfigError):
        constant_patch(0, 1.0, 0.0, np.eye(1))


def test_patch_rejects_small_axes():
    with pytest.raises(ConfigError):
        constant_patch(1, 1.0, 0.0, np.eye(1), axes=(3,))


def test_patch_rejects_nonpositive_alpha():
    v = np.zeros((2, 4))
    h = np.broadcast_to(np.eye(1), (4, 1, 1)).copy()
    with pytest.raises(ConfigError):
        BoundaryPatch(n=1, axes=(4,), alpha=-np.ones(4), v_jet=v, h_jet=h[None])


def _with_bad_entry(arr, where, bad=np.nan):
    out = np.array(arr)
    out[where] = bad
    return out


def test_patch_rejects_non_finite():
    good = constant_patch(2, 1.0, 0.0, np.eye(2), v1=0.1, h1=np.eye(2))
    v0, v1 = good.v_jet
    h0, h1 = good.h_jet
    for changes, message in (
        ({"v_jet": (_with_bad_entry(v0, (1, 2)), v1)}, r"v_jet\[0\] is not finite at grid index \(1, 2\)"),
        ({"v_jet": (v0, _with_bad_entry(v1, (3, 0)))}, r"v_jet\[1\] is not finite at grid index \(3, 0\)"),
        ({"h_jet": (h0, _with_bad_entry(h1, (2, 1, 0, 1)))}, r"h_jet\[1\] is not finite at grid index \(2, 1\)"),
        ({"alpha": _with_bad_entry(good.alpha, (0, 3), np.inf)}, r"alpha is not finite at grid index \(0, 3\)"),
    ):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(good, **changes)


def test_patch_rejects_asymmetric_or_indefinite_metric():
    bad_sym = np.array([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(ConfigError):
        constant_patch(2, 1.0, 0.0, bad_sym)
    with pytest.raises(ConfigError):
        constant_patch(2, 1.0, 0.0, np.diag([1.0, -1.0]))


def test_patch_arrays_read_only():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    with pytest.raises(ValueError):
        patch.alpha[0, 0] = 2.0


def test_patch_grid_helpers():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2), axes=(4, 6))
    assert patch.grid_shape == (4, 6)
    cs = patch.coords()
    assert len(cs) == 2 and cs[0].size == 4 and cs[1].size == 6
    assert cs[1][1] == pytest.approx(2 * np.pi / 6)
    mesh = patch.mesh()
    assert set(mesh) == {"y1", "y2"} and mesh["y1"].shape == (4, 6)
    assert len(list(patch.grid_points())) == 24


def test_patch_from_dict_expressions_round_trip():
    raw = {
        "n": 1,
        "axes": [8],
        "alpha": "1 + 0.5*cos(y1)",
        "v_jet": ["0.3", "0"],
        "h_jet": [[["1"]], [["0"]]],
    }
    patch = BoundaryPatch.from_dict(raw)
    assert patch.jet_order == 1
    y = patch.coords()[0]
    np.testing.assert_allclose(patch.alpha, 1 + 0.5 * np.cos(y))
    back = BoundaryPatch.from_dict(patch.to_dict())
    np.testing.assert_allclose(back.alpha, patch.alpha)
    np.testing.assert_allclose(back.h_jet, patch.h_jet)


def test_patch_from_dict_rejects_malformed():
    with pytest.raises(ConfigError):
        BoundaryPatch.from_dict({"n": 1, "axes": [8]})
    with pytest.raises(ConfigError):
        BoundaryPatch.from_dict(
            {"n": 1, "axes": [8], "alpha": "1", "v_jet": ["0"], "h_jet": [[["1", "2"]]]}
        )


# -- indicial roots ---------------------------------------------------------


def test_indicial_shifted_potential_cancels():
    # V0 = lam^2 + 1 at n=2 makes the discriminant (n/2)^2, so sigma = n
    lam = 1.3
    patch = constant_patch(2, 1.0, lam**2 + 1.0, np.eye(2))
    field = indicial_root(patch, ComplexEnergy(lam))
    assert isinstance(field, IndicialField)
    np.testing.assert_allclose(field.sigma, 2.0, atol=1e-14)


def test_indicial_zero_discriminant():
    patch = constant_patch(2, 2.0, 5.0, np.eye(2))
    field = indicial_root(patch, ComplexEnergy(0.0))
    np.testing.assert_allclose(field.sigma, 1.0, atol=1e-14)


def test_indicial_variable_alpha_identity():
    """Formula output re-verified against the defining quadratic, pointwise."""
    raw = {
        "n": 3,
        "axes": [8, 4, 4],
        "alpha": "1 + 0.5*cos(y1)",
        "v_jet": ["0.3"],
        "h_jet": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    }
    patch = BoundaryPatch.from_dict(raw)
    en = ComplexEnergy(2j)
    field = indicial_root(patch, en)
    resid = indicial_identity_residual(patch.alpha, patch.v_jet[0], en, field.sigma, 3)
    assert np.max(resid) <= 1e-12
    assert np.min(field.sigma.real) >= 1.5


def test_indicial_branch_and_sum_product():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.5, 2.0))
        v0 = float(rng.uniform(-1.0, 1.0))
        lam = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        patch = constant_patch(n, alpha, v0, np.eye(n))
        field = indicial_root(patch, ComplexEnergy(lam))
        sp = complex(field.sigma.flat[0])
        sm = complex(field.sigma_minus().flat[0])
        assert sp.real >= n / 2 - 1e-12
        assert sp + sm == pytest.approx(n)
        prod_expected = (v0 - lam**2 - n**2 / 4.0) / alpha**2
        assert sp * sm == pytest.approx(prod_expected, rel=1e-12, abs=1e-12)


def test_branch_cut_only_for_real_energy_in_interval():
    patch = constant_patch(2, 1.0, 5.0, np.eye(2))
    # V0 - lam^2 - 1 > 1  <=>  discriminant negative: lam = 0 real -> error
    with pytest.raises(BranchCut) as info:
        indicial_root(patch, ComplexEnergy(0.0))
    assert info.value.points  # offending grid points are reported
    # the same magnitude off the real axis evaluates fine
    sig = indicial_root_at(patch, (0, 0), ComplexEnergy(1e-3 + 0j * 0 + 2j))
    assert sig.real >= 1.0


def test_indicial_continuity_in_lambda():
    patch = constant_patch(2, 1.2, 0.4, np.eye(2))
    base = ComplexEnergy(3.0 + 0.5j)
    ref = indicial_root_at(patch, (0, 0), base)
    diffs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        sig = indicial_root_at(patch, (0, 0), ComplexEnergy(3.0 + h + 0.5j))
        diffs.append(abs(sig - ref))
    # linear shrink in |delta lambda|
    assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.1)
    assert diffs[1] / diffs[2] == pytest.approx(2.0, rel=0.1)


# -- perturbation data ------------------------------------------------------


def _patch_pair(n, h0, v1_delta=0.0, h1_delta=None, v0=0.25):
    p1 = constant_patch(n, 1.0, v0, h0, v1=0.1, h1=np.zeros((n, n)))
    h1 = np.zeros((n, n)) if h1_delta is None else h1_delta
    p2 = constant_patch(n, 1.0, v0, h0, v1=0.1 + v1_delta, h1=h1)
    return p1, p2


def test_perturbation_identical_patches():
    p1, p2 = _patch_pair(2, np.eye(2))
    pd = perturbation_coefficients(p1, p2, (0, 0))
    assert not pd.L.any() and not pd.H.any()
    assert pd.T == 0.0
    assert not np.asarray(pd.W).any()


def test_perturbation_identity_metric():
    L = np.diag([2.0, -2.0])
    p1, p2 = _patch_pair(2, np.eye(2), h1_delta=L)
    pd = perturbation_coefficients(p1, p2, (0, 0))
    np.testing.assert_allclose(pd.H, L, atol=1e-14)
    assert pd.T == pytest.approx(0.0, abs=1e-14)


def test_perturbation_worked_case():
    h0 = np.diag([4.0, 1.0])
    L = np.array([[4.0, 2.0], [2.0, 1.0]])
    p1, p2 = _patch_pair(2, h0, h1_delta=L, v1_delta=0.7)
    pd = perturbation_coefficients(p1, p2, (0, 0))
    np.testing.assert_allclose(pd.L, L, atol=1e-14)
    np.testing.assert_allclose(pd.H, [[0.25, 0.5], [0.5, 1.0]], atol=1e-14)
    assert pd.T == pytest.approx(2.0)
    assert pd.W[1] == pytest.approx(0.7)
    # reconstruction invariant
    np.testing.assert_allclose(h0 @ pd.H @ h0, pd.L, atol=1e-12)


def test_perturbation_antisymmetric_under_swap():
    rng = np.random.default_rng(11)
    h0 = random_spd(rng, 3)
    sym = rng.standard_normal((3, 3))
    L = sym + sym.T
    p1, p2 = _patch_pair(3, h0, h1_delta=L, v1_delta=-0.4)
    fwd = perturbation_coefficients(p1, p2, (0, 0, 0))
    rev = perturbation_coefficients(p2, p1, (0, 0, 0))
    np.testing.assert_allclose(fwd.L, -rev.L, atol=1e-13)
    np.testing.assert_allclose(fwd.H, -rev.H, atol=1e-13)
    assert fwd.T == pytest.approx(-rev.T)
    np.testing.assert_allclose(fwd.W, -np.asarray(rev.W), atol=1e-13)


def test_perturbation_mismatched_zeroth_order():
    p1 = constant_patch(2, 1.0, 0.25, np.eye(2), v1=0.0, h1=np.zeros((2, 2)))
    p2 = constant_patch(2, 1.0, 0.30, np.eye(2), v1=0.0, h1=np.zeros((2, 2)))
    with pytest.raises(MismatchedBoundary, match="V"):
        perturbation_coefficients(p1, p2, (0, 0))
    p3 = constant_patch(2, 1.0, 0.25, np.diag([1.0, 2.0]), v1=0.0, h1=np.zeros((2, 2)))
    with pytest.raises(MismatchedBoundary):
        perturbation_coefficients(p1, p3, (0, 0))


def test_perturbation_needs_first_order_jets():
    p1 = constant_patch(2, 1.0, 0.25, np.eye(2))  # zeroth-order only
    p2 = constant_patch(2, 1.0, 0.25, np.eye(2))
    with pytest.raises(ConfigError):
        perturbation_coefficients(p1, p2, (0, 0))


def test_perturbation_layout_mismatch():
    p1, _ = _patch_pair(2, np.eye(2))
    q1, _ = _patch_pair(2, np.eye(2))
    q1 = constant_patch(2, 1.0, 0.25, np.eye(2), v1=0.1, h1=np.zeros((2, 2)), axes=(6, 6))
    with pytest.raises(MismatchedBoundary):
        perturbation_coefficients(p1, q1, (0, 0))


# -- density ratio ----------------------------------------------------------


def test_density_ratio_values():
    p1, p2 = _patch_pair(2, np.eye(2))
    pd = perturbation_coefficients(p1, p2, (0, 0))
    assert density_ratio_coefficient(pd) == 0.0
    h0 = np.diag([4.0, 1.0])
    L = np.array([[4.0, 2.0], [2.0, 1.0]])
    p1, p2 = _patch_pair(2, h0, h1_delta=L)
    pd = perturbation_coefficients(p1, p2, (0, 0))
    assert density_ratio_coefficient(pd) == pytest.approx(0.5)


def test_density_ratio_against_determinant_slope():
    """Quarter-power determinant expansion, checked by finite differences."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        h0 = random_spd(rng, n)
        sym = rng.standard_normal((n, n))
        L = 0.3 * (sym + sym.T)
        p1, p2 = _patch_pair(n, h0, h1_delta=L)
        pd = perturbation_coefficients(p1, p2, (0,) * n)
        fd = quarter_density_slope_fd(h0, L)
        assert density_ratio_coefficient(pd) == pytest.approx(fd, abs=1e-6)
