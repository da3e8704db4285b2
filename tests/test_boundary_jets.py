"""Boundary patch construction, indicial roots, and jet differences."""
import dataclasses
import re

import numpy as np
import pytest

from scatjet.boundary_jets import (
    BoundaryPatch,
    ComplexEnergy,
    indicial_root,
    indicial_v0,
    perturbation_coefficients,
    positive_definite_inverse,
)
from scatjet.errors import BranchCut, ConfigError, MismatchedBoundary
from scatjet.forward_scattering import principal_symbol
from scatjet.synthetic import constant_patch, random_spd


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
    # the first refused grid point is named
    alpha = np.ones(4)
    alpha[2] = 0.0
    with pytest.raises(ConfigError, match=r"^alpha must be strictly positive at grid index \(2,\)$"):
        BoundaryPatch(n=1, axes=(4,), alpha=alpha, v_jet=v, h_jet=h[None])


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
    # the first refused grid point is named
    h0 = np.tile(np.eye(2), (4, 4, 1, 1))
    h0[3, 0] = np.diag([1.0, -1.0])
    h0[1, 2] = np.diag([0.0, 1.0])
    with pytest.raises(
        ConfigError, match=r"^h\^\(0\) must be positive definite at grid index \(1, 2\)$"
    ):
        BoundaryPatch(n=2, axes=(4, 4), alpha=np.ones((4, 4)), v_jet=(np.zeros((4, 4)),), h_jet=(h0,))
    # the symmetry bound is rounding-sized: a 5e-6 gap is no rounding
    with pytest.raises(ConfigError, match="symmetric"):
        constant_patch(2, 1.1, 0.4, [[2.0, 1.0 + 5e-6], [1.0, 2.0]])
    # while the rounding of a product of entries near 1e5 is
    big = 1e5 * random_spd(np.random.default_rng(1), 3)
    assert np.any(big != big.T)
    constant_patch(3, 1.1, 0.4, big)


def test_patch_refuses_what_the_forward_solve_cannot_use():
    """A metric within rounding of singular is refused, or its symbol computes."""
    # passes Cholesky, with a zero pivot in LU (on one build of LAPACK)
    h = [float.fromhex(x) for x in ("0x1.5f127fa12a17dp-2", "0x1.9215d48f6cc15p-1", "0x1.cc82c3f04720fp+0")]
    metrics = [np.array([[h[0], h[1]], [h[1], h[2]]])]
    rng = np.random.default_rng(3)
    for _ in range(40):
        v = rng.normal(size=2)
        metrics.append(np.outer(v, v) + rng.uniform(-2.0, 2.0) * 1e-16 * np.eye(2))
    for h0 in metrics:
        try:
            patch = constant_patch(2, 1.1, 0.4, h0)
        except ConfigError:
            continue
        principal_symbol(patch, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], (ComplexEnergy(3.2),))


def test_patch_arrays_read_only():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    with pytest.raises(ValueError):
        patch.alpha[0, 0] = 2.0


def test_patch_leaves_the_callers_arrays_alone():
    """The patch keeps copies: the caller's arrays stay writable, and editing them changes nothing."""
    rng = np.random.default_rng(8)
    alpha = rng.uniform(0.5, 2.0, size=(4, 5))
    v0, v1 = rng.normal(size=(2, 4, 5))
    h0 = np.tile(random_spd(rng, 2), (4, 5, 1, 1))
    h1 = np.tile(np.eye(2), (4, 5, 1, 1))
    patch = BoundaryPatch(n=2, axes=(4, 5), alpha=alpha, v_jet=(v0,), h_jet=(h0,))
    both = patch.with_first_order(v1, h1)
    kept = [a.copy() for a in (alpha, v0, h0, v1, h1)]
    for arr in (alpha, v0, h0, v1, h1):
        assert arr.flags.writeable
        arr += 1.0
    for got, want in zip((both.alpha, both.v_jet[0], both.h_jet[0], both.v_jet[1], both.h_jet[1]), kept):
        np.testing.assert_array_equal(got, want)
    for arr in (both.alpha, *both.v_jet, *both.h_jet, both.h0_inv):
        assert not arr.flags.writeable


# -- positive_definite_inverse ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_positive_definite_inverse_agrees_with_inv(n):
    """Within rounding of ``np.linalg.inv`` on well-conditioned SPD stacks, exactly symmetric."""
    rng = np.random.default_rng(40 + n)
    q, _ = np.linalg.qr(rng.normal(size=(3, 7, n, n)))
    M = q * rng.uniform(0.5, 2.0, size=(3, 7, 1, n)) @ np.swapaxes(q, -1, -2)
    M = (M + np.swapaxes(M, -1, -2)) / 2.0
    got = positive_definite_inverse(M)
    want = np.linalg.inv(M)
    assert got.shape == M.shape
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))
    # elementwise over the stack: each matrix alone has the bits it has in the stack
    for idx in np.ndindex(3, 7):
        np.testing.assert_array_equal(positive_definite_inverse(M[idx]), got[idx])


def test_positive_definite_inverse_refuses():
    """A NaN, an indefinite and a singular semidefinite matrix, alone or in a stack, are refused."""
    v = np.array([1.0, 2.0, -0.5])
    for bad in (np.full((3, 3), np.nan), np.diag([1.0, -1e-3, 2.0]), np.outer(v, v), np.zeros((3, 3))):
        assert positive_definite_inverse(bad) is None
        assert positive_definite_inverse(np.stack([np.eye(3), bad])) is None
    # a pivot so small that the inverse leaves double range
    assert positive_definite_inverse(np.diag([1.0, 1e-320])) is None


def test_patch_grid_helpers():
    """A field expression reads y_i = 2 pi k / m_i at the k-th of the m_i points of axis i."""
    patch = BoundaryPatch.from_dict(
        {
            "n": 2,
            "axes": [4, 6],
            "alpha": "1 + y1 + 10*y2",
            "v_jet": ["0"],
            "h_jet": [[["1", "0"], ["0", "1"]]],
        }
    )
    assert patch.grid_shape == (4, 6)
    k1, k2 = np.meshgrid(np.arange(4), np.arange(6), indexing="ij")
    np.testing.assert_allclose(
        patch.alpha, 1 + 2 * np.pi * k1 / 4 + 10 * (2 * np.pi * k2 / 6), rtol=1e-15
    )
    assert patch.alpha[0, 1] == pytest.approx(1 + 10 * 2 * np.pi / 6)


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
    y = 2 * np.pi * np.arange(8) / 8
    np.testing.assert_allclose(patch.alpha, 1 + 0.5 * np.cos(y))
    # the same fields as explicit per-grid-point arrays give the same patch
    back = BoundaryPatch.from_dict(
        dict(
            raw,
            alpha=patch.alpha.tolist(),
            v_jet=[v.tolist() for v in patch.v_jet],
            h_jet=[h.tolist() for h in patch.h_jet],
        )
    )
    np.testing.assert_allclose(back.alpha, patch.alpha)
    np.testing.assert_allclose(back.h_jet, patch.h_jet)


def test_patch_from_dict_rejects_malformed():
    with pytest.raises(ConfigError):
        BoundaryPatch.from_dict({"n": 1, "axes": [8]})
    with pytest.raises(ConfigError):
        BoundaryPatch.from_dict(
            {"n": 1, "axes": [8], "alpha": "1", "v_jet": ["0"], "h_jet": [[["1", "2"]]]}
        )
    # integer header fields are taken as they stand, never truncated
    good = {"n": 2, "axes": [4, 4], "alpha": "1", "v_jet": ["0"], "h_jet": [[["1", "0"], ["0", "1"]]]}
    for key, value, message in [
        ("n", 2.7, "n must be an integer, got 2.7"),
        ("n", True, "n must be an integer, got True"),
        ("axes", [4.9, 4], "axes entry must be an integer, got 4.9"),
        ("axes", [4, False], "axes entry must be an integer, got False"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            BoundaryPatch.from_dict({**good, key: value})


# -- indicial roots ---------------------------------------------------------


def test_indicial_shifted_potential_cancels():
    # V0 = lam^2 + 1 at n=2 makes the discriminant (n/2)^2, so sigma = n
    lam = 1.3
    patch = constant_patch(2, 1.0, lam**2 + 1.0, np.eye(2))
    sigma = indicial_root(patch, ComplexEnergy(lam))
    assert isinstance(sigma, np.ndarray) and sigma.shape == patch.grid_shape
    np.testing.assert_allclose(sigma, 2.0, atol=1e-14)


def test_indicial_zero_discriminant():
    patch = constant_patch(2, 2.0, 5.0, np.eye(2))
    np.testing.assert_allclose(indicial_root(patch, ComplexEnergy(0.0)), 1.0, atol=1e-14)


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
    sigma = indicial_root(patch, en)
    resid = np.abs(indicial_v0(patch.alpha**2, en.lam_sq, sigma, 3) - patch.v_jet[0])
    assert np.max(resid) <= 1e-12
    assert np.min(sigma.real) >= 1.5


def test_indicial_branch_and_sum_product():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.5, 2.0))
        v0 = float(rng.uniform(-1.0, 1.0))
        lam = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        patch = constant_patch(n, alpha, v0, np.eye(n))
        sp = complex(indicial_root(patch, ComplexEnergy(lam)).flat[0])
        sm = n - sp
        assert sp.real >= n / 2 - 1e-12
        assert sp + sm == pytest.approx(n)
        prod_expected = (v0 - lam**2 - n**2 / 4.0) / alpha**2
        assert sp * sm == pytest.approx(prod_expected, rel=1e-12, abs=1e-12)


def test_branch_cut_only_for_real_energy_in_interval():
    patch = constant_patch(2, 1.0, 5.0, np.eye(2))
    # V0 - lam^2 - 1 > 1  <=>  discriminant negative: lam = 0 real -> error
    # the message counts the offending grid points and names the first
    cut = r"at 16 grid point\(s\), the first at grid index \(0, 0\)$"
    with pytest.raises(BranchCut, match=cut):
        indicial_root(patch, ComplexEnergy(0.0))
    # the same magnitude off the real axis evaluates fine
    sig = indicial_root(patch, ComplexEnergy(1e-3 + 0j * 0 + 2j))
    assert np.all(sig.real >= 1.0)


def test_indicial_continuity_in_lambda():
    patch = constant_patch(2, 1.2, 0.4, np.eye(2))
    base = ComplexEnergy(3.0 + 0.5j)
    ref = indicial_root(patch, base)[0, 0]
    diffs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        sig = indicial_root(patch, ComplexEnergy(3.0 + h + 0.5j))[0, 0]
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
    pd = perturbation_coefficients(p1, p2)
    assert pd.H.shape == (4, 4, 2, 2) and pd.T.shape == (4, 4)
    assert not pd.H.any()
    assert not pd.T.any()
    assert not pd.W1.any()


def test_perturbation_identity_metric():
    L = np.diag([2.0, -2.0])
    p1, p2 = _patch_pair(2, np.eye(2), h1_delta=L)
    pd = perturbation_coefficients(p1, p2)
    np.testing.assert_allclose(pd.H, np.broadcast_to(L, (4, 4, 2, 2)), atol=1e-14)
    np.testing.assert_allclose(pd.T, 0.0, atol=1e-14)


def test_perturbation_worked_case():
    h0 = np.diag([4.0, 1.0])
    L = np.array([[4.0, 2.0], [2.0, 1.0]])
    p1, p2 = _patch_pair(2, h0, h1_delta=L, v1_delta=0.7)
    pd = perturbation_coefficients(p1, p2)
    np.testing.assert_allclose(pd.H[0, 0], [[0.25, 0.5], [0.5, 1.0]], atol=1e-14)
    assert pd.T[0, 0] == pytest.approx(2.0)
    assert pd.W1[0, 0] == pytest.approx(0.7)
    # reconstruction invariant: h0 H h0 is the jet difference
    np.testing.assert_allclose(h0 @ pd.H @ h0, np.broadcast_to(L, pd.H.shape), atol=1e-12)


def test_perturbation_antisymmetric_under_swap():
    rng = np.random.default_rng(11)
    h0 = random_spd(rng, 3)
    sym = rng.standard_normal((3, 3))
    L = sym + sym.T
    p1, p2 = _patch_pair(3, h0, h1_delta=L, v1_delta=-0.4)
    fwd = perturbation_coefficients(p1, p2)
    rev = perturbation_coefficients(p2, p1)
    np.testing.assert_allclose(fwd.H, -rev.H, atol=1e-13)
    np.testing.assert_allclose(fwd.T, -rev.T, rtol=1e-12)
    np.testing.assert_allclose(fwd.W1, -rev.W1, atol=1e-13)


def test_perturbation_mismatched_zeroth_order():
    p1 = constant_patch(2, 1.0, 0.25, np.eye(2), v1=0.0, h1=np.zeros((2, 2)))
    p2 = constant_patch(2, 1.0, 0.30, np.eye(2), v1=0.0, h1=np.zeros((2, 2)))
    with pytest.raises(MismatchedBoundary, match="V"):
        perturbation_coefficients(p1, p2)
    p3 = constant_patch(2, 1.0, 0.25, np.diag([1.0, 2.0]), v1=0.0, h1=np.zeros((2, 2)))
    with pytest.raises(MismatchedBoundary):
        perturbation_coefficients(p1, p3)


def test_perturbation_mismatch_names_first_grid_index():
    """Faults at (1, 2) and (2, 0): the first in C order is named, with its fields."""
    p1 = constant_patch(2, 1.0, 0.25, np.eye(2), v1=0.0, h1=np.zeros((2, 2)))
    alpha = p1.alpha.copy()
    v0 = p1.v_jet[0].copy()
    h0 = p1.h_jet[0].copy()
    alpha[2, 0] = 1.5
    v0[1, 2] = 0.5
    h0[1, 2] = np.diag([1.0, 3.0])
    p2 = BoundaryPatch(
        n=2, axes=p1.axes, alpha=alpha, v_jet=(v0, p1.v_jet[1]), h_jet=(h0, p1.h_jet[1])
    )
    with pytest.raises(
        MismatchedBoundary, match=r"disagree: V\^\(0\), h\^\(0\) at grid index \(1, 2\)$"
    ):
        perturbation_coefficients(p1, p2)


def test_with_first_order_shares_the_judged_zeroth_order_data():
    """A derived patch reuses h0_inv and gives the bits of a fully built one."""
    rng = np.random.default_rng(5)
    h0 = random_spd(rng, 3)
    L = rng.standard_normal((3, 3))
    L = L + L.T
    p1, built = _patch_pair(3, h0, v1_delta=-0.4, h1_delta=L)
    derived = p1.with_first_order(built.v_jet[1], built.h_jet[1])
    assert derived.h0_inv is p1.h0_inv
    assert derived.alpha is p1.alpha and derived.h_jet[0] is p1.h_jet[0]
    assert not derived.h_jet[1].flags.writeable and not derived.v_jet[1].flags.writeable
    want = perturbation_coefficients(p1, built)
    got = perturbation_coefficients(p1, derived)
    for name in ("H", "T", "W1"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_with_first_order_checks_the_new_jets():
    p1, _ = _patch_pair(2, np.eye(2))
    v1, h1 = np.zeros((4, 4)), np.zeros((4, 4, 2, 2))
    with pytest.raises(ConfigError, match=r"^first-order jets have shapes \(4, 3\) and"):
        p1.with_first_order(v1[:, :3], h1)
    with pytest.raises(ConfigError, match=r"expected \(4, 4\) and \(4, 4, 2, 2\)$"):
        p1.with_first_order(v1, h1[..., :1])
    h1[2, 1, 0, 1] = np.nan
    with pytest.raises(
        ConfigError, match=r"^h_jet\[1\] is not finite at grid index \(2, 1\), sample \(0, 1\)$"
    ):
        p1.with_first_order(v1, h1)
    # the first grid point in C order with a non-finite entry is named
    v1[1, 3] = np.inf
    with pytest.raises(ConfigError, match=r"^v_jet\[1\] is not finite at grid index \(1, 3\)$"):
        p1.with_first_order(v1, h1)


def test_perturbation_needs_first_order_jets():
    p1 = constant_patch(2, 1.0, 0.25, np.eye(2))  # zeroth-order only
    p2 = constant_patch(2, 1.0, 0.25, np.eye(2))
    with pytest.raises(ConfigError):
        perturbation_coefficients(p1, p2)


def test_perturbation_layout_mismatch():
    p1, _ = _patch_pair(2, np.eye(2))
    q1, _ = _patch_pair(2, np.eye(2))
    q1 = constant_patch(2, 1.0, 0.25, np.eye(2), v1=0.1, h1=np.zeros((2, 2)), axes=(6, 6))
    with pytest.raises(MismatchedBoundary):
        perturbation_coefficients(p1, q1)
