"""Stage-by-stage recovery tests, mostly exact algebraic round trips."""
import dataclasses
import json
import math
import re
import warnings


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scatjet.boundary_jets import ComplexEnergy, PerturbationData, indicial_root
from scatjet.dataset import SymbolDataset, canonical_json, polarization_covectors
from scatjet.errors import (
    BranchAmbiguity,
    ConfigError,
    DegenerateEnergies,
    InconsistentData,
    NotPositiveDefinite,
    ZeroIntegralFactor,
    ZeroSymbol,
)
from scatjet.forward_scattering import (
    ProbeSet,
    default_probe_set,
    gamma_prefactor,
    principal_symbol,
    singularity_coefficient,
)
from scatjet.inversion import (
    InversionConfig,
    first_order_recovery,
    layer_strip_driver,
    metric_boundary_recovery,
    recover_sigma_from_symbol,
    two_energy_recovery,
)
from scatjet.synthetic import (
    constant_patch,
    draw_admissible_energies,
    forward_dataset,
    make_synthetic_pair,
    traceless_symmetric,
)

from varying_patch import varying_patch_pair


def _symbol_pair(sigma, norm, t, n):
    pref = gamma_prefactor(sigma, n)
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
    v, vt = principal_symbol(patch, [xi, 2 * xi], (en,))[0][0, 0]
    rec = recover_sigma_from_symbol(v, vt, 2.0, 2)
    assert rec.sigma == pytest.approx(indicial_root(patch, en)[0, 0], abs=1e-12)
    assert rec.norm == pytest.approx(1.0, abs=1e-12)  # h0 = I and |xi| = 1


def test_sigma_zero_and_scale_validation():
    with pytest.raises(ZeroSymbol):
        recover_sigma_from_symbol(0.0, 1.0, 2.0, 2)
    for t in (1.0, 0.0, -2.0):
        with pytest.raises(ValueError):
            recover_sigma_from_symbol(1.0, 1.0, t, 2)


def test_sigma_rejects_non_finite_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentData, match="not finite"):
            recover_sigma_from_symbol(math.nan, 1.0 + 0j, 2.0, 2)
        v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
        values = np.full((4, 4), v)
        values[1, 0] = complex(math.inf, 0.0)
        with pytest.raises(InconsistentData, match=r"not finite at grid index \(1, 0\)$"):
            recover_sigma_from_symbol(values, np.full((4, 4), vt), 2.0, 2)


def test_stages_name_the_first_failing_grid_index():
    """Grid input raises at the first failing index in C order, naming it."""
    v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
    values = np.full((3, 4, 2), v)
    values[2, 0, 0] = 0.0
    values[1, 3, 1] = 0.0
    with pytest.raises(ZeroSymbol, match=r"grid index \(1, 3\), sample \(1,\)$"):
        recover_sigma_from_symbol(values, np.full((3, 4, 2), vt), 2.0, 2)
    # the first failing index wins, even when a later index fails an earlier check
    values = np.full((2, 2), v)
    txi = np.full((2, 2), vt)
    txi[0, 1] = 0.5 * v
    values[1, 0] = 0.0
    with pytest.raises(BranchAmbiguity, match=r"grid index \(0, 1\)$"):
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
        two_energy_recovery(s1, s2, 3j, 5j, 2)


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
        r"1\.287e-01 above 1e-08: .* at grid index \(0, 0\), sample \(0, 0\)$",
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
        eye = np.eye(n)
        norms = [
            math.sqrt(xi @ np.linalg.solve(h0, xi))
            for xi in (eye[list(cov)].sum(axis=0) for cov in polarization_covectors(n))
        ]
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


def test_metric_missing_sample():
    """Norms come as a (..., C) array; a missing covector is a shape error."""
    with pytest.raises(ValueError, match=r"last axis of length 3 for n=2, got shape \(2,\)"):
        metric_boundary_recovery([1.0, 1.0], 2)


# -- zeroth-order algebra ---------------------------------------------------


def test_two_energy_worked_example():
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    s1 = indicial_root(patch, ComplexEnergy(3j))[0, 0]
    s2 = indicial_root(patch, ComplexEnergy(5j))[0, 0]
    a2, v0, resid = two_energy_recovery(s1, s2, 3j, 5j, 2)
    assert a2 == pytest.approx(1.69, abs=1e-12)
    assert v0 == pytest.approx(0.7, abs=1e-12)
    assert resid <= 1e-12


def test_two_energy_degenerate():
    with pytest.raises(DegenerateEnergies):
        two_energy_recovery(2.0, 2.5, 3j, -3j, 2)


def test_two_energy_singular_system():
    with pytest.raises(InconsistentData, match="coincide"):
        two_energy_recovery(2.0, 2.0, 3j, 5j, 2)


def test_two_energy_realness_enforced():
    with pytest.raises(InconsistentData, match="real"):
        two_energy_recovery(2.0 + 0.1j, 3.0, 3j, 5j, 2)


def test_two_energy_rejects_negative_alpha_sq():
    # swapping the energies against the roots flips the sign of alpha^2
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    s1 = indicial_root(patch, ComplexEnergy(3j))[0, 0]
    s2 = indicial_root(patch, ComplexEnergy(5j))[0, 0]
    with pytest.raises(InconsistentData, match="positive"):
        two_energy_recovery(s2, s1, 3j, 5j, 2)


# -- first-order fit --------------------------------------------------------


def _samples(H, W1, h0, alpha, sigma, t1, t2, probes=None):
    """``(values, probes)``: the forward model's samples at one point."""
    n = H.shape[0]
    pd = PerturbationData(
        n=n, L=h0 @ H @ h0, H=H, T=float(np.trace(h0 @ H)), W=(0.0, W1)
    )
    probes = np.array((probes if probes is not None else default_probe_set(n)).vectors)
    return singularity_coefficient(pd, alpha, sigma, t1, t2, probes), probes


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
    rotated = ProbeSet(
        tuple((c * w[0] - s * w[1], s * w[0] + c * w[1]) for w in base.vectors)
    )
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
    """With fewer probes than unknowns the full Vh still holds the kernel direction."""
    sigma, t1, t2 = 2.1, 0.9 + 0.2j, 1.3 - 0.1j
    samples = _samples(np.array([[0.4]]), 0.0, np.eye(1), 1.0, sigma, t1, t2)
    res = first_order_recovery(*samples, sigma, t1, t2, 1.0, np.eye(1))
    assert res.right_vectors.shape == (2, 2)
    (Hk, Wk), = res.kernel_basis()
    # at n = 1 a design row is t1 H D + t2 W, with D = (3 - 2 sigma)(2 - 2 sigma)
    slope = -(t1 / t2) * (3 - 2 * sigma) * (2 - 2 * sigma)
    assert Wk / Hk[0, 0] == pytest.approx(slope, abs=1e-12)


def test_first_order_grid_matches_each_point():
    """One call over a varying grid equals the one-point fit at every point."""
    patch1, patch2, energies, _ = varying_patch_pair(seed=29)
    ds = forward_dataset(patch1, energies, patch2=patch2, t_pair=(0.9 + 0.2j, 1.3 - 0.1j))
    sigma = indicial_root(patch1, energies[0])
    alpha_sq = patch1.alpha**2
    h0 = patch1.h_jet[0]
    args = (0.9 + 0.2j, 1.3 - 0.1j)
    grid = first_order_recovery(ds.singularity, ds.probes, sigma, *args, alpha_sq, h0)
    assert grid.H.shape == (5, 6, 2, 2) and grid.design_rank.shape == (5, 6)
    for idx in np.ndindex(5, 6):
        one = first_order_recovery(
            ds.singularity[idx], ds.probes, sigma[idx], *args, alpha_sq[idx], h0[idx]
        )
        for name in ("H", "W1", "residual", "singular_values"):
            np.testing.assert_allclose(
                getattr(grid, name)[idx], getattr(one, name), rtol=1e-12, atol=1e-14
            )
        assert grid.design_rank[idx] == one.design_rank == 3
        for (Hg, Wg), (H1, W1) in zip(grid.kernel_basis(idx), one.kernel_basis(), strict=True):
            np.testing.assert_array_equal(Hg, H1)
            assert Wg == W1
    with pytest.raises(ValueError, match="last axis of length n=2"):
        first_order_recovery(ds.singularity, ds.probes[:, :1], sigma, *args, alpha_sq, h0)


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
    assert report.residuals["sigma_consistency"] <= 1e-8
    assert report.residuals["h0_cross_energy"] <= 1e-8
    assert any("jets of order" in note for note in report.notes)


def test_driver_single_energy_partial():
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(4.0),))
    report = layer_strip_driver(ds)
    assert report.status.startswith("partial")
    assert report.h0 is not None and report.alpha_sq is None


def test_driver_single_energy_with_known_alpha():
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(4.0),))
    report = layer_strip_driver(ds, InversionConfig(alpha_sq_known=1.1**2))
    assert report.status == "ok"
    np.testing.assert_allclose(report.v0, 0.4, atol=1e-8)
    assert any("a priori" in note for note in report.notes)


def test_driver_known_alpha_checks_realness():
    """A wrong known alpha^2 at a complex energy gives a complex V0: refused."""
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    ds = forward_dataset(patch, (ComplexEnergy(3 + 0.5j),))
    report = layer_strip_driver(ds, InversionConfig(alpha_sq_known=1.1**2))
    np.testing.assert_allclose(report.v0, 0.4, atol=1e-8)
    assert report.residuals["zeroth_order_realness"] <= 1e-12
    with pytest.raises(
        InconsistentData,
        match=r"\[stage zeroth-order\] recovered alpha\^2/V0 not real to tolerance "
        r"\(residual 2\.92\de-01\) at grid index \(0, 0\)$",
    ):
        layer_strip_driver(ds, InversionConfig(alpha_sq_known=2.0))


def test_driver_refuses_known_alpha_with_two_energies():
    """With two energies alpha^2 comes from the data; a known value would be ignored."""
    truth, ds = make_synthetic_pair(seed=7, n=2)
    with pytest.raises(
        ConfigError,
        match=r"^alpha_sq_known applies to one energy only; the dataset has 2 energies",
    ):
        layer_strip_driver(ds, InversionConfig(alpha_sq_known=3.0 * truth.alpha**2))


def test_driver_refuses_inadmissible_energy():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    # lambda^2 = -2 is a mode value for this patch, so the screen trips
    ds = forward_dataset(patch, (ComplexEnergy(1j * math.sqrt(2.0)), ComplexEnergy(4.0)))
    report = layer_strip_driver(ds)
    assert report.status == "refused"
    assert report.notes and report.sigma1 is None


def _with_symbol(ds, index, value):
    """``ds`` with one symbol sample replaced (datasets are read-only)."""
    symbols = ds.symbols.copy()
    symbols[index] = value
    return dataclasses.replace(ds, symbols=symbols)


def test_driver_stage_labels_on_failure():
    truth, ds = make_synthetic_pair(seed=3, n=2, with_first_order=False)
    bad = _with_symbol(ds, (0, 0, 0, 0), [0j, 0j])
    with pytest.raises(ZeroSymbol, match=r"\[stage sigma\].*grid index \(0, 0\)"):
        layer_strip_driver(bad)
    # the sample names the energy and the covector
    bad = _with_symbol(ds, (1, 2, 3, 1), [0j, 0j])
    with pytest.raises(ZeroSymbol, match=r"grid index \(2, 3\), sample \(1, 1\)$"):
        layer_strip_driver(bad)


@pytest.mark.parametrize("with_first_order", [False, True])
def test_driver_refuses_non_finite_norm(with_first_order):
    """Finite but huge samples overflow the norm: an error, not a NaN report."""
    _, ds = make_synthetic_pair(seed=3, n=2, with_first_order=with_first_order)
    big = dataclasses.replace(ds, symbols=ds.symbols * 1e308)
    with pytest.raises(
        InconsistentData,
        match=r"\[stage sigma\] recovered covector norm nan is not finite "
        r"at grid index \(0, 0\), sample \(0, 0\)$",
    ):
        layer_strip_driver(big)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_driver_names_the_stage_of_a_linalg_failure():
    _, ds = make_synthetic_pair(seed=3, n=2)
    with pytest.raises(
        InconsistentData, match=r"^\[stage first-order\] linear algebra failed: SVD did not"
    ):
        layer_strip_driver(dataclasses.replace(ds, t_pair=(1e308, 1e308)))


def test_driver_checks_the_metric_at_every_energy():
    patch = constant_patch(2, 1.1, 0.4, np.diag([2.0, 1.0]))
    energies = tuple(ComplexEnergy(lam) for lam in (4.0, 5.0, 5.5))
    ds = forward_dataset(patch, energies)
    report = layer_strip_driver(ds)
    assert report.status == "ok" and report.residuals["h0_cross_energy"] <= 1e-12
    # scaling both samples of one pair keeps sigma and moves only that norm
    symbols = ds.symbols.copy()
    symbols[2, 1, 2, 2] *= 1e6
    with pytest.raises(
        NotPositiveDefinite, match=r"^\[stage metric\].*grid index \(1, 2\), sample \(2,\)$"
    ):
        layer_strip_driver(dataclasses.replace(ds, symbols=symbols))


def test_driver_detects_inconsistent_homogeneity():
    truth, ds = make_synthetic_pair(seed=3, n=2, with_first_order=False)
    v, vt = ds.symbols[0, 0, 0, 0]
    bad = _with_symbol(ds, (0, 0, 0, 0), [v, 1.5 * vt])
    with pytest.raises(InconsistentData, match=r"\[stage sigma\].*disagree"):
        layer_strip_driver(bad)


def test_driver_rejects_nan_symbol_pair():
    """A NaN pair never reaches layer_strip_driver: the dataset refuses it when built."""
    _, ds = make_synthetic_pair(seed=3, n=2, with_first_order=False)
    with pytest.raises(ConfigError, match=r"symbols: .* not finite at grid index \(1, 0\)"):
        _with_symbol(ds, (0, 1, 0, 0, 1), complex(math.nan, 0.0))


def test_driver_round_trip_on_varying_patch():
    """Every field recovered point by point where every field varies."""
    patch1, patch2, energies, H = varying_patch_pair(seed=29)
    ds = forward_dataset(patch1, energies, patch2=patch2, t_pair=(1.0 + 0j, 1.0 + 0j))
    report = layer_strip_driver(ds)
    assert report.status == "ok"
    sigmas = [indicial_root(patch1, en) for en in energies]
    np.testing.assert_allclose(report.sigma1, sigmas[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.sigma2, sigmas[1], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.h0, patch1.h_jet[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.alpha_sq, patch1.alpha**2, rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.v0, patch1.v_jet[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.H, H, rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.W1, 0.0, rtol=0, atol=1e-8)


def test_driver_refuses_an_energy_whose_square_overflows():
    _, ds = make_synthetic_pair(seed=3, n=2, with_first_order=False)
    for exceptional in (ds.exceptional, None):
        huge = dataclasses.replace(ds, energies=(1e200, ds.energies[1]), exceptional=exceptional)
        with pytest.raises(ConfigError, match=r"^energy \(1e\+200\+0j\): lambda\^2 = \(inf\+0j\)"):
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
    patch1 = constant_patch(n, alpha, v0, h0, v1=0.1, h1=np.zeros((n, n)))
    patch2 = constant_patch(n, alpha, v0, h0, v1=0.1, h1=h0 @ H @ h0)
    energies = draw_admissible_energies(rng, patch1)
    ds = forward_dataset(patch1, energies, patch2=patch2)
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
        symbols=ds.symbols[:1],
        singularity=None,
        probes=None,
        t_pair=None,
    )
    report = layer_strip_driver(one, InversionConfig(alpha_sq_known=alpha_sq))
    assert report.status == "ok"
    np.testing.assert_array_equal(report.alpha_sq, alpha_sq)
    np.testing.assert_allclose(report.v0, v0, rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.h0, np.broadcast_to(h0, report.h0.shape), rtol=0, atol=1e-8)
