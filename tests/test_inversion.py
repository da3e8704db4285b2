"""Stage-by-stage recovery tests, mostly exact algebraic round trips."""
import dataclasses
import math

import numpy as np
import pytest

from scatjet.boundary_jets import ComplexEnergy, PerturbationData, indicial_root_at
from scatjet.errors import (
    BranchAmbiguity,
    DegenerateEnergies,
    InconsistentData,
    NotPositiveDefinite,
    ZeroIntegralFactor,
    ZeroSymbol,
)
from scatjet.forward_scattering import (
    ProbeSet,
    covector_norm,
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
from scatjet.synthetic import constant_patch, forward_dataset, make_synthetic_pair


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
    assert rec.prefactor_imag_residual <= 1e-12


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
    xi = [0.6, 0.8]
    v = principal_symbol(patch, (0, 0), xi, en).value
    vt = principal_symbol(patch, (0, 0), [2 * x for x in xi], en).value
    rec = recover_sigma_from_symbol(v, vt, 2.0, 2)
    assert rec.sigma == pytest.approx(indicial_root_at(patch, (0, 0), en), abs=1e-12)
    assert rec.norm == pytest.approx(1.0, abs=1e-12)  # h0 = I and |xi| = 1


def test_sigma_zero_and_scale_validation():
    with pytest.raises(ZeroSymbol):
        recover_sigma_from_symbol(0.0, 1.0, 2.0, 2)
    for t in (1.0, 0.0, -2.0):
        with pytest.raises(ValueError):
            recover_sigma_from_symbol(1.0, 1.0, t, 2)


def test_sigma_branch_ambiguity():
    # ratio t^(2(sigma - n/2)) with sigma = n/2 - 1/2 sits below the
    # principal half-plane no matter which log branch is used
    with pytest.raises(BranchAmbiguity):
        recover_sigma_from_symbol(1.0, 0.5, 2.0, 2)


def test_sigma_phase_leak_detected():
    """An extraneous complex phase on the samples shows up in the residual."""
    v, vt = _symbol_pair(2.3, 1.7, 2.0, 2)
    phase = np.exp(0.3j)
    dirty = recover_sigma_from_symbol(v * phase, vt * phase, 2.0, 2)
    assert dirty.prefactor_imag_residual > 0.01


# -- metric stage -----------------------------------------------------------


def test_metric_identity():
    norms = {(0,): 1.0, (1,): 1.0, (0, 1): math.sqrt(2.0)}
    np.testing.assert_allclose(metric_boundary_recovery(norms, 2), np.eye(2), atol=1e-12)


def test_metric_worked_diagonal():
    # h0 = diag(4, 1): quadratic form values 1/4, 1, 5/4
    norms = {(0,): 0.5, (1,): 1.0, (0, 1): math.sqrt(1.25)}
    got = metric_boundary_recovery(norms, 2)
    np.testing.assert_allclose(got, np.diag([4.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_metric_random_round_trip(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        from scatjet.synthetic import random_spd

        h0 = random_spd(rng, n)
        eye = np.eye(n)
        norms = {(i,): covector_norm(eye[i], h0) for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                norms[(i, j)] = covector_norm(eye[i] + eye[j], h0)
        np.testing.assert_allclose(metric_boundary_recovery(norms, n), h0, atol=1e-10)


def test_metric_rejects_indefinite():
    norms = {(0,): 1.0, (1,): 1.0, (0, 1): 5.0}
    with pytest.raises(NotPositiveDefinite):
        metric_boundary_recovery(norms, 2)


def test_metric_missing_sample():
    with pytest.raises(InconsistentData, match="missing"):
        metric_boundary_recovery({(0,): 1.0, (1,): 1.0}, 2)


# -- zeroth-order algebra ---------------------------------------------------


def test_two_energy_worked_example():
    patch = constant_patch(2, 1.3, 0.7, np.eye(2))
    s1 = indicial_root_at(patch, (0, 0), ComplexEnergy(3j))
    s2 = indicial_root_at(patch, (0, 0), ComplexEnergy(5j))
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
    s1 = indicial_root_at(patch, (0, 0), ComplexEnergy(3j))
    s2 = indicial_root_at(patch, (0, 0), ComplexEnergy(5j))
    with pytest.raises(InconsistentData, match="positive"):
        two_energy_recovery(s2, s1, 3j, 5j, 2)


# -- first-order fit --------------------------------------------------------


def _samples(H, W1, h0, alpha, sigma, t1, t2, probes=None):
    n = H.shape[0]
    pd = PerturbationData(
        n=n, L=h0 @ H @ h0, H=H, T=float(np.trace(h0 @ H)), W=(0.0, W1)
    )
    probes = probes if probes is not None else default_probe_set(n)
    return [
        singularity_coefficient(pd, h0, alpha, sigma, t1, t2, w) for w in probes
    ]


def test_first_order_zero_data():
    samples = _samples(np.zeros((2, 2)), 0.0, np.eye(2), 1.0, 2.3, 1.0, 1.0)
    res = first_order_recovery(samples, 2.3, 1.0, 1.0, 1.0, np.eye(2))
    assert np.max(np.abs(res.H)) <= 1e-12
    assert abs(res.W1) <= 1e-12
    assert res.residual <= 1e-12


def test_first_order_traceless_exact():
    H = np.diag([1.0, -1.0])
    h0 = np.diag([4.0, 1.0])
    samples = _samples(H, 0.0, h0, 1.2, 2.4, 1.0, 1.0)
    res = first_order_recovery(samples, 2.4, 1.0, 1.0, 1.2**2, h0)
    np.testing.assert_allclose(res.H, H, atol=1e-8)
    assert abs(res.W1) <= 1e-8
    assert res.residual <= 1e-10
    assert res.design_rank == 3  # 4 unknowns, one structural kernel direction
    assert len(res.kernel_basis) == 1
    assert res.identity_direction_sv <= 1e-8 * res.singular_values[0]
    assert res.labels == ("H11", "H22", "H12", "W")


def test_first_order_kernel_direction():
    """The unresolved direction is (identity, constant) with the fixed slope."""
    sigma, t1, t2, alpha, n = 2.4, 1.0 + 0.0j, 1.0 + 0.0j, 1.2, 2
    h0 = np.diag([4.0, 1.0])
    samples = _samples(np.diag([1.0, -1.0]), 0.0, h0, alpha, sigma, t1, t2)
    res = first_order_recovery(samples, sigma, t1, t2, alpha**2, h0)
    Hk, Wk = res.kernel_basis[0]
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
    res = first_order_recovery(samples, 2.4, 1.0, 1.0, 1.0, h0)
    assert res.residual <= 1e-10  # data still fit perfectly
    dH = res.H - H
    dW = res.W1 - 0.7
    assert abs(dW) > 1e-3  # genuinely not the truth
    Hk, Wk = res.kernel_basis[0]
    scale = dW / Wk
    np.testing.assert_allclose(dH, scale * Hk, atol=1e-8)


def test_first_order_probe_rotation_invariance():
    H = np.array([[0.4, 0.3], [0.3, -0.4]])
    h0 = np.eye(2)
    theta = 0.37
    c, s = math.cos(theta), math.sin(theta)
    base = default_probe_set(2)
    rotated = ProbeSet(
        tuple((c * w[0] - s * w[1], s * w[0] + c * w[1]) for w in base)
    )
    results = []
    for probes in (base, rotated):
        samples = _samples(H, 0.0, h0, 1.0, 2.4, 1.0, 1.0, probes=probes)
        results.append(first_order_recovery(samples, 2.4, 1.0, 1.0, 1.0, h0))
    np.testing.assert_allclose(results[0].H, results[1].H, atol=1e-8)
    assert abs(results[0].W1 - results[1].W1) <= 1e-8


def test_first_order_zero_factor():
    samples = _samples(np.zeros((2, 2)), 0.0, np.eye(2), 1.0, 2.3, 1.0, 1.0)
    with pytest.raises(ZeroIntegralFactor):
        first_order_recovery(samples, 2.3, 0.0, 1.0, 1.0, np.eye(2))


def test_first_order_n1_rank():
    samples = _samples(np.array([[0.0]]), 0.0, np.eye(1), 1.0, 2.1, 1.0, 1.0)
    res = first_order_recovery(samples, 2.1, 1.0, 1.0, 1.0, np.eye(1))
    assert res.design_rank == 1  # 2 unknowns collapse onto one usable direction
    assert res.identity_direction_sv <= 1e-6 * res.singular_values[0]


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


def test_driver_refuses_inadmissible_energy():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    # lambda^2 = -2 is a mode value for this patch, so the screen trips
    ds = forward_dataset(patch, (ComplexEnergy(1j * math.sqrt(2.0)), ComplexEnergy(4.0)))
    report = layer_strip_driver(ds)
    assert report.status == "refused"
    assert report.notes and report.sigma1 is None


def test_driver_stage_labels_on_failure():
    truth, ds = make_synthetic_pair(seed=3, n=2, with_first_order=False)
    idx = (0,) * len(ds.grid_shape)
    key = next(iter(ds.symbols[0][idx]))
    ds.symbols[0][idx][key] = (0j, 0j)
    with pytest.raises(ZeroSymbol, match=r"\[stage sigma\]"):
        layer_strip_driver(ds)


def test_driver_detects_inconsistent_homogeneity():
    truth, ds = make_synthetic_pair(seed=3, n=2, with_first_order=False)
    idx = (0,) * len(ds.grid_shape)
    key = next(iter(ds.symbols[0][idx]))
    v, vt = ds.symbols[0][idx][key]
    ds.symbols[0][idx][key] = (v, 1.5 * vt)
    with pytest.raises(InconsistentData, match=r"\[stage sigma\].*disagree"):
        layer_strip_driver(ds)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_driver_rejects_nan_symbol_pair():
    _, ds = make_synthetic_pair(seed=3, n=2, with_first_order=False)
    idx = (1, 0)
    first = {point: dict(pairs) for point, pairs in ds.symbols[0].items()}
    v, vt = first[idx][(0,)]
    first[idx][(0,)] = (v, complex(math.nan, 0.0))
    bad = dataclasses.replace(ds, symbols=(first,) + ds.symbols[1:])
    with pytest.raises(InconsistentData, match=r"\[stage sigma\].*grid index \(1, 0\)"):
        layer_strip_driver(bad)


def test_driver_rejects_non_dataset():
    with pytest.raises(TypeError, match="SymbolDataset"):
        layer_strip_driver({"n": 2})
