"""Symbol synthesis, angular kernels and probes."""
import math

import numpy as np
import pytest

from scatjet.boundary_jets import (
    ComplexEnergy,
    PerturbationData,
    indicial_root,
    perturbation_coefficients,
)
from scatjet.errors import GammaPole, ZeroCovector
from scatjet.forward_scattering import (
    default_probe_set,
    polarization_covectors,
    prefactor_and_poles,
    principal_symbol,
    singularity_coefficient,
    symmetric_pairs,
)
from scatjet.synthetic import constant_patch, make_synthetic_pair

from oracles import (
    hessian_profile_sym,
    kernel_singularity_coefficient,
    radial_derivative_kernel,
    solve_log_norm,
)
from varying_patch import varying_patch_pair


def _pd(n, H, T=0.0, W1=0.0):
    """Hand-assembled perturbation data (fields used as given by the forward map)."""
    return PerturbationData(n=n, H=np.asarray(H, dtype=float), T=T, W1=W1)


# -- Gamma prefactor and symbol ---------------------------------------------


def test_prefactor_half_integer_value():
    # 2^(1-2) * Gamma(-1/2)/Gamma(1/2) = (1/2)(-2 sqrt(pi))/sqrt(pi) = -1
    value, (at_pole, _, _) = prefactor_and_poles(np.asarray(1.0 + 0j), 1)
    assert complex(value) == pytest.approx(-1.0, abs=1e-12)
    assert not at_pole


def test_prefactor_pole_detection():
    # sigma - n/2 = 1 and 0 are integers; just off the pole, and past 2^52,
    # where every double is an integer, no pole is named
    for sigma, n, pole in (
        (2.0, 2, True),
        (1.5, 3, True),
        (2.0 + 1e-6, 2, False),
        (2.0 + 1e-6j, 2, False),
        (2.0**53, 2, False),
    ):
        _, (at_pole, _, _) = prefactor_and_poles(np.asarray(sigma, dtype=complex), n)
        assert bool(at_pole) is pole
    # lambda = i on alpha = 1, V0 = 0, n = 2 makes sigma - n/2 = 1: a pole at every point
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    named = r"= \(1\+0j\) is an integer: Gamma pole/zero in the prefactor at grid index \(0, 0\)"
    with pytest.raises(GammaPole, match=named + r", sample \(0,\)$"):
        principal_symbol(patch, [1.0, 0.0], (ComplexEnergy(1j),))
    # the first energy is regular: the pole is named as the second energy's sample
    with pytest.raises(GammaPole, match=named + r", sample \(1,\)$"):
        principal_symbol(patch, [1.0, 0.0], (ComplexEnergy(3.0), ComplexEnergy(1j)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prefactor_against_mpmath(n):
    """Within 1.5e-15 (relative) of 40-digit mpmath at real sigma, 2e-14 at complex sigma."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    half_off = rng.uniform(0.8, 3.0, 400)
    for sigma, bar in (
        (n / 2.0 + half_off, 1.5e-15),
        (n / 2.0 + half_off + 1j * rng.uniform(-1.0, 1.0, 400), 2e-14),
    ):
        got, (at_pole, _, _) = prefactor_and_poles(sigma.astype(complex), n)
        assert not at_pole.any()
        with mp.workdps(40):
            half_n = mp.mpf(n) / 2
            want = []
            for s in sigma:
                s = mp.mpc(s.real, s.imag)
                value = mp.power(2, n - 2 * s) * mp.gamma(half_n - s) / mp.gamma(s - half_n)
                want.append(complex(value))
        assert np.max(np.abs(got / np.array(want) - 1.0)) <= bar


def test_symbol_closed_value_n1():
    patch = constant_patch(1, 1.0, 0.0, np.eye(1))
    # alpha = 1, V0 = 0, lambda = i/2: sigma = 1/2 + sqrt(1/2 + lambda^2) = 1
    values = principal_symbol(patch, [1.0], (ComplexEnergy(0.5j),))[0]
    assert values.shape == (4,)
    np.testing.assert_allclose(values, -1.0, atol=1e-12)


def test_symbol_homogeneity():
    rng = np.random.default_rng(7)
    patch = constant_patch(2, 1.3, 0.4, np.diag([2.0, 0.5]))
    en = ComplexEnergy(2.0 + 1.5j)
    sigma = indicial_root(patch, en)[0, 0]
    xi = rng.standard_normal((50, 2))
    scales = np.array([1.0, 2.0, 4.0, 8.0])
    values = principal_symbol(patch, scales[:, None, None] * xi, (en,))[0]
    assert values.shape == (4, 4, 4, 50)
    base = values[0, 0, 0]
    for t, scaled in zip(scales[1:], values[0, 0, 1:]):
        assert np.all(np.abs(scaled - t ** (2 * sigma - 2) * base) <= 1e-10 * np.abs(base))


def test_symbol_log_slope():
    patch = constant_patch(2, 1.0, 0.3, np.eye(2))
    en = ComplexEnergy(1.0 + 2.0j)
    sigma = indicial_root(patch, en)[0, 0]
    xi = np.array([0.6, -0.8])
    ts = np.array([1.0, 2.0, 4.0, 8.0])
    vals = np.abs(principal_symbol(patch, np.outer(ts, xi), (en,))[0][0, 0])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(2 * sigma.real - 2, abs=1e-10)


def test_symbol_isotropy_for_euclidean_metric():
    patch = constant_patch(2, 1.0, 0.2, np.eye(2))
    en = ComplexEnergy(3.0j)
    angles = np.array([0.0, 0.7, 2.1])
    vals = principal_symbol(
        patch, np.stack([np.cos(angles), np.sin(angles)], axis=-1), (en,)
    )[0][0, 0]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)


def test_symbol_zero_covector():
    patch = constant_patch(2, 1.0, 0.2, np.eye(2))
    with pytest.raises(ZeroCovector):
        principal_symbol(patch, [0.0, 0.0], (ComplexEnergy(3.0j),))
    with pytest.raises(ZeroCovector):
        principal_symbol(patch, [[1.0, 0.0], [0.0, 0.0]], (ComplexEnergy(3.0j),))


def test_symbol_energy_axis_equals_one_energy_calls():
    """The energies share one norm pass, and each keeps the bits of its own call."""
    patch, _, energies, _ = varying_patch_pair(seed=43)
    xi = np.array([[[1.0, 0.0], [2.0, 0.0]], [[0.3, -1.7], [0.6, -3.4]]])
    for pair in (energies, (ComplexEnergy(2.0 + 3.0j), ComplexEnergy(1.5 - 0.5j))):
        both = principal_symbol(patch, xi, pair)
        assert both.shape == (2,) + patch.grid_shape + (2, 2)
        for e, en in enumerate(pair):
            assert both[e].tobytes() == principal_symbol(patch, xi, (en,))[0].tobytes()


def test_symbol_matches_pointwise_formula_on_varying_patch():
    """The grid evaluation against the closed form written out point by point."""
    patch, _, energies, _ = varying_patch_pair(seed=41)
    n = patch.n
    xi = np.array([[1.0, 0.0], [0.3, -1.7], [2.0, 2.0]])
    for en in energies:
        got = principal_symbol(patch, xi, (en,))[0]
        assert got.shape == patch.grid_shape + (3,)
        worst = 0.0
        for idx in np.ndindex(*patch.grid_shape):
            alpha = float(patch.alpha[idx])
            v0 = float(patch.v_jet[0][idx])
            lam = en.lam.real
            sigma = n / 2 + math.sqrt((n / 2) ** 2 - (v0 - lam * lam - n * n / 4) / alpha**2)
            pref = 2.0 ** (n - 2 * sigma) * math.gamma(n / 2 - sigma) / math.gamma(sigma - n / 2)
            h0_inv = np.linalg.inv(patch.h_jet[0][idx])
            for k, row in enumerate(xi):
                norm = math.sqrt(row @ h0_inv @ row)
                want = pref * norm ** (2 * sigma - n)
                worst = max(worst, abs(got[idx + (k,)] - want) / abs(want))
        assert worst <= 1e-12


# -- angular derivative kernel ----------------------------------------------


def test_kernel_worked_matrix():
    D = radial_derivative_kernel([1.0, 0.0], 2.0)
    np.testing.assert_allclose(D, [[2.0, 0.0], [0.0, -1.0]], atol=1e-14)


def test_kernel_trace_formula():
    for n, sigma in ((1, 1.7), (2, 2.0), (3, 2.3 + 0.4j)):
        omega = np.zeros(n)
        omega[-1] = 1.0
        D = radial_derivative_kernel(omega, sigma)
        assert np.trace(D) == pytest.approx((3 - 2 * sigma) * (n + 1 - 2 * sigma), abs=1e-12)


def test_kernel_matches_symbolic_hessian():
    """Cross-check against direct symbolic differentiation of the radial power."""
    omega = np.array([0.6, 0.8])
    for sigma in (2.0, 1.5):
        want = hessian_profile_sym(sigma, omega)
        got = radial_derivative_kernel(omega, sigma)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_kernel_rotation_equivariance():
    rng = np.random.default_rng(19)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        omega = rng.standard_normal(2)
        omega /= np.linalg.norm(omega)
        lhs = radial_derivative_kernel(R @ omega, 2.2)
        rhs = R @ radial_derivative_kernel(omega, 2.2) @ R.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kernel_requires_unit_probe():
    with pytest.raises(ValueError):
        radial_derivative_kernel([1.0, 1.0], 2.0)
    with pytest.raises(ValueError):
        radial_derivative_kernel([math.nan, 0.0], 2.0)
    with pytest.raises(ValueError, match=r"^omega: probe 1 \(0\.6, 0\.6\) is not a unit vector$"):
        radial_derivative_kernel([[1.0, 0.0], [0.6, 0.6]], 2.0)
    with pytest.raises(ValueError, match=r"^omega: probe 0 \(1\.00000000005, 0\.0\)"):
        radial_derivative_kernel([1.00000000005, 0.0], 2.0)


def test_kernel_stacks_probes_and_roots():
    """A (P, n) probe stack against a grid of roots equals the one-at-a-time kernels."""
    probes = default_probe_set(3)
    sigma = np.array([[2.0, 2.5 + 0.3j], [1.7, 3.1]])
    got = radial_derivative_kernel(probes, sigma[..., None])
    assert got.shape == (2, 2, len(probes), 3, 3)
    for idx in np.ndindex(2, 2):
        for k, w in enumerate(probes):
            np.testing.assert_array_equal(got[idx][k], radial_derivative_kernel(w, sigma[idx]))


# -- probes -----------------------------------------------------------------


def test_default_probe_set_layout():
    """The e_i, then (e_i + e_j)/sqrt(2) and (e_i - e_j)/sqrt(2) per pair i < j, row by row."""
    r = 1.0 / math.sqrt(2.0)
    want = {
        1: [[1.0]],
        2: [[1.0, 0.0], [0.0, 1.0], [r, r], [r, -r]],
        3: [
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [r, r, 0.0], [r, -r, 0.0],
            [r, 0.0, r], [r, 0.0, -r],
            [0.0, r, r], [0.0, r, -r],
        ],
    }
    for n, rows in want.items():
        probes = default_probe_set(n)
        assert probes.dtype == np.float64
        # the bits, signed zeros included
        np.testing.assert_array_equal(probes.view(np.uint64), np.array(rows).view(np.uint64))


def test_n_only_tables_are_shared_and_read_only():
    """Each table is built once per n; no caller can change the shared copy."""
    for n in (1, 2, 3):
        tables = (*symmetric_pairs(n), polarization_covectors(n), default_probe_set(n))
        again = (*symmetric_pairs(n), polarization_covectors(n), default_probe_set(n))
        for table, same in zip(tables, again):
            assert same is table and not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


# -- singularity coefficient ------------------------------------------------


def test_singularity_zero_data():
    pd = _pd(2, np.zeros((2, 2)))
    F = singularity_coefficient(pd, 1.0, 2.0, 1.0, 1.0, [[1.0, 0.0]])
    assert F.shape == (1,) and F[0] == 0.0


def test_singularity_linearity():
    rng = np.random.default_rng(31)
    H1 = rng.standard_normal((2, 2))
    H1 = H1 + H1.T
    H2 = rng.standard_normal((2, 2))
    H2 = H2 + H2.T
    omega = [[0.0, 1.0]]
    args = (1.2, 2.3, 0.7 + 0.1j, 1.1, omega)
    a, b = 2.0, -0.5
    f1 = singularity_coefficient(_pd(2, H1, W1=0.4), *args)
    f2 = singularity_coefficient(_pd(2, H2, W1=-1.0), *args)
    fc = singularity_coefficient(_pd(2, a * H1 + b * H2, W1=a * 0.4 + b * -1.0), *args)
    assert fc == pytest.approx(a * f1 + b * f2, rel=1e-12)


def test_singularity_worked_identity_case():
    # H = I, T = 2, W = 0, t1 = t2 = 1, sigma = 2, n = 2, omega = e1:
    # sum H_ij D_ij = trace D = (3-4)(2+1-4) = 1, so F = 1 + alpha^2/2
    for alpha in (1.0, 1.3):
        pd = _pd(2, np.eye(2), T=2.0)
        (F,) = singularity_coefficient(pd, alpha, 2.0, 1.0, 1.0, [[1.0, 0.0]])
        assert F == pytest.approx(1.0 + alpha**2 / 2.0, rel=1e-12)


def test_singularity_quadratic_form_decomposition():
    """F minus its omega-quadratic part is probe-independent."""
    rng = np.random.default_rng(13)
    H = rng.standard_normal((2, 2))
    H = H + H.T
    pd = _pd(2, H, T=1.1, W1=0.6)
    sigma, t1, t2 = 2.4, 0.9 + 0.2j, 1.3
    A = t1 * (3 - 2 * sigma) * (1 - 2 * sigma)
    probes = default_probe_set(2)
    F = singularity_coefficient(pd, 1.2, sigma, t1, t2, probes)
    consts = F - A * np.einsum("pi,ij,pj->p", probes, H, probes)
    assert np.max(np.abs(consts - consts[0])) <= 1e-10


def test_singularity_all_ones_varies_with_probe():
    pd = _pd(2, np.ones((2, 2)))
    vals = singularity_coefficient(pd, 1.0, 2.0, 1.0, 1.0, default_probe_set(2))
    assert vals.shape == (4,)
    assert np.ptp(vals.real) > 0.5


def test_singularity_consistent_with_patch_pipeline():
    """End-to-end through perturbation_coefficients instead of synthetic data."""
    h0 = np.diag([4.0, 1.0])
    L = np.array([[4.0, 2.0], [2.0, 1.0]])
    p1 = constant_patch(2, 1.0, 0.25, h0, v1=0.1, h1=np.zeros((2, 2)))
    p2 = constant_patch(2, 1.0, 0.25, h0, v1=0.1, h1=L)
    pd = perturbation_coefficients(p1, p2)
    F = singularity_coefficient(pd, p1.alpha, 2.0, 1.0, 1.0, [[1.0, 0.0]])
    assert F.shape == (4, 4, 1)
    # H = [[.25,.5],[.5,1]], D = diag(2,-1) at e1: sum H D = .5 - 1 = -.5
    # trace term: -(1-n) alpha^2 T/4 = 2/4 = 0.5 with T = 2
    np.testing.assert_allclose(F, -0.5 + 0.5, rtol=0, atol=1e-12)


def test_singularity_over_a_varying_grid_matches_each_point():
    """The grid call equals the one-point formula at every point of a varying patch."""
    patch1, patch2, energies, _ = varying_patch_pair(seed=29)
    sigma = indicial_root(patch1, energies[0])
    probes = default_probe_set(2)
    t1, t2 = 0.9 + 0.2j, 1.3 - 0.1j
    pd = perturbation_coefficients(patch1, patch2)
    F = singularity_coefficient(pd, patch1.alpha, sigma, t1, t2, probes)
    assert F.shape == patch1.grid_shape + (len(probes),)
    for idx in np.ndindex(*patch1.grid_shape):
        h0 = patch1.h_jet[0][idx]
        L = patch2.h_jet[1][idx] - patch1.h_jet[1][idx]
        H = np.linalg.solve(h0, np.linalg.solve(h0, L).T)
        T = np.trace(np.linalg.solve(h0, L))
        for k, w in enumerate(probes):
            s = sigma[idx]
            quad = (3 - 2 * s) * (np.trace(H) + (1 - 2 * s) * (w @ H @ w))
            want = t1 * quad - t2 * patch1.alpha[idx] ** 2 * (1 - 2) * T / 4
            assert F[idx][k] == pytest.approx(want, rel=1e-12)
    # one (P, n) array of probes, nothing else
    for bad in ([[1.0]], [1.0, 0.0], [[[1.0, 0.0]]], np.zeros((0, 2))):
        with pytest.raises(ValueError, match=r"^omega: expected an array of shape \(P, 2\) with P >= 1"):
            singularity_coefficient(pd, patch1.alpha, sigma, t1, t2, bad)


def test_singularity_of_a_point_alone_has_the_bits_of_its_grid():
    """A point's F alone equals its F in the grid bit for bit, so repeats are byte-identical."""
    for seed in (29, 31, 37):
        patch1, patch2, energies, _ = varying_patch_pair(seed=seed)
        pd = perturbation_coefficients(patch1, patch2)
        sigma = indicial_root(patch1, energies[0])
        args = (0.9 + 0.2j, 1.3 - 0.1j, default_probe_set(2))
        grid = singularity_coefficient(pd, patch1.alpha, sigma, *args)
        for idx in np.ndindex(*patch1.grid_shape):
            one = PerturbationData(n=2, H=pd.H[idx], T=pd.T[idx], W1=pd.W1[idx])
            alone = singularity_coefficient(one, patch1.alpha[idx], sigma[idx], *args)
            assert alone.tobytes() == grid[idx].tobytes()


def _rounding_cases():
    """``(patch, energies, pd)`` at ``make_synthetic_pair`` seeds 600-624 for n = 1..3
    (the patch and ``pd`` rebuilt from the truth) and at the varying seeds 29, 31, 37."""
    for seed in range(600, 625):
        for n in (1, 2, 3):
            truth, ds = make_synthetic_pair(seed, n)
            patch = constant_patch(n, truth.alpha, truth.v0, truth.h0)
            H = np.broadcast_to(truth.H, patch.grid_shape + (n, n))
            pd = PerturbationData(n=n, H=H, T=np.trace(truth.h0 @ truth.H), W1=truth.W1)
            yield patch, tuple(ComplexEnergy(lam) for lam in ds.energies), pd
    for seed in (29, 31, 37):
        patch1, patch2, energies, _ = varying_patch_pair(seed=seed)
        yield patch1, energies, perturbation_coefficients(patch1, patch2)


def test_symbol_norms_match_the_solve_oracle():
    """Norms from the patch's kept inverse of h0 move each symbol by rounding only."""
    worst = 0.0
    for patch, energies, _ in _rounding_cases():
        n = patch.n
        covectors = polarization_covectors(n)
        xi = np.stack([covectors, 2.0 * covectors], axis=1)
        got = principal_symbol(patch, xi, energies)
        log_norm = solve_log_norm(patch.h_jet[0], xi)
        pad = patch.grid_shape + (1, 1)
        for e, en in enumerate(energies):
            exponent = (2.0 * indicial_root(patch, en) - n).reshape(pad)
            want = prefactor_and_poles(indicial_root(patch, en), n)[0].reshape(pad) * np.exp(
                exponent * log_norm
            )
            # the relative move of |xi|_{h0} that the symbols imply
            worst = max(worst, np.max(np.abs(np.log(got[e] / want) / exponent)))
    assert worst <= 1e-14


def test_singularity_matches_the_kernel_oracle():
    """F as the probe matrix times T u equals F from the Hessian kernel, to rounding."""
    for patch, energies, pd in _rounding_cases():
        sigma = indicial_root(patch, energies[0])
        probes = default_probe_set(patch.n)
        for t1, t2 in ((1.0, 1.0), (0.9 + 0.2j, 1.3 - 0.1j)):
            got = singularity_coefficient(pd, patch.alpha, sigma, t1, t2, probes)
            want = kernel_singularity_coefficient(pd, patch.alpha, sigma, t1, t2, probes)
            assert got.shape == want.shape == patch.grid_shape + (len(probes),)
            # at n = 1 a traceless H and W1 = 0 make F vanish: both read 0 exactly
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

