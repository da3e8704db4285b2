"""Symbol synthesis, angular kernels and probes."""
import math

import numpy as np
import pytest

from scatjet.boundary_jets import ComplexEnergy, indicial_root, polarization_covectors
from scatjet.errors import GammaPole, ScatjetError, ZeroCovector
from scatjet.forward_scattering import (
    default_probe_set,
    first_order_factors,
    prefactor_and_poles,
    principal_symbol,
    singularity_coefficient,
    symmetric_pairs,
)
from scatjet.synthetic import constant_patch, make_synthetic_pair, random_spd

from oracles import (
    hessian_profile_sym,
    kernel_singularity_coefficient,
    radial_derivative_kernel,
    solve_log_norm,
)
from varying_patch import varying_patch


def _jets(n, h1, v1=0.0, h0=None, alpha=1.0):
    """A constant patch with first-order jets ``h1`` and ``v1`` (``h0 = I`` unless given)."""
    h0 = np.eye(n) if h0 is None else h0
    return constant_patch(n, alpha, 0.25, h0, v1=v1, h1=np.asarray(h1, dtype=float))


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


@pytest.mark.parametrize("n,sigma", [(1, 2.3), (2, 2.7), (3, 3.1 + 0.4j), (2, 2.9 - 0.3j)])
def test_symbol_is_the_frobenius_ratio_of_the_model_ode(n, sigma):
    """The closed form against the model operator, by a route that shares no code with it.

    In ``s`` with ``z`` Fourier-transformed to ``xi``, the model equation is
    ``s^2 u'' + (1 - n) s u' = (s^2 |xi|^2 - sigma (n - sigma)) u``.  Its
    solution that decays as ``s -> inf`` is ``u = s^(n/2) K_nu(s |xi|)``,
    ``nu = sigma - n/2``, and ``K_nu(s |xi|) = A s^-nu 0F1(; 1 - nu; (s |xi|)^2/4)
    + B s^nu 0F1(; 1 + nu; (s |xi|)^2/4)``, so ``u = A s^(n - sigma) (...) +
    B s^sigma (...)``.  The symbol is ``B / A``: the prefactor times
    ``|xi|^(2 sigma - n)``, within 1e-12 relative.  mpmath checks the ODE by
    numerical differentiation and finds ``A`` and ``B`` from two values of
    ``K_nu``, all at 40 digits.
    """
    mp = pytest.importorskip("mpmath")
    xi = 1.3
    with mp.workdps(40):
        sig, k = mp.mpmathify(sigma), mp.mpf(xi)
        nu = sig - mp.mpf(n) / 2

        def u(s):
            return s ** (mp.mpf(n) / 2) * mp.besselk(nu, s * k)

        for s in (mp.mpf("0.3"), mp.mpf("0.7"), mp.mpf("2.1")):
            lhs = s**2 * mp.diff(u, s, 2) + (1 - n) * s * mp.diff(u, s)
            rhs = (s**2 * k**2 - sig * (n - sig)) * u(s)
            assert abs(lhs - rhs) <= mp.mpf("1e-25") * abs(rhs)

        def frobenius(s):
            x = (s * k) ** 2 / 4
            return [s**-nu * mp.hyp0f1(1 - nu, x), s**nu * mp.hyp0f1(1 + nu, x)]

        points = (mp.mpf("0.3"), mp.mpf("0.7"))
        A, B = mp.lu_solve(
            mp.matrix([frobenius(s) for s in points]),
            mp.matrix([mp.besselk(nu, s * k) for s in points]),
        )
        ratio = complex(B / A)
    pref, (at_pole, _, _) = prefactor_and_poles(np.asarray(sigma), n)
    assert not at_pole
    want = complex(pref) * xi ** (2 * sigma - n)
    assert abs(ratio - want) <= 1e-12 * abs(ratio)


def test_symbol_closed_value_n1():
    patch = constant_patch(1, 1.0, 0.0, np.eye(1))
    # alpha = 1, V0 = 0, lambda = i/2: sigma = 1/2 + sqrt(1/2 + lambda^2) = 1
    values = principal_symbol(patch, [1.0], (ComplexEnergy(0.5j),))[1][:, 0]
    assert values.shape == (4,)
    np.testing.assert_allclose(values, -1.0, atol=1e-12)


def test_symbol_homogeneity():
    rng = np.random.default_rng(7)
    patch = constant_patch(2, 1.3, 0.4, np.diag([2.0, 0.5]))
    en = ComplexEnergy(2.0 + 1.5j)
    sigma = indicial_root(patch, en)[0, 0]
    xi = rng.standard_normal((50, 2))
    scales = np.array([1.0, 2.0, 4.0, 8.0])
    values = principal_symbol(patch, scales[:, None, None] * xi, (en,))[1][:, :, 0]
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
    vals = np.abs(principal_symbol(patch, np.outer(ts, xi), (en,))[1][0, 0, 0])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(2 * sigma.real - 2, abs=1e-10)


def test_symbol_isotropy_for_euclidean_metric():
    patch = constant_patch(2, 1.0, 0.2, np.eye(2))
    en = ComplexEnergy(3.0j)
    angles = np.array([0.0, 0.7, 2.1])
    vals = principal_symbol(
        patch, np.stack([np.cos(angles), np.sin(angles)], axis=-1), (en,)
    )[1][0, 0, 0]
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
    patch, energies, _ = varying_patch(seed=43)
    xi = np.array([[[1.0, 0.0], [2.0, 0.0]], [[0.3, -1.7], [0.6, -3.4]]])
    for pair in (energies, (ComplexEnergy(2.0 + 3.0j), ComplexEnergy(1.5 - 0.5j))):
        both = principal_symbol(patch, xi, pair)[1]
        assert both.shape == patch.grid_shape + (2, 2, 2)
        for e, en in enumerate(pair):
            one = principal_symbol(patch, xi, (en,))[1][..., 0, :, :]
            assert both[..., e, :, :].tobytes() == one.tobytes()


def test_symbol_matches_pointwise_formula_on_varying_patch():
    """The grid evaluation against the closed form written out point by point."""
    patch, energies, _ = varying_patch(seed=41)
    n = patch.n
    xi = np.array([[1.0, 0.0], [0.3, -1.7], [2.0, 2.0]])
    for en in energies:
        got = principal_symbol(patch, xi, (en,))[1][..., 0, :]
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
    F = singularity_coefficient(_jets(2, np.zeros((2, 2))), 2.0, 1.0, 1.0, [[1.0, 0.0]])
    assert F.shape == (4, 4, 1) and not F.any()


def test_singularity_refusal_names_the_grid_index_and_the_probe():
    """A sample past double range names the first grid index and, as the sample, the probe."""
    patch = _jets(2, np.diag([1e308, 1e308]))
    with pytest.raises(
        ScatjetError,
        match=r"^singularity coefficient at probe \(1\.0, 0\.0\) leaves double range "
        r"at grid index \(0, 0\), sample \(0,\)$",
    ):
        singularity_coefficient(patch, 2.5, 1, 1, default_probe_set(2))


def test_singularity_linearity():
    rng = np.random.default_rng(31)
    H1 = rng.standard_normal((2, 2))
    H1 = H1 + H1.T
    H2 = rng.standard_normal((2, 2))
    H2 = H2 + H2.T
    h0 = random_spd(rng, 2)
    omega = [[0.0, 1.0]]
    args = (2.3, 0.7 + 0.1j, 1.1, omega)
    a, b = 2.0, -0.5

    def samples(h1, v1):
        return singularity_coefficient(_jets(2, h1, v1, h0, alpha=1.2), *args)

    f1 = samples(H1, 0.4)
    f2 = samples(H2, -1.0)
    fc = samples(a * H1 + b * H2, a * 0.4 + b * -1.0)
    np.testing.assert_allclose(fc, a * f1 + b * f2, rtol=1e-12)


def test_singularity_worked_identity_case():
    # h0 = I and h^(1) = I: H = I, T = 2, W = 0, t1 = t2 = 1, sigma = 2, n = 2, omega = e1:
    # sum H_ij D_ij = trace D = (3-4)(2+1-4) = 1, so F = 1 + alpha^2/2
    for alpha in (1.0, 1.3):
        F = singularity_coefficient(_jets(2, np.eye(2), alpha=alpha), 2.0, 1.0, 1.0, [[1.0, 0.0]])
        np.testing.assert_allclose(F, 1.0 + alpha**2 / 2.0, rtol=1e-12)


def test_singularity_quadratic_form_decomposition():
    """F minus its omega-quadratic part is probe-independent."""
    rng = np.random.default_rng(13)
    H = rng.standard_normal((2, 2))
    H = H + H.T
    sigma, t1, t2 = 2.4, 0.9 + 0.2j, 1.3
    A = t1 * (3 - 2 * sigma) * (1 - 2 * sigma)
    probes = default_probe_set(2)
    F = singularity_coefficient(_jets(2, H, 0.6, alpha=1.2), sigma, t1, t2, probes)[0, 0]
    consts = F - A * np.einsum("pi,ij,pj->p", probes, H, probes)
    assert np.max(np.abs(consts - consts[0])) <= 1e-10


def test_singularity_all_ones_varies_with_probe():
    vals = singularity_coefficient(_jets(2, np.ones((2, 2))), 2.0, 1.0, 1.0, default_probe_set(2))
    assert vals.shape == (4, 4, 4)
    assert np.ptp(vals[0, 0].real) > 0.5


def test_singularity_consistent_with_patch_pipeline():
    """A patch's own jets, read against its zeroth order, give the worked samples."""
    h0 = np.diag([4.0, 1.0])
    L = np.array([[4.0, 2.0], [2.0, 1.0]])
    F = singularity_coefficient(_jets(2, L, 0.0, h0), 2.0, 1.0, 1.0, [[1.0, 0.0]])
    assert F.shape == (4, 4, 1)
    # H = [[.25,.5],[.5,1]], D = diag(2,-1) at e1: sum H D = .5 - 1 = -.5
    # trace term: -(1-n) alpha^2 T/4 = 2/4 = 0.5 with T = 2
    np.testing.assert_allclose(F, -0.5 + 0.5, rtol=0, atol=1e-12)


def test_singularity_over_a_varying_grid_matches_each_point():
    """The grid call equals the one-point formula at every point of a varying patch."""
    patch, energies, _ = varying_patch(seed=29)
    sigma = indicial_root(patch, energies[0])
    probes = default_probe_set(2)
    t1, t2 = 0.9 + 0.2j, 1.3 - 0.1j
    F = singularity_coefficient(patch, sigma, t1, t2, probes)
    assert F.shape == patch.grid_shape + (len(probes),)
    for idx in np.ndindex(*patch.grid_shape):
        h0 = patch.h_jet[0][idx]
        L = patch.h_jet[1][idx]
        H = np.linalg.solve(h0, np.linalg.solve(h0, L).T)
        T = np.trace(np.linalg.solve(h0, L))
        for k, w in enumerate(probes):
            s = sigma[idx]
            quad = (3 - 2 * s) * (np.trace(H) + (1 - 2 * s) * (w @ H @ w))
            want = t1 * quad - t2 * patch.alpha[idx] ** 2 * (1 - 2) * T / 4
            assert F[idx][k] == pytest.approx(want, rel=1e-12)
    # one (P, n) array of probes, nothing else
    for bad in ([[1.0]], [1.0, 0.0], [[[1.0, 0.0]]], np.zeros((0, 2))):
        with pytest.raises(ValueError, match=r"^omega: expected an array of shape \(P, 2\) with P >= 1"):
            singularity_coefficient(patch, sigma, t1, t2, bad)


def test_singularity_of_a_point_alone_has_the_bits_of_its_grid():
    """A point's F, alone on a constant patch, equals its F in the grid bit for bit."""
    for seed in (29, 31, 37):
        patch, energies, _ = varying_patch(seed=seed)
        sigma = indicial_root(patch, energies[0])
        args = (0.9 + 0.2j, 1.3 - 0.1j, default_probe_set(2))
        grid = singularity_coefficient(patch, sigma, *args)
        for idx in np.ndindex(*patch.grid_shape):
            alone = constant_patch(
                2,
                patch.alpha[idx],
                patch.v_jet[0][idx],
                patch.h_jet[0][idx],
                v1=patch.v_jet[1][idx],
                h1=patch.h_jet[1][idx],
            )
            F = singularity_coefficient(alone, sigma[idx], *args)
            assert all(F[k].tobytes() == grid[idx].tobytes() for k in np.ndindex(4, 4))


def _rounding_cases():
    """``(patch, energies)`` at ``make_synthetic_pair`` seeds 600-624 for n = 1..3
    (the patch rebuilt from the truth) and at the varying seeds 29, 31, 37."""
    for seed in range(600, 625):
        for n in (1, 2, 3):
            truth, ds = make_synthetic_pair(seed, n)
            h1 = truth.h0 @ truth.H @ truth.h0
            patch = constant_patch(n, truth.alpha, truth.v0, truth.h0, v1=truth.W1, h1=h1)
            yield patch, ds.energies
    for seed in (29, 31, 37):
        patch, energies, _ = varying_patch(seed=seed)
        yield patch, energies


def test_symbol_norms_match_the_solve_oracle():
    """Norms from the patch's kept inverse of h0 move each symbol by rounding only."""
    worst = 0.0
    for patch, energies in _rounding_cases():
        n = patch.n
        covectors = polarization_covectors(n)
        xi = np.stack([covectors, 2.0 * covectors], axis=1)
        got = principal_symbol(patch, xi, energies)[1]
        log_norm = solve_log_norm(patch.h_jet[0], xi)
        pad = patch.grid_shape + (1, 1)
        for e, en in enumerate(energies):
            exponent = (2.0 * indicial_root(patch, en) - n).reshape(pad)
            want = prefactor_and_poles(indicial_root(patch, en), n)[0].reshape(pad) * np.exp(
                exponent * log_norm
            )
            # the relative move of |xi|_{h0} that the symbols imply
            worst = max(worst, np.max(np.abs(np.log(got[..., e, :, :] / want) / exponent)))
    assert worst <= 1e-14


def test_singularity_matches_the_kernel_oracle():
    """F as the probe matrix times T u equals F from the Hessian kernel, to rounding.

    The oracle solves H and T from h0; the forward reads the patch's kept inverse.
    """
    for patch, energies in _rounding_cases():
        sigma = indicial_root(patch, energies[0])
        probes = default_probe_set(patch.n)
        for t1, t2 in ((1.0, 1.0), (0.9 + 0.2j, 1.3 - 0.1j)):
            got = singularity_coefficient(patch, sigma, t1, t2, probes)
            want = kernel_singularity_coefficient(patch, sigma, t1, t2, probes)
            assert got.shape == want.shape == patch.grid_shape + (len(probes),)
            # at n = 1 a traceless H and W1 = 0 make F vanish: both read 0 exactly
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))



def _applied_point_by_point(patch, sigma, t1, t2, probes):
    """``M (T u)`` at each point alone, ``T = [[a I, 0], [e^T, t2]]`` from
    :func:`first_order_factors`: ``T u`` is ``a`` times the ``H`` entries, then
    ``e . u + t2 W1``, the dot product taken as the fit's forward substitution takes it."""
    rows, cols = symmetric_pairs(patch.n)
    M, a, _, e = first_order_factors(
        probes, sigma, t1, t2, patch.alpha * patch.alpha, patch.h_jet[0]
    )
    a = np.broadcast_to(a, patch.grid_shape)
    out = []
    for idx in np.ndindex(*patch.grid_shape):
        u = ((patch.h0_inv[idx] @ patch.h_jet[1][idx]) @ patch.h0_inv[idx])[rows, cols]
        Tu = np.append(a[idx] * u, np.sum(e[idx] * u) + t2 * patch.v_jet[1][idx])
        out.append(np.vecdot(M, Tu))
    return np.reshape(out, patch.grid_shape + (len(probes),))


def test_singularity_applies_the_first_order_factors_bit_for_bit():
    """The forward map is ``M (T u)`` with the factors the first-order fit inverts.

    Bit for bit at n = 1..3, on constant patches with general jets under a
    root that varies per point, and on a varying patch; real and complex
    roots and model-integral factors.
    """
    rng = np.random.default_rng(43)
    patches = []
    for n in (1, 2, 3):
        h1 = rng.normal(size=(n, n))
        h0 = random_spd(rng, n)
        patches.append(_jets(n, h1 + h1.T, rng.normal(), h0, alpha=rng.uniform(0.5, 2.0)))
    patches.append(varying_patch(seed=29)[0])
    for patch in patches:
        n, grid = patch.n, patch.grid_shape
        root = rng.uniform(1.6, 4.0, size=grid)
        probes = rng.normal(size=(3, n))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        for sigma in (root, root + 1j * rng.uniform(-1.0, 1.0, size=grid)):
            for t1, t2 in ((0.7, 1.3), (0.9 + 0.2j, 1.3 - 0.1j)):
                for w in (default_probe_set(n), probes):
                    got = singularity_coefficient(patch, sigma, t1, t2, w)
                    want = _applied_point_by_point(patch, sigma, t1, t2, w)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
