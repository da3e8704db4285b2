"""Finite-difference model operator: eigen-actions, cancellation, residuals."""
import numpy as np
import pytest
import sympy as sp

from scatjet.errors import GridTooCoarse
from scatjet.hyperbolic_model import (
    HalfSpaceGrid,
    green_residual_check,
    green_residual_convergence,
    hyperbolic_laplacian_apply,
)

from oracles import model_laplacian_apply_sym, wrong_sign_green_residual


def _grid(n=1, points=33, **kw):
    return HalfSpaceGrid(n, points, **kw)


def _field(grid, fn):
    """Evaluate fn(s, z-array) on the ghost-extended grid."""
    axes = grid.axes(ghost=True)
    mesh = np.meshgrid(*axes, indexing="ij")
    s = np.exp(mesh[0])
    return fn(s, mesh[1:])


# -- grid validation --------------------------------------------------------


def test_grid_rejects_bad_inputs():
    """The dimension is judged as the model integrals judge it."""
    for n in (0, 4):
        with pytest.raises(ValueError, match=r"^n must be 1\.\.3 \(the supported boundary"):
            HalfSpaceGrid(n, 33)
    with pytest.raises(ValueError, match="exclusion radius"):
        _grid(r_excl=0.1)


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        _grid(points=8)


def test_ghost_layer_shape_enforced():
    grid = _grid()
    with pytest.raises(ValueError, match="expected"):
        hyperbolic_laplacian_apply(np.zeros((33, 33)), grid)


# -- Laplacian eigen-actions ------------------------------------------------


def test_constant_annihilated():
    grid = _grid(n=2, points=17)
    f = _field(grid, lambda s, zs: np.ones_like(s))
    out = hyperbolic_laplacian_apply(f, grid)
    assert np.max(np.abs(out)) < 1e-12


@pytest.mark.parametrize("a", [1.0, 2.5, 0.5 + 1.0j])
def test_power_action(a):
    """f = s^a is an exact eigenfunction with eigenvalue a(n - a)."""
    grid = _grid(n=1)
    f = _field(grid, lambda s, zs: s**a)
    out = hyperbolic_laplacian_apply(f, grid)
    expected = a * (1 - a) * _field(grid, lambda s, zs: s**a)[1:-1, 1:-1]
    err = np.max(np.abs(out - expected))
    # error is pure tau-discretization, O(dtau^2)
    assert err <= 30.0 * grid.dtau**2


def test_quadratic_z_term_matches_symbolic_oracle():
    s_sym, z1 = sp.symbols("s z1", positive=True)
    expr = s_sym**2 * z1
    n = 2
    applied = model_laplacian_apply_sym(expr, s_sym, [z1, sp.Symbol("z2")])
    assert sp.simplify(applied - (-4 + 2 * n) * expr) == 0

    grid = _grid(n=2, points=25)
    f = _field(grid, lambda s, zs: s**2 * zs[0])
    out = hyperbolic_laplacian_apply(f, grid)
    want = _field(grid, lambda s, zs: (-4 + 2 * n) * s**2 * zs[0])
    sl = (slice(1, -1),) * 3
    h = max(grid.dtau, grid.dz)
    assert np.max(np.abs(out - want[sl])) <= 50.0 * h**2


# -- normal operator --------------------------------------------------------


def _indicial_sigma(alpha, v0, lam, n):
    disc = (n / 2.0) ** 2 - (v0 - lam**2 - n**2 / 4.0) / alpha**2
    return n / 2.0 + np.sqrt(complex(disc))


def test_indicial_cancellation_two_grid():
    """s^sigma lies in the kernel; the discrete residual shrinks at 2nd order."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        alpha = float(rng.uniform(0.6, 1.8))
        v0 = float(rng.uniform(-0.5, 0.5))
        lam = complex(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0))
        sigma = _indicial_sigma(alpha, v0, lam, n)
        resids = []
        for pts in (17, 33):
            grid = _grid(n=n, points=pts)
            f = _field(grid, lambda s, zs: s**sigma)
            # frozen-coefficient normal operator alpha^2 D0 f - (V0 - lambda^2 - n^2/4) f
            core = f[tuple(slice(1, -1) for _ in range(f.ndim))]
            mult = v0 - lam * lam - n * n / 4.0
            out = alpha**2 * hyperbolic_laplacian_apply(f, grid) - mult * core
            resids.append(np.max(np.abs(out)))
        ratio = resids[0] / resids[1]
        assert 3.5 <= ratio <= 4.5, (n, alpha, v0, lam, ratio)


# -- Green-kernel residual --------------------------------------------------


def test_green_residual_second_order():
    for n, sigma in ((1, 1.5), (2, 2.3)):
        coarse, fine, ratio = green_residual_convergence(sigma, n)
        assert coarse.max_residual > fine.max_residual
        assert 3.5 <= ratio <= 4.5, (n, sigma, ratio)
        assert fine.spacing < coarse.spacing


def test_green_residual_wrong_sign_guard():
    grid = _grid(n=1, points=65)
    good = green_residual_check(1.5, grid)
    bad = wrong_sign_green_residual(1.5, grid)
    # right sign: pure discretization error; wrong sign: O(1) defect
    assert bad > 0.1
    assert bad > 20.0 * good.max_residual


def test_green_report_fields():
    grid = _grid(n=1, points=17)
    rep = green_residual_check(1.5, grid)
    assert rep.spacing == pytest.approx(max(grid.dtau, grid.dz))
