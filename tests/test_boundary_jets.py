"""Boundary patch construction, indicial roots, and a patch's first-order data."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scatjet.boundary_jets import (
    BoundaryPatch,
    ComplexEnergy,
    cholesky_inverse,
    indicial_root,
    indicial_v0,
    lower_entries,
)
from scatjet.errors import MAX_ARRAY_VALUES, BranchCut, ConfigError, raise_first
from scatjet.forward_scattering import default_probe_set, principal_symbol, singularity_coefficient
from scatjet.synthetic import constant_patch, forward_dataset, random_spd

from oracles import kernel_profile


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
    # a gap past double range is refused by name, with no overflow warning
    with pytest.raises(ConfigError, match="symmetric"):
        constant_patch(2, 1.1, 0.4, [[1e308, 1e308], [-1e308, 1e308]])
    # while the rounding of a product of entries near 1e5 is
    big = 1e5 * random_spd(np.random.default_rng(1), 3)
    assert np.any(big != big.T)
    constant_patch(3, 1.1, 0.4, big)


def _judged_symmetric(h0) -> bool:
    """Whether a constant 2x2 patch with metric ``h0`` passes the symmetry check."""
    try:
        constant_patch(2, 1.1, 0.4, h0)
    except ConfigError as exc:
        assert "symmetric" in str(exc)
        return False
    return True


def _straddle(b: float) -> tuple[float, float]:
    """Adjacent floats x > b whose gap ``x - b`` is at most, then above, ``1e-12 + 1e-12 |b|``."""
    bound = 1e-12 + 1e-12 * abs(b)
    x = b + bound
    while x - b > bound:
        x = np.nextafter(x, -math.inf)
    while np.nextafter(x, math.inf) - b <= bound:
        x = np.nextafter(x, math.inf)
    return x, np.nextafter(x, math.inf)


@pytest.mark.parametrize("b", [0.0, 2.5e-13, -4e-13, 0.75, 3.0, 1e5])
def test_patch_symmetry_verdict_is_allclose_at_the_bound(b):
    """One ulp inside and outside the bound, with the larger entry above or below the diagonal.

    ``x`` and ``b`` differ in size, so the two directions have different
    bounds and the tighter one, ``1e-12 + 1e-12 |b|``, decides.
    """
    x_in, x_out = _straddle(b)
    assert abs(x_in) != abs(b)
    d = 4.0 * max(1.0, abs(x_out))
    for x, inside in ((x_in, True), (x_out, False)):
        for h0 in (np.array([[d, x], [b, d]]), np.array([[d, b], [x, d]])):
            assert np.allclose(h0, h0.T, rtol=1e-12, atol=1e-12) is inside
            assert _judged_symmetric(h0) is inside
    # at b = 0 the gap one ulp outside is within the other direction's bound
    if b == 0.0:
        assert x_out <= 1e-12 + 1e-12 * abs(x_out)


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
    both = BoundaryPatch(n=2, axes=(4, 5), alpha=alpha, v_jet=(v0, v1), h_jet=(h0, h1))
    kept = [a.copy() for a in (alpha, v0, h0, v1, h1)]
    for arr in (alpha, v0, h0, v1, h1):
        assert arr.flags.writeable
        arr += 1.0
    for got, want in zip((both.alpha, both.v_jet[0], both.h_jet[0], both.v_jet[1], both.h_jet[1]), kept):
        np.testing.assert_array_equal(got, want)
    for arr in (both.alpha, *both.v_jet, *both.h_jet, both.h0_inv):
        assert not arr.flags.writeable


# -- cholesky_inverse ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_positive_definite_inverse_agrees_with_inv(n):
    """Within rounding of ``np.linalg.inv`` on well-conditioned SPD stacks, exactly symmetric."""
    rng = np.random.default_rng(40 + n)
    q, _ = np.linalg.qr(rng.normal(size=(3, 7, n, n)))
    M = q * rng.uniform(0.5, 2.0, size=(3, 7, 1, n)) @ np.swapaxes(q, -1, -2)
    M = (M + np.swapaxes(M, -1, -2)) / 2.0
    got, refused = cholesky_inverse(lower_entries(M), n)
    want = np.linalg.inv(M)
    assert got.shape == M.shape and not refused.any()
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))
    # elementwise over the stack: each matrix alone has the bits it has in the stack
    for idx in np.ndindex(3, 7):
        np.testing.assert_array_equal(cholesky_inverse(lower_entries(M[idx]), n)[0], got[idx])


def test_positive_definite_inverse_refuses():
    """A NaN, an indefinite and a singular semidefinite matrix, alone or in a stack, are refused."""
    v = np.array([1.0, 2.0, -0.5])
    for bad in (np.full((3, 3), np.nan), np.diag([1.0, -1e-3, 2.0]), np.outer(v, v), np.zeros((3, 3))):
        assert cholesky_inverse(lower_entries(bad), 3)[1]
        refused = cholesky_inverse(lower_entries(np.stack([np.eye(3), bad])), 3)[1]
        assert refused.tolist() == [False, True]
    # a pivot so small that the inverse leaves double range
    assert cholesky_inverse(lower_entries(np.diag([1.0, 1e-320])), 2)[1]


def _dot(a, b):
    """``a[0] b[0] + a[1] b[1] + ...``, left to right."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc += x * y
    return acc


def _potf2_inverse(M):
    """LAPACK's unblocked lower Cholesky, then ``X^T X`` with ``X = L^-1``, in Python floats."""
    n = len(M)
    L = [[0.0] * n for _ in range(n)]
    X = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = float(M[j][j]) - _dot(L[j][:j], L[j][:j]) if j else float(M[j][j])
        if not pivot > 0:
            return None
        L[j][j] = math.sqrt(pivot)
        X[j][j] = 1.0 / L[j][j]
        for i in range(j + 1, n):
            a = float(M[i][j])
            L[i][j] = (a - _dot(L[i][:j], L[j][:j])) * X[j][j] if j else a * X[j][j]
    for k in range(n):
        for i in range(k):
            acc = L[k][i] * X[i][i]
            for m in range(i + 1, k):
                acc += L[k][m] * X[m][i]
            X[k][i] = -acc / L[k][k]
    out = np.empty((n, n))
    for j in range(n):
        for i in range(j + 1):
            acc = X[j][i] * X[j][j]
            for k in range(j + 1, n):
                acc += X[k][i] * X[k][j]
            out[i, j] = out[j, i] = acc
    return out if np.isfinite(out).all() else None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cholesky_inverse_has_the_bits_of_potf2(n):
    """Entry-wise over a stack, the bits of the unblocked factorization done one matrix at a time.

    The sums are formed left to right before they are subtracted; the lower
    triangle is read, so an upper triangle that differs by rounding changes nothing.
    """
    rng = np.random.default_rng(70 + n)
    M = np.stack([random_spd(rng, n) for _ in range(300)])
    inverse, refused = cholesky_inverse(lower_entries(M), n)
    assert inverse.shape == M.shape and refused.shape == (300,) and not refused.any()
    for m, g in zip(M, inverse):
        np.testing.assert_array_equal(g, _potf2_inverse(m))


_BAD = ("nan", "+inf", "-inf", "indefinite", "semidefinite", "subnormal pivot", "overflow")


def _bad_matrix(kind: str, n: int, rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(0.5, 2.0, size=n)
    if kind == "indefinite":
        eigs[rng.integers(n)] = -rng.uniform(1e-3, 2.0)
    elif kind == "semidefinite":
        eigs[rng.integers(n)] = 0.0
    M = q * eigs @ q.T
    if kind in ("nan", "+inf", "-inf"):
        i, j = rng.integers(n, size=2)
        M[i, j] = M[j, i] = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}[kind]
    elif kind == "subnormal pivot":
        # 1 / pivot overflows below about 5.6e-309, not above
        M = np.eye(n)
        M[-1, -1] = rng.uniform(5e-324, 2.2e-308)
    elif kind == "overflow":
        M *= 1e-312
    return M


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_BAD)), max_size=4),
)
def test_cholesky_inverse_judges_each_matrix_alone(n, shape, seed, bad):
    """Random SPD stacks with bad matrices at random positions.

    A NaN, a -inf, an indefinite matrix and one whose inverse overflows are
    refused, and a lone subnormal pivot is refused when its inverse
    overflows; a semidefinite matrix or a +inf entry may go either way.
    Each matrix gets the same verdict and the same bits alone as in the
    stack; ``raise_first`` on the ``refused`` mask names the first refused
    matrix in C order; the SPD matrices' inverses are within 1e-14 max|inv|
    of ``np.linalg.inv``.
    """
    rng = np.random.default_rng(seed)
    M = np.stack([random_spd(rng, n) for _ in range(math.prod(shape))]).reshape(shape + (n, n))
    spd = np.ones(shape, dtype=bool)
    kinds = {}
    for pos, kind in bad:
        idx = np.unravel_index(pos % spd.size, shape)
        M[idx] = _bad_matrix(kind, n, rng)
        spd[idx] = False
        kinds[idx] = kind
    inverse, refused = cholesky_inverse(lower_entries(M), n)
    assert inverse.shape == M.shape and refused.shape == shape
    for idx, kind in kinds.items():
        if kind == "subnormal pivot":
            x = 1.0 / math.sqrt(float(M[idx][-1, -1]))
            assert refused[idx] == (not math.isfinite(x * x))
        elif kind in ("nan", "-inf", "indefinite", "overflow"):
            assert refused[idx]
    for idx in np.ndindex(*shape):
        alone, alone_refused = cholesky_inverse(lower_entries(M[idx]), n)
        assert alone_refused.shape == () and bool(alone_refused) == refused[idx]
        np.testing.assert_array_equal(alone, inverse[idx])
    want = np.linalg.inv(M[spd])
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert not refused[spd].any() and np.all(np.abs(inverse[spd] - want) <= 1e-14 * scale)

    def message(i):
        return f"bad {i}"

    if not refused.any():
        raise_first(n, [(refused, ValueError, message)])
        return
    # the first n axes are the grid, any further ones the sample
    first = tuple(int(k) for k in np.argwhere(refused)[0])
    where = [f"grid index {first[:n]}"] + ([f"sample {first[n:]}"] if len(first) > n else [])
    with pytest.raises(ValueError, match=f"^{re.escape(message(first) + ' at ' + ', '.join(where))}$"):
        raise_first(n, [(refused, ValueError, message)])


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
    assert len(patch.v_jet) == len(patch.h_jet) == 2
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


def test_patch_from_dict_reads_a_nest_of_grid_arrays_as_the_raw_array():
    """Each entry of an n x n nest may be a grid array, every entry one included."""
    raw = {"n": 2, "axes": [4, 5], "alpha": 1.0, "v_jet": [0.0], "h_jet": [[["2", 0.5], [0.5, "3"]]]}
    h0 = BoundaryPatch.from_dict(raw).h_jet[0]
    nest = [[h0[..., i, j].tolist() for j in range(2)] for i in range(2)]
    for h in (nest, h0.tolist()):
        np.testing.assert_array_equal(BoundaryPatch.from_dict({**raw, "h_jet": [h]}).h_jet[0], h0)


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


def test_patch_from_dict_refuses_a_grid_past_the_bound():
    """Metric fields of more than MAX_ARRAY_VALUES values are refused before any field is built."""
    identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for n, axes, h0 in ((3, [10**6] * 3, identity), (1, [MAX_ARRAY_VALUES + 1], [[1.0]])):
        spec = {"n": n, "axes": axes, "alpha": 1.0, "v_jet": [0.0], "h_jet": [h0]}
        shape = (*axes, n, n)
        message = (
            f"the patch's axes ask for metric fields of shape {shape}, "
            f"{math.prod(shape)} values, above the {MAX_ARRAY_VALUES} allowed"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            BoundaryPatch.from_dict(spec)


_PAST_DOUBLE = "1" + "0" * 400
_NOT_FINITE = "v_jet[0] is not finite at grid index (0,)"


@pytest.mark.parametrize(
    "expr,v0,message",
    [
        ("10**20", 1e20, None),
        ("2**-1", 0.5, None),
        ("10**1000", None, _NOT_FINITE),
        ("exp(1000)", None, _NOT_FINITE),
        ("1e308*10", None, _NOT_FINITE),
        ("(-1)**0.5", None, _NOT_FINITE),
        ("1/(y1-y1)", None, _NOT_FINITE),
        ("1e400", None, "v_jet[0]: literal 1e400 in '1e400' is past double range"),
        (
            _PAST_DOUBLE,
            None,
            f"v_jet[0]: literal {_PAST_DOUBLE} in '{_PAST_DOUBLE}' is past double range",
        ),
    ],
    ids=[
        "int-power-past-int64",
        "negative-int-power",
        "int-power-past-double",
        "exp-overflow",
        "product-overflow",
        "root-of-negative",
        "division-by-zero",
        "float-literal-past-double",
        "int-literal-past-double",
    ],
)
def test_patch_expression_literals_are_float64(expr, v0, message):
    """Literals are float64: no integer wraparound, and no raw warning before a named refusal."""
    spec = {"n": 1, "axes": [4], "alpha": 1.0, "v_jet": [expr], "h_jet": [[[1.0]]]}
    if message is None:
        assert BoundaryPatch.from_dict(spec).v_jet[0].tolist() == [v0] * 4
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            BoundaryPatch.from_dict(spec)


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


# -- first-order data --------------------------------------------------------
#
# A patch's first-order data are its order-1 jets taken against its own
# zeroth-order model: H = h0^-1 h^(1) h0^-1, T = tr(h0^-1 h^(1)), W1 = V^(1).
# They are read through the samples of singularity_coefficient.

_T_PAIR = (0.9 + 0.2j, 1.3 - 0.1j)


def _samples(patch, sigma=2.4):
    return singularity_coefficient(patch, sigma, *_T_PAIR, default_probe_set(patch.n))


def _samples_of(patch, H, T, W1, sigma=2.4):
    """The kernel oracle's samples of hand-computed data on the patch's grid."""
    probes = default_probe_set(patch.n)
    return kernel_profile(patch.n, H, T, W1, patch.alpha, sigma, *_T_PAIR, probes)


def test_perturbation_identical_patches():
    """Zero order-1 jets: the patch is its own zeroth-order model, and every sample is zero."""
    patch = constant_patch(2, 1.0, 0.25, random_spd(np.random.default_rng(4), 2), v1=0.0)
    F = _samples(patch)
    assert F.shape == (4, 4, 4)
    assert not F.any()


def test_perturbation_identity_metric():
    """With h0 = I the data are H = h^(1) and T = tr h^(1)."""
    h1 = np.diag([2.0, -2.0])
    patch = constant_patch(2, 1.0, 0.25, np.eye(2), v1=0.1, h1=h1)
    np.testing.assert_allclose(_samples(patch), _samples_of(patch, h1, 0.0, 0.1), rtol=1e-14)


def test_perturbation_worked_case():
    h0 = np.diag([4.0, 1.0])
    h1 = np.array([[4.0, 2.0], [2.0, 1.0]])
    patch = constant_patch(2, 1.0, 0.25, h0, v1=0.7, h1=h1)
    H = np.array([[0.25, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(_samples(patch), _samples_of(patch, H, 2.0, 0.7), rtol=1e-14)


def test_perturbation_antisymmetric_under_swap():
    """Swapping the patch and its zeroth-order model negates the jets, and every sample, exactly."""
    rng = np.random.default_rng(11)
    h0 = random_spd(rng, 3)
    sym = rng.standard_normal((3, 3))
    h1 = sym + sym.T
    patch = constant_patch(3, 1.0, 0.25, h0, v1=-0.4, h1=h1)
    swapped = constant_patch(3, 1.0, 0.25, h0, v1=0.4, h1=-h1)
    np.testing.assert_array_equal(_samples(swapped), -_samples(patch))


def test_perturbation_needs_first_order_jets():
    """Order-1 entries in one jet alone are refused before any sampling, naming the other jet."""
    patch = constant_patch(2, 1.0, 0.25, np.eye(2), v1=0.1)
    for missing in ("v_jet", "h_jet"):
        jets = {"v_jet": patch.v_jet, "h_jet": patch.h_jet, missing: getattr(patch, missing)[:1]}
        one_sided = BoundaryPatch(n=2, axes=patch.axes, alpha=patch.alpha, **jets)
        message = (
            f"the patch has no order-1 entry in {missing}: first-order samples need "
            "order-1 entries in both v_jet and h_jet"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            forward_dataset(one_sided, (ComplexEnergy(4.0), ComplexEnergy(5.0)))
