"""Exceptional energy sets and admissibility screening."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scatjet.boundary_jets import BoundaryPatch, ComplexEnergy, indicial_root
from scatjet.errors import BranchCut
from scatjet.spectral_sets import exceptional_set, is_admissible
from scatjet.synthetic import constant_patch


def _variable_patch(v0="0.5 + 0.5*cos(y1)"):
    # alpha in [1,2], V0 in [0,1] (by default) on an 8-point circle
    return BoundaryPatch.from_dict(
        {
            "n": 2,
            "axes": [8, 4],
            "alpha": "1.5 + 0.5*cos(y1)",
            "v_jet": [v0],
            "h_jet": [[["1", "0"], ["0", "1"]]],
        }
    )


def _set_of(patch, **kwargs):
    """The exceptional set of a patch's fields, ``alpha^2`` by libm's pow as the callers take it."""
    return exceptional_set(np.float_power(patch.alpha, 2), patch.v_jet[0], patch.n, **kwargs)


# -- interval ---------------------------------------------------------------


def test_interval_collapses_for_constant_fields():
    # mode 0 is V0 - n^2/4 - alpha^2 n^2/4 = 0 - 1 - 1
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    assert _set_of(patch).interval_lambda_sq == (-2.0, -2.0)


def test_interval_variable_fields():
    # mode 0 = V0 - 1 - alpha^2 = -2.75 - c - c^2/4 with c = cos(y1) in [-1, 1]
    lo, hi = _set_of(_variable_patch()).interval_lambda_sq
    assert lo == pytest.approx(-4.0)
    assert hi == pytest.approx(-2.0)


def test_interval_monotone_in_potential():
    a = constant_patch(2, 1.0, 0.0, np.eye(2))
    b = constant_patch(2, 1.0, 0.5, np.eye(2))
    assert _set_of(b).interval_lambda_sq[1] > _set_of(a).interval_lambda_sq[1]
    assert _set_of(b).interval_lambda_sq[0] > _set_of(a).interval_lambda_sq[0]


# -- discrete modes ---------------------------------------------------------


def test_modes_worked_values():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    modes = _set_of(patch, k_max=2).modes_lambda_sq
    assert modes.shape == (4, 4, 3)
    assert modes[0, 0, 0] == pytest.approx(-2.0)
    assert modes[0, 0, 2] == pytest.approx(-1.0)


def test_modes_hit_half_integer_roots():
    """Each emitted lambda^2 puts the lower indicial root at (n-k)/2."""
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    modes = _set_of(patch, k_max=3).modes_lambda_sq
    for *idx, k in np.ndindex(*modes.shape):
        lam_sq = complex(modes[(*idx, k)])
        en = ComplexEnergy(complex(np.sqrt(lam_sq)), lam_sq=lam_sq)
        sig = indicial_root(patch, en)[tuple(idx)]
        assert 2 - sig == pytest.approx((2 - k) / 2.0, abs=1e-8)


def test_modes_match_the_per_point_formula():
    """The array expression gives the bits of the scalar formula at every point and k.

    4096 random alphas: with ``alpha * alpha`` in place of a Python float's
    ``** 2`` (libm's pow), a few would differ in the last bit.
    """
    rng = np.random.default_rng(3)
    shape = (64, 64)
    patch = BoundaryPatch(
        n=2,
        axes=shape,
        alpha=rng.uniform(0.5, 2.0, size=shape),
        v_jet=(rng.uniform(-1.0, 1.0, size=shape),),
        h_jet=(np.tile(np.eye(2), shape + (1, 1)),),
    )
    modes = _set_of(patch, k_max=3).modes_lambda_sq
    assert modes.shape == shape + (4,)
    n = patch.n
    for idx in np.ndindex(*shape):
        v0 = float(patch.v_jet[0][idx])
        a2 = float(patch.alpha[idx]) ** 2
        for k in range(4):
            assert modes[idx + (k,)] == v0 - n * n / 4.0 + a2 * (k * k - n * n) / 4.0


def test_modes_constant_patch_dedup_and_validation():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    modes = _set_of(patch, k_max=0).modes_lambda_sq
    assert len(set(modes.ravel().tolist())) == 1
    with pytest.raises(ValueError):
        _set_of(patch, k_max=-1)


# -- admissibility ----------------------------------------------------------


def test_admissible_far_energy():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = _set_of(patch)
    adm = is_admissible(ComplexEnergy(5.0j), es, margin=0.1)
    assert adm.ok and bool(adm)
    assert set(adm.distances) == {"omega-prime-mode"}


def test_inadmissible_in_interval():
    """A real lambda^2 inside the interval is on the branch cut where mode 0 lies above it."""
    patch = _variable_patch(v0="10.5 + 0.5*cos(y1)")
    es = _set_of(patch)
    assert es.interval_lambda_sq == pytest.approx((6.0, 8.0))
    # the first point in C order where mode 0 = 7.25 - c - c^2/4 exceeds 7 has c = 0
    adm = is_admissible(ComplexEnergy(math.sqrt(7.0)), es, margin=0.1)
    assert not adm.ok
    assert "lambda^2 = 7 is on the branch cut at grid index (2, 0)" in adm.reason
    with pytest.raises(BranchCut, match=r"the first at grid index \(2, 0\)$"):
        indicial_root(patch, ComplexEnergy(math.sqrt(7.0)))


def test_inadmissible_near_mode():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = _set_of(patch, k_max=2)
    adm = is_admissible(ComplexEnergy(complex(np.sqrt(complex(-2.001)))), es, margin=0.1)
    assert not adm.ok
    assert "omega-prime-mode" in adm.reason


def test_inadmissible_user_excluded():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = _set_of(patch, user_excluded=(3.0 + 0.0j,))
    adm = is_admissible(ComplexEnergy(3.0 + 0.05j), es, margin=0.1)
    assert not adm.ok
    assert "user-excluded" in adm.reason
    assert is_admissible(ComplexEnergy(3.0 + 0.05j), es, margin=0.01).ok
    # a NaN excluded energy gives a NaN distance, which counts as a violation
    es = _set_of(patch, user_excluded=(complex(np.nan, 0.0),))
    adm = is_admissible(ComplexEnergy(5.0j), es, margin=0.1)
    assert not adm.ok and "user-excluded" in adm.reason


def test_energy_whose_q_leaves_double_range_is_refused_without_a_warning():
    """lambda^2 = 1e308 over alpha^2 = 1/4 overflows q; no NaN distance reaches the output."""
    patch = constant_patch(2, 0.5, 0.0, np.eye(2))
    adm = is_admissible(ComplexEnergy(1e154), _set_of(patch), margin=1e-6)
    assert not adm.ok and adm.distances == {}
    assert "is past double range at grid index (0, 0)" in adm.reason


def test_admissibility_margin_validation_and_monotonicity():
    patch = constant_patch(2, 1.0, 0.0, np.eye(2))
    es = _set_of(patch)
    with pytest.raises(ValueError):
        is_admissible(ComplexEnergy(5.0j), es, margin=-1.0)
    lam = ComplexEnergy(complex(np.sqrt(complex(-2.3))))
    assert is_admissible(lam, es, margin=0.05).ok
    assert not is_admissible(lam, es, margin=1.0).ok



# -- the screen against the forward map, every mode order --------------------


def _patch(seed, n, varying, dyadic=False):
    """A patch on (4,)*n whose alpha and V0 vary per point or are constant.

    Dyadic fields (alpha in quarters, V0 in eighths) make every mode value,
    and the ``q`` of an energy on one, exact.
    """
    rng = np.random.default_rng(seed)
    shape = (4,) * n if varying else (1,) * n
    if dyadic:
        alpha = rng.integers(2, 9, size=shape) / 4.0
        v0 = rng.integers(-8, 9, size=shape) / 8.0
    else:
        alpha = rng.uniform(0.5, 2.0, size=shape)
        v0 = rng.uniform(-1.0, 1.0, size=shape)
    axes = (4,) * n
    return BoundaryPatch(
        n=n,
        axes=axes,
        alpha=np.broadcast_to(alpha, axes),
        v_jet=(np.broadcast_to(v0, axes),),
        h_jet=(np.tile(np.eye(n), axes + (1, 1)),),
    )


def _modes(patch, k_top):
    """The test's own ``mode_k = V0 - n^2/4 + alpha^2 (k^2 - n^2)/4``, shape ``(*grid, k_top + 1)``."""
    n = patch.n
    k = np.arange(k_top + 1)
    a2 = patch.alpha[..., None] ** 2
    return patch.v_jet[0][..., None] - n * n / 4.0 + a2 * (k * k - n * n) / 4.0


_PATCHES = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]), st.booleans())


@settings(max_examples=150, deadline=None)
@given(_PATCHES, st.floats(0.0, 4.0), st.integers(-4, 4), st.booleans())
def test_screen_refuses_exactly_where_indicial_root_is_cut(drawn, lam, ulps, at_mode0):
    """At margin 0 a real energy is refused as the cut iff ``indicial_root`` raises ``BranchCut``.

    Half the draws put ``lambda^2`` a few ulps from mode 0 of a point, where
    the verdict turns on rounding.
    """
    patch = _patch(*drawn)
    if at_mode0:
        mode0 = float(np.max(_modes(patch, 0)))
        assume(mode0 > 0.0)
        lam = float(np.sqrt(mode0))
        lam = float(lam + ulps * np.spacing(lam))
    energy = ComplexEnergy(lam)
    # alpha^2 taken as indicial_root takes it
    es = exceptional_set(patch.alpha**2, patch.v_jet[0], patch.n)
    try:
        indicial_root(patch, energy)
        cut = False
    except BranchCut:
        cut = True
    adm = is_admissible(energy, es, margin=0.0)
    assert (not adm.ok and "branch cut" in adm.reason) == cut


@settings(max_examples=150, deadline=None)
@given(_PATCHES, st.integers(0, 20), st.data())
def test_screen_refuses_an_energy_on_a_mode_of_any_order(drawn, k, data):
    """``lambda^2`` exactly on ``mode_k`` at a point, for k up to 20, is refused naming k and the point."""
    patch = _patch(*drawn, dyadic=True)
    idx = data.draw(st.tuples(*(st.integers(0, 3) for _ in range(patch.n))))
    modes = _modes(patch, 80)  # another point may sit on a higher mode; that point may be named
    lam_sq = float(modes[idx + (k,)])
    # a real energy below mode 0 somewhere is refused as the cut instead
    assume(lam_sq < 0.0 or lam_sq >= np.max(modes[..., 0]))
    lam = math.sqrt(lam_sq) if lam_sq >= 0.0 else 1j * math.sqrt(-lam_sq)
    es = exceptional_set(patch.alpha**2, patch.v_jet[0], patch.n)
    adm = is_admissible(ComplexEnergy(lam, lam_sq=lam_sq), es, 1e-9)
    assert not adm.ok
    named = re.search(r"omega-prime-mode k = (\d+) at grid index \(([\d, ]+)\)", adm.reason)
    named_k = int(named.group(1))
    named_idx = tuple(int(i) for i in named.group(2).split(",") if i.strip())
    assert modes[named_idx + (named_k,)] == lam_sq
    assert "distance 0.000e+00" in adm.reason


@settings(max_examples=150, deadline=None)
@given(
    _PATCHES,
    st.floats(-4.0, 4.0),
    st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    st.floats(0.0, 0.05),
)
def test_screen_passes_an_energy_off_the_cut_and_clear_of_every_mode(drawn, re_lam, im_lam, margin):
    patch = _patch(*drawn)
    energy = ComplexEnergy(complex(re_lam, im_lam))
    modes = _modes(patch, 60)  # mode 60 lies above 100, past any drawn |lambda^2| + margin
    distance = float(np.min(np.abs(energy.lam_sq - modes)))
    on_cut = im_lam == 0.0 and bool(np.any(energy.lam_sq.real < modes[..., 0]))
    assume(not on_cut and distance > margin + 1e-9 * (1.0 + abs(energy.lam_sq)))
    adm = is_admissible(energy, exceptional_set(patch.alpha**2, patch.v_jet[0], patch.n), margin)
    assert adm.ok, adm.reason
    assert adm.distances["omega-prime-mode"] == pytest.approx(distance, rel=1e-9, abs=1e-12)
