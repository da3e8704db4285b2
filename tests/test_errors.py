"""``raise_first``: the first failing point in C order, then the first failing check.

``Residual``: a bounded check that ``raise_first`` judges and a report summarizes.

``fold_last``: numpy's reduce over short trailing axes, one elementwise call per slice.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scatjet.errors import (
    BranchCut,
    InconsistentData,
    Residual,
    ZeroSymbol,
    fold_last,
    raise_first,
)


def _checks(point_mask, sample_mask):
    """A check over the points of a (3, 4) grid, then one over 5 samples per point."""
    return [
        (point_mask, ZeroSymbol, lambda i: "point check"),
        (sample_mask, InconsistentData, lambda i: f"sample check at {i}"),
    ]


def test_raise_first_returns_none_when_every_check_passes():
    checks = _checks(np.zeros((3, 4), bool), np.zeros((3, 4, 5), bool))
    assert raise_first(2, checks) is None
    assert raise_first(2, [(False, BranchCut, lambda i: "scalar")]) is None


def test_a_residual_fails_where_it_is_not_within_its_bound():
    """A Residual is judged as the triple ``(~(values <= bound), error, message)``:
    NaN fails, and the bound broadcasts against the values."""
    values = np.zeros((3, 4, 2))
    bound = np.full((3, 4, 1), 1e-8)
    record = Residual("gap", values, bound, InconsistentData, lambda i: f"gap {values[i]}")
    assert raise_first(2, [record]) is None
    values[1, 2, 1] = 1e-8
    assert raise_first(2, [record]) is None
    values[2, 0, 1] = math.nan
    values[2, 1, 0] = 1.0
    triple = (~(values <= bound), InconsistentData, record.message)
    for check in (record, triple):
        with pytest.raises(
            InconsistentData, match=r"^gap nan at grid index \(2, 0\), sample \(1,\)$"
        ):
            raise_first(2, [check])


def test_a_residual_reports_its_worst_value_where_it_first_sits():
    values = np.array([[0.0, 3.0], [3.0, 1.0]])
    bound = np.array([[1.0], [2.0]]) * 10
    record = Residual("r", values, bound, InconsistentData, lambda i: "")
    assert record.worst(1) == {"worst": 3.0, "grid_index": (0,), "sample": (1,), "bound": 10.0}
    assert record.worst(2)["grid_index"] == (0, 1) and record.worst(2)["sample"] == ()
    assert Residual("s", np.float64(0.5), 1.0, InconsistentData, str).worst(0) == {
        "worst": 0.5, "grid_index": (), "sample": (), "bound": 1.0
    }


def test_a_scalar_residual_is_judged_like_an_array():
    assert raise_first(0, [Residual("s", 0.5, 1.0, BranchCut, lambda i: "s")]) is None
    with pytest.raises(BranchCut, match="^s$"):
        raise_first(0, [Residual("s", 1.5, 1.0, BranchCut, lambda i: "s")])
    with pytest.raises(BranchCut, match="^s$"):
        raise_first(0, [Residual("s", math.nan, 1.0, BranchCut, lambda i: "s")])


def test_raise_first_refuses_a_mis_shaped_check_list_that_passes():
    """The grids of the checks must broadcast, whether or not any of them fails."""
    with pytest.raises(ValueError):
        raise_first(2, _checks(np.zeros((3, 4), bool), np.zeros((2, 4, 5), bool)))


def _faults(shape, *where):
    mask = np.zeros(shape, bool)
    for i in where:
        mask[i] = True
    return mask


@pytest.mark.parametrize(
    "masks,raised",
    [
        # equal leading shapes, extra sample axes: the point (1, 2) comes first,
        # where the third check fails at sample (1, 0)
        (
            [_faults((3, 4)), _faults((3, 4, 5), (2, 0, 0)), _faults((3, 4, 2, 2), (1, 2, 1, 0))],
            (BranchCut, r"^check 2 at \(1, 2, 1, 0\) at grid index \(1, 2\), sample \(1, 0\)$"),
        ),
        ([_faults((3, 4)), _faults((3, 4, 5)), _faults((3, 4, 2, 2))], None),
        # broadcastable but unequal: a (4, 1) check holds for every column of its row
        (
            [_faults((4, 1), (2, 0)), _faults((4, 4), (1, 3))],
            (InconsistentData, r"^check 1 at \(1, 3\) at grid index \(1, 3\)$"),
        ),
        (
            [_faults((4, 1), (1, 0)), _faults((4, 4), (1, 3))],
            (ZeroSymbol, r"^check 0 at \(1, 0\) at grid index \(1, 0\)$"),
        ),
        ([_faults((4, 4, 3), (0, 2, 1)), _faults((4, 1))], (ZeroSymbol, r"^check 0 at \(0, 2, 1\)")),
        ([_faults((4, 1)), _faults((4, 4))], None),
        # mis-shaped: refused whether or not a check fails
        ([_faults((4, 3)), _faults((4, 4))], ValueError),
        ([_faults((4, 3), (0, 0)), _faults((4, 4, 2))], ValueError),
        ([_faults((3, 4, 5)), _faults((3, 5, 5), (0, 0, 0))], ValueError),
    ],
    ids=[
        "equal-leading-fails",
        "equal-leading-passes",
        "broadcast-later-row",
        "broadcast-same-row",
        "broadcast-sample-axes",
        "broadcast-passes",
        "mis-shaped-passes",
        "mis-shaped-fails",
        "mis-shaped-sample-axes",
    ],
)
def test_raise_first_point_shapes(masks, raised):
    """Checks whose leading shapes are equal, broadcast, or do not broadcast."""
    classes = (ZeroSymbol, InconsistentData, BranchCut)
    checks = [
        (m, cls, lambda i, k=k: f"check {k} at {i}") for k, (m, cls) in enumerate(zip(masks, classes))
    ]
    if raised is None:
        assert raise_first(2, checks) is None
    elif raised is ValueError:
        with pytest.raises(ValueError):
            raise_first(2, checks)
    else:
        with pytest.raises(raised[0], match=raised[1]):
            raise_first(2, checks)


def test_raise_first_names_the_first_point_in_c_order():
    """Faults at points (1, 3), (2, 0) and (2, 1), in checks of different rank."""
    point_mask = np.zeros((3, 4), bool)
    sample_mask = np.zeros((3, 4, 5), bool)
    point_mask[2, 1] = True
    sample_mask[2, 0, 0] = sample_mask[1, 3, 4] = sample_mask[1, 3, 2] = True
    with pytest.raises(
        InconsistentData, match=r"^sample check at \(1, 3, 2\) at grid index \(1, 3\), sample \(2,\)$"
    ):
        raise_first(2, _checks(point_mask, sample_mask))
    # at one point, the check listed first wins
    point_mask[1, 3] = True
    with pytest.raises(ZeroSymbol, match=r"^point check at grid index \(1, 3\)$"):
        raise_first(2, _checks(point_mask, sample_mask))


def test_raise_first_names_the_sample_alone_for_one_point():
    """With n = 0 the checks judge one point's samples: no grid index is written."""
    with pytest.raises(ZeroSymbol, match=r"^sample check at sample \(3,\)$"):
        raise_first(0, [(np.arange(5) == 3, ZeroSymbol, lambda i: "sample check")])
    with pytest.raises(BranchCut, match=r"^scalar$"):
        raise_first(0, [(True, BranchCut, lambda i: "scalar")])


# -- fold_last --------------------------------------------------------------

_FOLDS = (np.logical_and, np.logical_or, np.maximum)
_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 2.5])


@st.composite
def _fold_cases(draw):
    """An array with NaN, +-inf and +-0 among its values, and the k trailing axes to fold."""
    k = draw(st.sampled_from([1, 2]))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
    trailing = tuple(draw(st.integers(0, 9)) for _ in range(k))
    values = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
    return draw(hnp.arrays(np.float64, lead + trailing, elements=values)), k


def _assert_same_fold(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if want.dtype == bool:
        assert np.array_equal(got, want)
        return
    # numpy's own reduce picks a NaN's payload and the sign of a zero maximum
    # by its order of evaluation, so those two are compared as values
    loose = np.isnan(want) | (want == 0)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[loose] == 0, want[loose] == 0)
    assert np.array_equal(got[~loose].view(np.uint64), want[~loose].view(np.uint64))


@settings(max_examples=400, deadline=None)
@given(case=_fold_cases(), ufunc=st.sampled_from(_FOLDS))
def test_fold_last_equals_reduce_over_the_same_axes(case, ufunc):
    a, k = case
    axes = tuple(range(a.ndim - k, a.ndim))
    try:
        want = ufunc.reduce(a, axis=axes)
    except ValueError as exc:
        # maximum over an empty axis has no identity: fold_last raises as np.max does
        assert ufunc is np.maximum
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            np.max(a, axis=axes)
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            fold_last(ufunc, a, k)
        return
    _assert_same_fold(fold_last(ufunc, a, k), want)
    if ufunc is np.maximum:
        # on absolute values, as the stages fold them, every zero is +0.0
        _assert_same_fold(fold_last(ufunc, np.abs(a), k), ufunc.reduce(np.abs(a), axis=axes))
