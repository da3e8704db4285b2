"""``raise_first``: the first failing point in C order, then the first failing check."""
import numpy as np
import pytest

from scatjet.errors import BranchCut, InconsistentData, ZeroSymbol, raise_first


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


def test_raise_first_refuses_a_mis_shaped_check_list_that_passes():
    """The grids of the checks must broadcast, whether or not any of them fails."""
    with pytest.raises(ValueError):
        raise_first(2, _checks(np.zeros((3, 4), bool), np.zeros((2, 4, 5), bool)))


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
