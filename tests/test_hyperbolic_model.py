"""The normal ODE's solve: shapes and dtypes, refusals, and a symmetry of the ratio.

Its agreement with the closed form is acceptance check 3 (``test_acceptance.py``).
"""
import numpy as np
import pytest

from scatjet.errors import GammaPole
from scatjet.hyperbolic_model import IM_NU_MAX, NU_MAX, frobenius_ratio


def test_the_ratio_keeps_the_shape_and_the_kind_of_sigma():
    real = frobenius_ratio(np.array([[1.7, 2.2, 9.3]]), 2)
    assert real.shape == (1, 3) and real.dtype == np.float64
    tilted = frobenius_ratio(np.array([1.7 + 0.2j, 2.2 - 0.1j]), 2)
    assert tilted.shape == (2,) and tilted.dtype == np.complex128
    # one sigma gives its value, the same bits as in an array
    assert frobenius_ratio(2.2, 2) == real[0, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_two_roots_give_reciprocal_ratios(n):
    """``sigma`` and ``n - sigma`` swap the two Frobenius solutions, so ``B/A`` inverts."""
    nu = np.array([0.3, 1.7, 4.45, 12.9, 2.5 + 0.4j, 0.6 - 0.5j])
    product = frobenius_ratio(n / 2.0 + nu, n) * frobenius_ratio(n / 2.0 - nu, n)
    np.testing.assert_allclose(product, 1.0, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "sigma, error, message",
    [
        (np.nan, ValueError, r"^sigma = nan is not finite$"),
        (complex(2.0, np.inf), ValueError, r"^sigma = \(2\+infj\) is not finite$"),
        (3.0, GammaPole, r"^sigma - n/2 = 2\.0 is a Gamma pole$"),
        (1.0 + 1e-13, GammaPole, r"^sigma - n/2 = 9\.99\d*e-14 is a Gamma pole$"),
        (1.0 + NU_MAX + 0.5, ValueError, r"^sigma - n/2 = 14\.5 is past the checked range$"),
        (1.0 - NU_MAX - 0.5, ValueError, r"^sigma - n/2 = -14\.5 is past the checked range$"),
        (
            complex(2.3, IM_NU_MAX + 0.1),
            ValueError,
            r"^sigma - n/2 = \(1\.29\d*\+0\.6j\) is past the checked range$",
        ),
    ],
    ids=["nan", "complex-inf", "pole", "near-pole", "nu-above-range", "nu-below-range", "im-nu"],
)
def test_refusals_name_their_cause(sigma, error, message):
    with pytest.raises(error, match=message):
        frobenius_ratio(sigma, 2)


def test_a_refusal_names_the_first_bad_sigma():
    with pytest.raises(GammaPole, match=r"^sigma - n/2 = 2\.0 is a Gamma pole at sample \(2,\)$"):
        frobenius_ratio([2.5, 1.7, 3.0, np.nan], 2)


@pytest.mark.parametrize("n", [0, 4])
def test_the_dimension_is_judged_as_everywhere(n):
    with pytest.raises(ValueError, match=r"^n must be 1\.\.3 \(the supported boundary"):
        frobenius_ratio(2.2, n)
