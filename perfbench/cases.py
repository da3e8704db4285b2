"""Model-integral cases of the two integral workloads, at their acceptance specs.

The specs and bars are the ones ``tests/test_acceptance.py`` holds the
engine to (checks 4 and 5); they are copied here, not loosened.  Case ids
use only ``[A-Za-z0-9_.-]`` so they can sit inside metric names.
"""
from __future__ import annotations

from dataclasses import dataclass

# QuadratureSpec fields (rel_tol, abs_tol, max_subdivisions)
SPEC = (1e-6, 1e-10, 20000)
LOOSE_SPEC = (1e-5, 1e-10, 20000)  # the 4-D case T1 at n = 3
I_SPEC = (5e-4, 1e-300, 20000)

REFERENCE_BAR = 1e-5  # relative gap of a T or J value to its frozen reference
LIMIT_BAR = 1e-2  # separated-limit deviation of an I value from its T partner
I_S, I_Z = 1e-3, 1e3  # (s, |z|) of the I cases


def _sigma_id(sigma: complex) -> str:
    sigma = complex(sigma)
    out = f"s{sigma.real!r}"
    if sigma.imag:
        out += f"i{sigma.imag!r}"
    return out


@dataclass(frozen=True)
class Case:
    kind: str  # "T" (t_limit_integral), "J" (j_integral) or "I" (i_full_integral)
    l: int
    sigma: complex
    n: int
    spec: tuple[float, float, int]
    k: int = 0  # J only

    @property
    def id(self) -> str:
        if self.kind == "I":
            return f"I{self.l}-{_sigma_id(self.sigma)}"
        k = f"-k{self.k}" if self.kind == "J" else ""
        return f"{self.kind}{self.l}{k}-n{self.n}-{_sigma_id(self.sigma)}"

    @property
    def partner(self) -> str:
        """Id of the n = 1 limit integral an I case must approach."""
        return f"T{self.l}-n1-{_sigma_id(self.sigma)}"


def _t(l, sigma, n, spec=SPEC):
    return Case("T", l, complex(sigma), n, spec)


def _j(l, k, sigma, n):
    return Case("J", l, complex(sigma), n, SPEC, k)


def _i(l, sigma):
    return Case("I", l, complex(sigma), 1, I_SPEC)


# The acceptance T/J cases with n >= 2: where reducing v-perp to a radius
# and compactifying radially act.  T1 at n = 3 and J(1, 2, 2.5) at n = 2 are
# the hot spot and stay in.
REDUCIBLE = (
    _t(1, 2.5, 2),
    _t(2, 1.8, 2),
    _t(2, 2.2 + 0.3j, 2),
    _j(2, 1, 3.0, 2),
    _j(1, 2, 2.5, 2),
    _t(1, 2.6, 3, LOOSE_SPEC),
)

# The n = 1 acceptance T/J cases, the four I-limit cases and the n = 1
# T-limit partners those need that the acceptance list lacks.
ONE_D = (
    _t(1, 2.0, 1),
    _t(1, 2.3 + 0.4j, 1),
    _t(2, 2.0, 1),
    _j(1, 1, 3.0, 1),
    _j(2, 2, 2.2, 1),
    _t(1, 2.5, 1),
    _t(2, 2.5, 1),
    _i(1, 2.0),
    _i(2, 2.0),
    _i(1, 2.5),
    _i(2, 2.5),
)
