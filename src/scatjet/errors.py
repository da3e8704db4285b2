"""Exception taxonomy for the scatjet toolkit, and the base every module imports.

Every error raised by library code derives from :class:`ScatjetError`, so
callers (and the CLI) can distinguish numeric-stage failures from plain
programming errors.  Names describe the failure mode, one class per mode.

The module also holds the checks and helpers shared across modules: argument
coercion, the grid checks (:func:`fold_last`, :func:`raise_first` and its
:class:`Residual`), the dimension rule (``DIMENSIONS``), the one bound on
the size of an input-sized array (:func:`check_array_size`), the one
Gamma-pole rule (:func:`near_integer`) and the stage timer (:func:`timed`).
It needs numpy alone: only :mod:`~scatjet.forward_scattering` and
:mod:`~scatjet.model_quadrature`, which evaluate Gamma, import scipy.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

STAGE_LOGGER = "scatjet.stages"  # the logger of the stage timings of ``timed``

# the most values an array whose size the input sets may hold: 256 MiB of float64
MAX_ARRAY_VALUES = 2**25
DIMENSIONS = (1, 2, 3)  # the supported boundary dimensions n
# what reading a malformed JSON value, or too deep an expression, raises; the readers name it
MALFORMED = (LookupError, TypeError, ValueError, AttributeError, OverflowError, RecursionError)


class ScatjetError(Exception):
    """Base class for all toolkit errors."""


class BranchCut(ScatjetError):
    """Square-root argument fell on the negative real axis at some grid point."""


class NotConvergent(ScatjetError):
    """Integral fails its absolute-convergence inequality; not attempted."""


class QuadratureFailure(ScatjetError):
    """A model integral missed its error tolerance within budget, or its value is not finite."""


class GammaPole(ScatjetError):
    """A Gamma-function argument sits at a nonpositive integer."""


class ZeroCovector(ScatjetError):
    """Covector argument is zero; its norm power is undefined."""


class ZeroSymbol(ScatjetError):
    """Symbol sample is zero; no logarithm/ratio can be taken."""


class BranchAmbiguity(ScatjetError):
    """No branch of the complex log yields a root in the principal half-plane."""


class NotPositiveDefinite(ScatjetError):
    """Recovered (or supplied) metric fails positive-definiteness."""


class InconsistentData(ScatjetError):
    """Input samples are mutually inconsistent beyond tolerance."""


class ExceptionalEnergy(ScatjetError):
    """An energy is on the branch cut or within the margin of an exceptional energy."""


class ZeroIntegralFactor(ScatjetError):
    """A model-integral factor is numerically zero; division would be meaningless."""


class ConfigError(ScatjetError):
    """Bad run configuration (CLI flags, config fields, schema violations)."""


class IoError(ScatjetError):
    """File/JSON input could not be read or parsed."""


def as_int(value, name: str) -> int:
    """``value`` if it is an integer; :class:`ConfigError` for a bool or a non-integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str) -> float:
    """``value`` as a float if it is a number; :class:`ConfigError` for a bool or a non-number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_floats(value, name: str) -> np.ndarray:
    """A number, ndarray or nest of lists as a new float array, each entry by :func:`as_float`.

    A numeric ndarray is converted whole; anything else is walked, its first non-number
    in C order refused.  A ragged nest or an integer past double range raises
    :class:`ValueError` or :class:`OverflowError`."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float)
    pending = [value.tolist() if isinstance(value, np.ndarray) else value]
    while pending:
        if not isinstance(v := pending.pop(), (list, tuple)):
            as_float(v, name)
        elif not set(map(type, v)) <= {int, float}:  # a list of plain numbers passes at once
            pending.extend(reversed(v))
    return np.array(value, dtype=float)


def as_complex(value, name: str) -> complex:
    """``value`` as a complex if it is a number; :class:`ConfigError` for a bool or a non-number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, complex, np.number)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return complex(value)


def fold_last(ufunc, a, k: int = 1):
    """``ufunc.reduce`` of ``a`` over its last ``k`` axes, as one elementwise call per slice.

    For the order-independent ``logical_and``, ``logical_or`` and ``maximum``
    the result has reduce's values.  Two sets of bits are left to the order
    of evaluation, in numpy's own reduce as here: the payload of a NaN
    (NaN stays NaN) and the sign of a maximum over ``+0.0`` and ``-0.0``.
    numpy's reduce runs one inner loop per output element, which on a grid
    with a short trailing axis costs far more than the arithmetic; this pays
    one elementwise call per slice of those axes instead.  With fewer than
    two slices it is ``ufunc.reduce`` itself: the identity on an empty axis,
    or the error of a ufunc that has none.
    """
    a = np.asarray(a)
    lead = a.ndim - k
    slices = [a[(..., *j)] for j in itertools.product(*map(range, a.shape[lead:]))]
    if len(slices) < 2:
        return ufunc.reduce(a, axis=tuple(range(lead, a.ndim)))
    out = np.asarray(ufunc(slices[0], slices[1]))
    for s in slices[2:]:
        ufunc(out, s, out=out)
    return out[()]


@dataclass(frozen=True)
class Residual:
    """A per-point residual and its bound: the one record a refusal and a report both read.

    ``values`` has the grid as its first ``n`` axes and a point's samples
    along any others; ``bound`` broadcasts against it.  A value fails where it
    is not ``<= bound``, so NaN fails; :func:`raise_first` then raises
    ``error`` with ``message(i)``.
    """

    name: str
    values: np.ndarray
    bound: float | np.ndarray
    error: type
    message: Callable[[tuple[int, ...]], str]

    def worst(self, n: int) -> dict:
        """The largest value, its first index in C order, split as :func:`raise_first`
        names a refusal into ``grid_index`` and ``sample``, and the ``bound`` there."""
        values = np.asarray(self.values)
        i = np.unravel_index(values.argmax(), values.shape)
        return {
            "worst": float(values[i]),
            "grid_index": tuple(int(k) for k in i[:n]),
            "sample": tuple(int(k) for k in i[n:]),
            "bound": float(np.broadcast_to(self.bound, values.shape)[i]),
        }


def raise_first(n: int, checks) -> None:
    """Raise for the first failing point, in C order, of elementwise checks.

    ``checks`` lists, in the order one point is checked, a :class:`Residual`
    or a ``(failed, error_class, message)`` triple: ``failed`` is a boolean
    scalar or array and ``message(i)`` describes the failure at index ``i``
    of its array.  The points are the indices over the leading axes that
    every check has; a check with more axes judges the samples of a point
    along them.  At the first point where any check fails, the first check
    that fails there raises, at its first failing index in that point.  For
    array input the message ends with the grid index (the first ``n`` axes)
    and, when the index has more axes, the sample index along them; with
    ``n = 0`` (one point's scalars) it names the sample alone.
    """
    checks = [
        (~(np.asarray(c.values) <= c.bound), c.error, c.message) if isinstance(c, Residual) else c
        for c in checks
    ]
    masks = [np.asarray(failed, dtype=bool) for failed, _, _ in checks]
    depth = min(m.ndim for m in masks)
    shape = masks[0].shape[:depth]
    if any(m.shape[:depth] != shape for m in masks):
        shape = np.broadcast_shapes(*(m.shape[:depth] for m in masks))
    # when nothing fails this costs one reduction per check; it comes after the
    # shapes are judged, so that a mis-shaped check list still raises
    if not any(m.any() for m in masks):
        return
    at_point = [np.broadcast_to(m.any(axis=tuple(range(depth, m.ndim))), shape) for m in masks]
    hits = np.flatnonzero(np.logical_or.reduce(at_point))
    if not hits.size:
        return
    point = tuple(int(k) for k in np.unravel_index(hits[0], shape))
    for mask, failed, (_, error_class, message) in zip(masks, at_point, checks):
        if failed[point]:
            inside = np.broadcast_to(mask, shape + mask.shape[depth:])[point]
            first = np.unravel_index(np.flatnonzero(inside)[0], inside.shape)
            i = point + tuple(int(k) for k in first)
            where = [f"grid index {i[:n]}"] if n and i else []
            if len(i) > n:
                where.append(f"sample {i[n:]}")
            raise error_class(message(i) + (f" at {', '.join(where)}" if where else ""))


def check_dimension(n: int) -> None:
    """:class:`ValueError` unless ``n`` is one of the supported ``DIMENSIONS``, 1..3."""
    if n not in DIMENSIONS:
        raise ValueError("n must be 1..3 (the supported boundary dimensions)")


def check_array_size(shape: tuple[int, ...], subject: str) -> None:
    """:class:`ConfigError` if an array of ``shape`` would hold over ``MAX_ARRAY_VALUES`` values.

    Judged from the shape alone, before anything is allocated; the message
    reads ``subject`` followed by the shape and its size.
    """
    size = math.prod(shape)
    if size > MAX_ARRAY_VALUES:
        raise ConfigError(
            f"{subject} of shape {shape}, {size} values, above the {MAX_ARRAY_VALUES} allowed"
        )


def real_part_if_real(z):
    """The scalar ``z`` as a float when its imaginary part is zero, as it is otherwise.

    A zero-imaginary scalar then keeps float operands in float arithmetic;
    against a complex operand numpy widens it back, so a complex computation
    runs the same operations either way.
    """
    return z.real if z.imag == 0 else z


# from here on every double is an integer
_EVERY_DOUBLE_AN_INTEGER = 2.0**52


def near_integer(w) -> np.ndarray:
    """Where ``w`` is an integer to 1e-12, elementwise: the one Gamma-pole rule.

    It is judged only where ``|Re w| < 2^52``: every double above that is an
    integer, so the test would name rounding, not a pole.  A ``w`` that is
    not finite is no integer.
    """
    w = np.asarray(w)
    with np.errstate(all="ignore"):
        re = w.real
        return (
            (np.abs(w.imag) < 1e-12)
            & (np.abs(re) < _EVERY_DOUBLE_AN_INTEGER)
            & (np.abs(re - np.round(re)) < 1e-12)
        )


@contextlib.contextmanager
def timed(stage: str):
    """Log the block's wall time at debug level as one JSON line.

    The line is ``{"seconds": ..., "stage": stage}`` on the logger named
    ``STAGE_LOGGER``, built only when that logger is enabled for debug; a
    block that raises logs nothing.
    """
    start = time.perf_counter()
    yield
    seconds = time.perf_counter() - start
    logger = logging.getLogger(STAGE_LOGGER)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(json.dumps({"seconds": seconds, "stage": stage}))
