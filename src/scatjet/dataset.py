"""Serialized scattering-symbol datasets, schema ``scatjet.symbols/5``.

The JSON layout is columnar and canonical: object keys are sorted and
separators fixed, so the same dataset always serializes to the same bytes.
The header holds ``n``, ``grid_shape``, ``scale_t`` and the ``energies``
(and, with first-order data, ``t_pair``) as ``[re, im]`` pairs of JSON
numbers.  Each array is one string written by :func:`pack_array`: the
standard, padded base64 of its C-order little-endian float64 bytes, a
complex entry as its ``re, im`` pair, so every bit is kept:

* ``probes`` (with first-order data): the ``P`` unit probe directions shared
  by every grid point, real ``(P, n)``, so ``P`` is the value count over ``n``;
* ``symbols``: complex ``(E, *grid, C, 2)``, the pairs ``(S(xi), S(t xi))``
  per energy, grid index and covector of :func:`polarization_covectors`;
* ``singularity`` (optional): complex ``(*grid, P)``, present exactly when
  ``probes`` and ``t_pair`` are.

The optional ``exceptional`` block holds the interval, the ``user_excluded``
energies as ``[re, im]`` pairs and ``modes_lambda_sq``, real ``(*grid, K)``
with ``K`` read off the value count.  Decoding only turns each string into
an array of its declared shape; every check of the values runs in the
:class:`SymbolDataset` constructor, for datasets built in memory and read
from files alike.  Files of the earlier layouts ``scatjet.symbols/1`` to
``/4`` are refused.
"""
from __future__ import annotations

import base64
import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import ConfigError, IoError, raise_first
from .forward_scattering import check_unit_probes
from .spectral_sets import ExceptionalSet

SCHEMA = "scatjet.symbols/5"
_OLD_SCHEMAS = tuple(f"scatjet.symbols/{k}" for k in (1, 2, 3, 4))
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, OverflowError)


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj: Any) -> complex:
    re, im = obj
    return complex(re, im)


def canonical_json(obj: Any) -> str:
    """Deterministic serialization: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def exceptional_to_dict(es: ExceptionalSet) -> dict:
    """JSON block for an exceptional-set summary (see ``spectral_sets``)."""
    return {
        "interval_lambda_sq": [float(es.interval_lambda_sq[0]), float(es.interval_lambda_sq[1])],
        "modes_lambda_sq": pack_array(es.modes_lambda_sq),
        "user_excluded": [encode_complex(z) for z in es.user_excluded],
    }


def exceptional_from_dict(block: Mapping[str, Any], grid_shape: tuple[int, ...]) -> ExceptionalSet:
    """Inverse of :func:`exceptional_to_dict`; :class:`IoError` if ``block`` is malformed."""
    try:
        lo, hi = block["interval_lambda_sq"]
        return ExceptionalSet(
            interval_lambda_sq=(float(lo), float(hi)),
            modes_lambda_sq=unpack_array(
                block["modes_lambda_sq"], "exceptional: modes_lambda_sq", (*grid_shape, -1), float
            ),
            user_excluded=tuple(decode_complex(z) for z in block["user_excluded"]),
        )
    except _MALFORMED as exc:
        raise IoError(f"exceptional: malformed block: {type(exc).__name__}: {exc}") from None


def polarization_covectors(n: int) -> list[tuple[int, ...]]:
    """Covector labels every grid point must carry: ``e_i`` and ``e_i + e_j`` (``i < j``)."""
    return [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]


def _check_header(n: int, grid_shape: tuple[int, ...], scale_t: float, energies) -> None:
    """The checks that the shapes of the grid arrays rest on."""
    if n < 1:
        raise ConfigError(f"dataset dimension n={n} must be at least 1")
    if len(grid_shape) != n:
        raise ConfigError(f"grid_shape {tuple(grid_shape)} has {len(grid_shape)} axes, expected n={n}")
    for axis, m in enumerate(grid_shape):
        if m < 1:
            raise ConfigError(
                f"grid_shape {tuple(grid_shape)}: axis {axis} has {m} points, need at least 1"
            )
    if not (math.isfinite(scale_t) and scale_t > 0 and scale_t != 1):
        raise ConfigError(
            f"scale_t={scale_t} must be finite, positive and not 1 "
            "(the sigma stage divides by log t)"
        )
    if not energies:
        raise ConfigError("dataset has no energies")
    for e, lam in enumerate(energies):
        if not cmath.isfinite(lam):
            raise ConfigError(f"energies: energy index {e} ({lam}) is not finite")


def pack_array(arr: np.ndarray) -> str:
    """A grid array as JSON: base64 of its C-order little-endian float64 bytes.

    A complex entry is written as its ``re, im`` pair.
    """
    dtype = "<c16" if np.iscomplexobj(arr) else "<f8"
    return base64.b64encode(np.ascontiguousarray(arr, dtype=dtype).tobytes()).decode("ascii")


def unpack_array(text: Any, name: str, shape: tuple[int, ...], kind: type) -> np.ndarray:
    """Inverse of :func:`pack_array`: a ``kind`` array of ``shape``, every bit kept.

    A ``-1`` axis takes its length from the value count, rounded up: an
    array missing some values then fails the count check as short.  Any
    failure is an :class:`IoError` naming the array ``name``.
    """
    if not isinstance(text, str):
        got = type(text).__name__
        raise IoError(f"{name}: expected a base64 string of float64 bytes, got {got}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise IoError(f"{name}: not a base64 string of float64 bytes: {exc}") from None
    if len(raw) % 8:
        raise IoError(f"{name}: {len(raw)} bytes are not a whole number of 8-byte float64 values")
    flat = np.frombuffer(raw, dtype="<f8").astype(float, copy=False)
    width = 2 if kind is complex else 1
    rest = -math.prod(shape) * width
    shape = tuple(-(-flat.size // rest) if m == -1 else m for m in shape)
    size = math.prod(shape) * width
    if flat.size != size:
        raise IoError(
            f"{name}: expected {size} float64 values for a {kind.__name__} array "
            f"of shape {shape}, got {flat.size}"
        )
    return flat.view(kind).reshape(shape)


@dataclass(frozen=True)
class SymbolDataset:
    """Symbol samples over a boundary grid, with optional extras.

    ``symbols`` is a read-only complex array of shape
    ``(E, *grid_shape, C, 2)``: ``symbols[e, *idx, c]`` holds the pair
    ``(S(xi), S(t xi))`` for energy index ``e``, grid index ``idx`` and the
    covector ``polarization_covectors(n)[c]``.  ``probes`` (if present) is
    the read-only real ``(P, n)`` array of the unit probe directions, one set
    for every grid point, and ``singularity`` the read-only complex
    ``(*grid_shape, P)`` array of the first-order singularity coefficient
    ``F`` at those probes, and ``t_pair`` the two model-integral factors
    they were built with, which the inverse reads; the three come together
    or not at all.  ``exceptional`` is the exceptional set the energies are
    screened against.  Construction checks every field and raises
    :class:`ConfigError` naming the first bad entry (a missing one of the
    three by name, a probe by its index, an entry of a grid array by its
    grid index and sample).
    """

    n: int
    grid_shape: tuple[int, ...]
    scale_t: float
    energies: tuple[complex, ...]
    symbols: np.ndarray
    singularity: np.ndarray | None = None
    probes: np.ndarray | None = None
    t_pair: tuple[complex, complex] | None = None
    exceptional: ExceptionalSet | None = None

    def __post_init__(self):
        _check_header(self.n, self.grid_shape, self.scale_t, self.energies)
        g = len(self.grid_shape)
        symbols = np.array(self.symbols, dtype=complex)
        want = (len(self.energies), *self.grid_shape, len(polarization_covectors(self.n)), 2)
        if symbols.shape != want:
            raise ConfigError(f"symbols has shape {symbols.shape}, expected {want}")
        bad = np.moveaxis(~np.all(np.isfinite(symbols), axis=-1), 0, g)
        raise_first(
            g, [(bad, ConfigError, lambda i: "symbols: sample (energy index, covector) is not finite")]
        )
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)
        missing = [k for k in ("singularity", "probes", "t_pair") if getattr(self, k) is None]
        if 0 < len(missing) < 3:
            raise ConfigError(
                "singularity, probes and t_pair come together or not at all; "
                f"missing: {', '.join(missing)}"
            )
        if not missing:
            probes = np.array(self.probes, dtype=float)
            if probes.ndim != 2 or probes.shape[0] < 1 or probes.shape[1] != self.n:
                raise ConfigError(
                    f"probes has shape {probes.shape}, expected (P, {self.n}) with at least one probe"
                )
            check_unit_probes(probes, ConfigError, "probes: ")
            singularity = np.array(self.singularity, dtype=complex)
            want = (*self.grid_shape, len(probes))
            if singularity.shape != want:
                raise ConfigError(f"singularity has shape {singularity.shape}, expected {want}")
            raise_first(
                g, [(~np.isfinite(singularity), ConfigError, lambda i: "singularity: value is not finite")]
            )
            for arr, name in ((singularity, "singularity"), (probes, "probes")):
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
            if len(self.t_pair) != 2 or not all(cmath.isfinite(t) for t in self.t_pair):
                raise ConfigError(f"t_pair {self.t_pair} is not two finite numbers")
        if self.exceptional is not None:
            es = self.exceptional
            if es.modes_lambda_sq.shape[:-1] != self.grid_shape:
                raise ConfigError(
                    f"exceptional: modes_lambda_sq has shape {es.modes_lambda_sq.shape}, "
                    f"expected {self.grid_shape} plus a mode count"
                )
            message = "exceptional: modes_lambda_sq: mode (k,) is not finite"
            raise_first(g, [(~np.isfinite(es.modes_lambda_sq), ConfigError, lambda i: message)])
            for name in ("interval_lambda_sq", "user_excluded"):
                bad = np.flatnonzero(~np.isfinite(np.asarray(getattr(es, name), dtype=complex)))
                if bad.size:
                    raise ConfigError(f"exceptional: {name} entry {bad[0]} is not finite")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "schema": SCHEMA,
            "n": self.n,
            "grid_shape": list(self.grid_shape),
            "scale_t": float(self.scale_t),
            "energies": [encode_complex(lam) for lam in self.energies],
            "symbols": pack_array(self.symbols),
        }
        if self.singularity is not None:
            out["singularity"] = pack_array(self.singularity)
            out["probes"] = pack_array(self.probes)
        if self.t_pair is not None:
            out["t_pair"] = [encode_complex(self.t_pair[0]), encode_complex(self.t_pair[1])]
        if self.exceptional is not None:
            out["exceptional"] = exceptional_to_dict(self.exceptional)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SymbolDataset":
        """Decode a ``scatjet.symbols/5`` dataset and check it.

        Raises :class:`IoError`: for an array that is not a base64 string of
        the right value count, naming the array (and its expected shape),
        otherwise with the message of the constructor's :class:`ConfigError`
        (for a bad probe, its index; for a non-finite entry of a grid array,
        its grid index and sample).
        """
        try:
            schema = data.get("schema")
            if schema in _OLD_SCHEMAS:
                raise IoError(
                    f"dataset schema {schema!r} is no longer read; "
                    f"re-run `scatjet forward` to write {SCHEMA!r}"
                )
            if schema != SCHEMA:
                raise IoError(f"unrecognized dataset schema {schema!r}")
            n = int(data["n"])
            grid_shape = tuple(int(m) for m in data["grid_shape"])
            scale_t = float(data["scale_t"])
            energies = tuple(decode_complex(z) for z in data["energies"])
            # the expected array lengths below are only meaningful for a valid header
            _check_header(n, grid_shape, scale_t, energies)
            symbols = unpack_array(
                data["symbols"],
                "symbols",
                (len(energies), *grid_shape, len(polarization_covectors(n)), 2),
                complex,
            )
            singularity, probes = data.get("singularity"), data.get("probes")
            if probes is not None:
                probes = unpack_array(probes, "probes", (-1, n), float)
                if singularity is not None:
                    singularity = unpack_array(
                        singularity, "singularity", (*grid_shape, len(probes)), complex
                    )
            t_pair = None
            if "t_pair" in data:
                t1, t2 = data["t_pair"]
                t_pair = (decode_complex(t1), decode_complex(t2))
            exceptional = None
            if "exceptional" in data:
                exceptional = exceptional_from_dict(data["exceptional"], grid_shape)
            return cls(
                n=n,
                grid_shape=grid_shape,
                scale_t=scale_t,
                energies=energies,
                symbols=symbols,
                singularity=singularity,
                probes=probes,
                t_pair=t_pair,
                exceptional=exceptional,
            )
        except ConfigError as exc:
            raise IoError(str(exc)) from None
        except _MALFORMED as exc:
            raise IoError(f"malformed dataset: {type(exc).__name__}: {exc}") from None

    def save(self, path: str | Path) -> None:
        Path(path).write_text(canonical_json(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "SymbolDataset":
        p = Path(path)
        if not p.exists():
            raise IoError(f"dataset file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise IoError(f"dataset file {p} is not valid JSON: {exc}") from None
        return cls.from_dict(data)
