"""Serialized scattering-symbol datasets, schema ``scatjet.symbols/7``.

The JSON layout is columnar and canonical: object keys are sorted and
separators fixed, so the same dataset always serializes to the same bytes.
The header holds ``n``, ``grid_shape``, ``scale_t`` and the ``energies``
(and, with first-order data, ``t_pair``) as ``[re, im]`` pairs of JSON
numbers; an integer field must be a JSON integer and a float field a JSON
number, never a string or a boolean.  Each array is one string written by
:func:`pack_array`: the standard, padded base64 of its C-order
little-endian float64 bytes.  A complex array whose imaginary parts are all
``+0.0`` is written as its real parts, any other as ``re, im`` pairs; the
reader tells the two apart by the value count, which the header fixes.
Every bit is kept:

* ``probes`` (with first-order data): the ``P`` unit probe directions shared
  by every grid point, real ``(P, n)``, so ``P`` is the value count over ``n``;
* ``symbols``: complex ``(E, *grid, C, 2)``, energy first, the pairs
  ``(S(xi), S(t xi))`` per energy, grid index and covector of
  :func:`~scatjet.boundary_jets.polarization_covectors`;
* ``singularity`` (optional): complex ``(*grid, P)``, present exactly when
  ``probes`` and ``t_pair`` are.

In memory every grid array is grid first, ``symbols`` ``(*grid, E, C, 2)``:
the codec (``to_dict``, ``from_dict``) alone moves the energy axis.  An
energy is a :class:`~scatjet.boundary_jets.ComplexEnergy` of its ``lam`` alone.  ``symbols``
and ``singularity`` are float64 for real data (the forward map at real
energies, or a file that holds real parts) and complex128 otherwise; a float
array packs to the same bytes as a complex array whose imaginary parts are
all ``+0.0``.

A dataset holds the scattering data and nothing derived from the unknowns:
the inverse screens its energies against the exceptional set of the fields
it recovers.

:func:`pack_array` returns its text as a :class:`PackedArray`, a ``str``
that :func:`canonical_json` copies as it stands: base64 needs no JSON
escape, so the encoder never scans it.  Decoding only turns each string
into an array of its declared shape; every check of the values runs in the
:class:`SymbolDataset` constructor, for datasets built in memory and read
from files alike.  Files of the earlier layouts ``scatjet.symbols/1`` to
``/6`` are refused.
"""
from __future__ import annotations

import base64
import cmath
import json
import math
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .boundary_jets import ComplexEnergy, float_or_complex, polarization_covectors, probe_array
from .errors import DIMENSIONS, ConfigError, IoError, as_float, as_int, fold_last, raise_first

SCHEMA = "scatjet.symbols/7"
_OLD_SCHEMAS = tuple(f"scatjet.symbols/{k}" for k in range(1, 7))
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, OverflowError)


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj: Any, name: str) -> complex:
    """The complex number of an ``[re, im]`` pair.

    A part that is not a number (a string or a boolean) raises
    :class:`ConfigError` naming ``name``.
    """
    re, im = obj
    return complex(as_float(re, name), as_float(im, name))


class PackedArray(str):
    """The base64 text of :func:`pack_array`, which never needs a JSON escape.

    It is an ordinary ``str`` to every reader.  :func:`canonical_json` trusts
    it to hold base64 alone and copies it between quotes as it stands.
    """

    __slots__ = ()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_MARK = "\x00"  # never in the encoder's own text: it escapes every control character


def canonical_json(obj: Any) -> str:
    """Deterministic serialization: sorted keys, fixed separators, newline.

    The text equals ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
    plus a newline.  It is written in one pass of the C encoder that
    ``_ENCODER.encode`` builds, with the same settings, but with a string
    writer that puts a mark in place of each :class:`PackedArray`; the packed
    texts are then copied in between quotes as they stand, never scanned for
    escapes.  Every other string goes through json's own
    ``encode_basestring_ascii``.
    """
    packed: list[str] = []

    def string(text: str) -> str:
        if isinstance(text, PackedArray):
            packed.append(text)
            return _MARK
        return encode_basestring_ascii(text)

    e = _ENCODER
    # the call that JSONEncoder.iterencode makes, with the string writer swapped
    encode = c_make_encoder(
        {},
        e.default,
        string,
        e.indent,
        e.key_separator,
        e.item_separator,
        e.sort_keys,
        e.skipkeys,
        e.allow_nan,
    )
    first, *rest = "".join(encode(obj, 0)).split(_MARK)
    out = [first]
    for text, after in zip(packed, rest):
        out += ['"', text, '"', after]
    out.append("\n")
    return "".join(out)


def read_text(path: str | Path) -> str:
    """The text of the file ``path``; :class:`IoError` naming it if it cannot be read."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = exc
    raise IoError(f"cannot read {path}: {reason}")


def read_json(path: str | Path):
    """The JSON value in the file ``path``; :class:`IoError` naming it if the
    file is missing, cannot be read or is not valid JSON."""
    if not Path(path).exists():
        raise IoError(f"input file not found: {path}")
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise IoError(f"{path} is not valid JSON: {exc}") from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to the file ``path``; :class:`IoError` naming it if that fails."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from None


def valid_scale(t: float) -> bool:
    """The rule for a homogeneity scale ``t``: finite, positive and not 1 (NaN fails)."""
    return math.isfinite(t) and t > 0 and t != 1


def check_header(n: int, grid_shape: tuple[int, ...], scale_t: float, energies) -> None:
    """The checks that the shapes of the grid arrays rest on, and the rule for ``scale_t``.

    :class:`ConfigError` names the first bad entry.
    """
    if n not in DIMENSIONS:
        raise ConfigError(f"dataset dimension n={n} outside supported range 1..3")
    if len(grid_shape) != n:
        raise ConfigError(f"grid_shape {tuple(grid_shape)} has {len(grid_shape)} axes, expected n={n}")
    for axis, m in enumerate(grid_shape):
        if m < 1:
            raise ConfigError(
                f"grid_shape {tuple(grid_shape)}: axis {axis} has {m} points, need at least 1"
            )
    if not valid_scale(scale_t):
        raise ConfigError(
            f"scale_t={scale_t} must be finite, positive and not 1 "
            "(the sigma stage divides by log t)"
        )
    if not energies:
        raise ConfigError("dataset has no energies")


def pack_array(arr: np.ndarray) -> PackedArray:
    """A grid array as JSON: base64 of its C-order little-endian float64 bytes.

    A complex array is written as its real parts when every imaginary part
    is the float64 word of ``+0.0``, and otherwise as ``re, im`` pairs.  The
    test is on the bits, so a ``-0.0`` or NaN imaginary part keeps the
    pairs and :func:`unpack_array` gives back every bit.  A float array
    writes the same text as its widening to complex.
    """
    if np.iscomplexobj(arr):
        arr = np.ascontiguousarray(arr, dtype="<c16")
        if not arr.reshape(-1).view(np.uint64)[1::2].any():
            arr = arr.real
    else:
        arr = np.asarray(arr, dtype="<f8")
    raw = arr.tobytes()
    return PackedArray(base64.b64encode(raw).decode("ascii"))


def unpack_array(text: Any, name: str, shape: tuple[int, ...], kind: type) -> np.ndarray:
    """Inverse of :func:`pack_array`: an array of ``shape``, every bit kept.

    For ``kind`` ``complex`` the value count tells the two forms apart:
    ``prod(shape)`` values are the real parts, returned as a float array
    that widens to the complex one exactly, and ``2 * prod(shape)`` values
    are ``re, im`` pairs.  A ``-1`` axis of a float array takes its length
    from the value count, rounded up: an array missing some values then
    fails the count check as short.  Any failure is an :class:`IoError`
    naming the array ``name``.
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
    rest = -math.prod(shape)
    shape = tuple(-(-flat.size // rest) if m == -1 else m for m in shape)
    size = math.prod(shape)
    if flat.size == size:
        return flat.reshape(shape)
    if kind is complex and flat.size == 2 * size:
        return flat.view(complex).reshape(shape)
    expected = f"{size} (real parts) or {2 * size} (re, im pairs)" if kind is complex else size
    raise IoError(
        f"{name}: expected {expected} float64 values for a {kind.__name__} array "
        f"of shape {shape}, got {flat.size}"
    )


@dataclass(frozen=True)
class SymbolDataset:
    """Symbol samples over a boundary grid, with optional extras.

    ``energies`` holds the ``ComplexEnergy`` of each ``lam`` given (a number or an energy's).
    ``symbols`` is a read-only array of shape ``(*grid_shape, E, C, 2)``:
    ``symbols[(*idx, e, c)]`` holds the pair ``(S(xi), S(t xi))`` for grid
    index ``idx``, energy index ``e`` and the covector
    ``boundary_jets.polarization_covectors(n)[c]``.
    ``probes`` (if present) is the read-only real ``(P, n)`` array of the
    unit probe directions, one set for every grid point, and
    ``singularity`` the read-only ``(*grid_shape, P)`` array of the
    first-order singularity coefficient ``F`` at those probes, and
    ``t_pair`` the two model-integral factors
    they were built with, which the inverse reads; the three come together
    or not at all.  ``symbols`` and ``singularity`` keep the dtype the
    caller gives, as copies: float64 for real data (the forward map at real
    energies, a file written as real parts) and complex128 for complex ones.
    Construction checks every field and raises
    :class:`ConfigError` naming the first bad entry (a missing one of the
    three by name, a probe by its index, an entry of a grid array by its
    grid index and sample).
    """

    n: int
    grid_shape: tuple[int, ...]
    scale_t: float
    energies: tuple[ComplexEnergy, ...]
    symbols: np.ndarray
    singularity: np.ndarray | None = None
    probes: np.ndarray | None = None
    t_pair: tuple[complex, complex] | None = None

    def __post_init__(self):
        check_header(self.n, self.grid_shape, self.scale_t, self.energies)
        lams = (e.lam if isinstance(e, ComplexEnergy) else e for e in self.energies)
        object.__setattr__(self, "energies", tuple(map(ComplexEnergy, lams)))
        g = len(self.grid_shape)
        symbols = float_or_complex(self.symbols).copy()
        want = (*self.grid_shape, len(self.energies), len(polarization_covectors(self.n)), 2)
        if symbols.shape != want:
            raise ConfigError(f"symbols has shape {symbols.shape}, expected {want}")
        bad = ~fold_last(np.logical_and, np.isfinite(symbols))
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
            probes = probe_array(self.probes, self.n, ConfigError, "probes: ")
            singularity = float_or_complex(self.singularity).copy()
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

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "schema": SCHEMA,
            "n": self.n,
            "grid_shape": list(self.grid_shape),
            "scale_t": float(self.scale_t),
            "energies": [encode_complex(en.lam) for en in self.energies],
            "symbols": pack_array(np.moveaxis(self.symbols, len(self.grid_shape), 0)),
        }
        if self.singularity is not None:
            out["singularity"] = pack_array(self.singularity)
            out["probes"] = pack_array(self.probes)
        if self.t_pair is not None:
            out["t_pair"] = [encode_complex(self.t_pair[0]), encode_complex(self.t_pair[1])]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SymbolDataset":
        """Decode a ``scatjet.symbols/7`` dataset and check it.

        Raises :class:`IoError`: for an array that is not a base64 string of
        the right value count, naming the array (and its expected shape),
        for a header field of the wrong JSON type, naming the field,
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
            n = as_int(data["n"], "n")
            grid_shape = tuple(as_int(m, "grid_shape entry") for m in data["grid_shape"])
            scale_t = as_float(data["scale_t"], "scale_t")
            energies = tuple(decode_complex(z, "energies entry") for z in data["energies"])
            # the expected array lengths below are only meaningful for a valid header
            check_header(n, grid_shape, scale_t, energies)
            file_shape = (len(energies), *grid_shape, len(polarization_covectors(n)), 2)
            symbols = unpack_array(data["symbols"], "symbols", file_shape, complex)
            # the file is energy first; the constructor copies this grid-first view
            symbols = np.moveaxis(symbols, 0, len(grid_shape))
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
                t_pair = (decode_complex(t1, "t_pair entry"), decode_complex(t2, "t_pair entry"))
            return cls(
                n=n,
                grid_shape=grid_shape,
                scale_t=scale_t,
                energies=energies,
                symbols=symbols,
                singularity=singularity,
                probes=probes,
                t_pair=t_pair,
            )
        except ConfigError as exc:
            raise IoError(str(exc)) from None
        except _MALFORMED as exc:
            raise IoError(f"malformed dataset: {type(exc).__name__}: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "SymbolDataset":
        return cls.from_dict(read_json(path))
