"""Serialized scattering-symbol datasets.

The JSON layout is deliberately flat and canonical: complex scalars are
``[re, im]`` pairs, complex arrays nest those pairs, object keys are sorted
and separators fixed, so the same dataset always serializes to the same
bytes.  Grid indices become comma-joined keys (``"3"`` or ``"1,2"``),
covector labels join with ``+`` (``"0"`` for ``e_1``, ``"0+1"`` for
``e_1 + e_2``).  The optional ``singularity`` block maps each grid key to its
list of ``{"omega": [...], "value": [re, im]}`` samples; in memory it is one
complex ``(*grid, P)`` array beside a ``(*grid, P, n)`` probe array, so every
grid key must carry the same number ``P`` of samples.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import ConfigError, IoError, raise_first

SCHEMA = "scatjet.symbols/1"


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj: Any) -> complex:
    re, im = obj
    return complex(re, im)


def encode_complex_array(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def decode_complex_array(obj: Any) -> np.ndarray:
    """Nested ``[re, im]`` pairs to a complex array, every bit kept (``-0.0`` too)."""
    raw = np.array(obj, dtype=float)
    if raw.shape[-1:] != (2,):
        raise ValueError(f"complex entries must be [re, im] pairs, got shape {raw.shape}")
    return raw.view(complex)[..., 0]


def canonical_json(obj: Any) -> str:
    """Deterministic serialization: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def exceptional_to_dict(es) -> dict:
    """JSON block for an exceptional-set summary (see ``spectral_sets``)."""
    return {
        "interval_lambda_sq": [float(es.interval_lambda_sq[0]), float(es.interval_lambda_sq[1])],
        "modes": [
            {
                "k": int(m.k),
                "y_index": list(m.y_index),
                "lambda_sq": encode_complex(m.lambda_sq),
            }
            for m in es.mode_points
        ],
        "user_excluded": [encode_complex(z) for z in es.user_excluded],
    }


def _grid_key(idx: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in idx)


def _cov_key(key: tuple[int, ...]) -> str:
    return "+".join(str(i) for i in key)


def polarization_covectors(n: int) -> list[tuple[int, ...]]:
    """Covector labels every grid point must carry: ``e_i`` and ``e_i + e_j`` (``i < j``)."""
    return [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]


def _decode_finite(obj: Any, where: str) -> complex:
    z = decode_complex(obj)
    if not cmath.isfinite(z):
        raise IoError(f"{where}: {z} is not finite")
    return z


def _decode_symbols(grid_block: Mapping, e: int, grid_keys: list[str], slots: dict) -> list:
    """Decode energy ``e``'s symbol block, checking completeness and finiteness.

    ``slots`` maps each covector label every grid point must carry to its
    position in :func:`polarization_covectors`.  Returns one row of
    ``(S(xi), S(t xi))`` pairs per grid key, in slot order.
    """
    rows = []
    for key in grid_keys:
        pairs = grid_block.get(key)
        if pairs is None:
            raise IoError(f"symbols: energy index {e}: grid key {key!r} missing")
        row = [None] * len(slots)
        for ck, (pv, pvt) in pairs.items():
            v, vt = decode_complex(pv), decode_complex(pvt)
            if not (cmath.isfinite(v) and cmath.isfinite(vt)):
                raise IoError(
                    f"symbols: energy index {e}, grid key {key!r}, covector {ck!r}: "
                    "sample is not finite"
                )
            slot = slots.get(ck)
            if slot is None:
                raise IoError(
                    f"symbols: energy index {e}, grid key {key!r}: unknown covector {ck!r}"
                )
            row[slot] = (v, vt)
        if len(pairs) != len(slots):
            ck = next(ck for ck in slots if ck not in pairs)
            raise IoError(f"symbols: energy index {e}, grid key {key!r}: covector {ck!r} missing")
        rows.append(row)
    return rows


def _probe_masks(probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-probe ``(finite, unit)`` masks over a ``(..., n)`` probe array."""
    finite = np.all(np.isfinite(probes), axis=-1)
    # the first-order fit's own bound; written so that a NaN norm fails too
    unit = np.abs(np.linalg.norm(probes, axis=-1) - 1.0) <= 1e-9
    return finite, unit


def _decode_singularity(block: Mapping, grid_shape: tuple[int, ...], n: int):
    """Decode the first-order samples into ``(values, probes)`` arrays over the grid.

    Every grid key must carry the same positive number of samples, each with
    a finite value and a finite unit ``omega`` of length ``n``.
    """
    grid_keys = [_grid_key(idx) for idx in np.ndindex(*grid_shape)]
    extra = set(block).difference(grid_keys)
    if extra:
        raise IoError(f"singularity: grid key {min(extra)!r} is not a grid index")
    omegas, values, count = [], [], 0
    for key in grid_keys:
        samples = block.get(key)
        if samples is None:
            raise IoError(f"singularity: grid key {key!r} missing")
        if not samples:
            raise IoError(f"singularity: grid key {key!r}: no samples")
        count = count or len(samples)
        if len(samples) != count:
            raise IoError(
                f"singularity: grid key {key!r}: {len(samples)} samples, "
                f"grid key {grid_keys[0]!r} has {count}"
            )
        for j, s in enumerate(samples):
            if len(s["omega"]) != n:
                raise IoError(
                    f"singularity: grid key {key!r}, sample {j}: omega has "
                    f"{len(s['omega'])} components, expected n={n}"
                )
            omegas.append(s["omega"])
            values.append(s["value"])
    probes = np.array(omegas, dtype=float).reshape(grid_shape + (count, n))
    value = decode_complex_array(values).reshape(grid_shape + (count,))
    finite, unit = _probe_masks(probes)
    finite &= np.isfinite(value)
    for ok, what in ((finite, "not finite"), (unit, "omega is not a unit vector")):
        if not ok.all():
            *idx, j = np.argwhere(~ok)[0]
            raise IoError(f"singularity: grid key {_grid_key(idx)!r}, sample {j}: {what}")
    return value, probes


@dataclass(frozen=True)
class SymbolDataset:
    """Symbol samples over a boundary grid, with optional extras.

    ``symbols`` is a read-only complex array of shape
    ``(E, *grid_shape, C, 2)``: ``symbols[e, *idx, c]`` holds the pair
    ``(S(xi), S(t xi))`` for energy index ``e``, grid index ``idx`` and the
    covector ``polarization_covectors(n)[c]``.  ``singularity`` (if present)
    is a read-only complex array of shape ``(*grid_shape, P)`` holding the
    first-order singularity coefficient ``F`` at ``P`` probes per point, and
    ``probes`` the read-only ``(*grid_shape, P, n)`` array of those probes;
    ``t_pair`` holds the two model-integral factors needed to invert them.
    """

    n: int
    grid_shape: tuple[int, ...]
    scale_t: float
    energies: tuple[complex, ...]
    symbols: np.ndarray
    singularity: np.ndarray | None = None
    probes: np.ndarray | None = None
    t_pair: tuple[complex, complex] | None = None
    exceptional: dict | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"dataset dimension n={self.n} must be at least 1")
        symbols = np.array(self.symbols, dtype=complex)
        want = (len(self.energies), *self.grid_shape, len(polarization_covectors(self.n)), 2)
        if symbols.shape != want:
            raise ConfigError(f"symbols has shape {symbols.shape}, expected {want}")
        g = len(self.grid_shape)
        bad = np.moveaxis(~np.all(np.isfinite(symbols), axis=-1), 0, g)
        raise_first(
            g, [(bad, ConfigError, lambda i: "symbols: sample (energy index, covector) is not finite")]
        )
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)
        if self.singularity is not None:
            singularity = np.array(self.singularity, dtype=complex)
            probes = np.array(self.probes, dtype=float)
            if singularity.shape[:-1] != self.grid_shape or singularity.shape[-1:] in ((), (0,)):
                raise ConfigError(
                    f"singularity has shape {singularity.shape}, "
                    f"expected {self.grid_shape} plus a nonzero probe count"
                )
            if probes.shape != singularity.shape + (self.n,):
                raise ConfigError(
                    f"probes has shape {probes.shape}, expected {singularity.shape + (self.n,)}"
                )
            finite, unit = _probe_masks(probes)
            raise_first(
                g,
                [
                    (~np.isfinite(singularity), ConfigError, lambda i: "singularity: value is not finite"),
                    (~finite, ConfigError, lambda i: "probes: omega is not finite"),
                    (~unit, ConfigError, lambda i: "probes: omega is not a unit vector"),
                ],
            )
            for arr, name in ((singularity, "singularity"), (probes, "probes")):
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    def exceptional_set(self):
        if self.exceptional is None:
            return None
        from .spectral_sets import ExceptionalSet, ModePoint

        block = self.exceptional
        modes = tuple(
            ModePoint(
                k=int(m["k"]),
                y_index=tuple(m["y_index"]),
                lambda_sq=decode_complex(m["lambda_sq"]),
            )
            for m in block.get("modes", [])
        )
        return ExceptionalSet(
            interval_lambda_sq=tuple(block["interval_lambda_sq"]),
            mode_points=modes,
            user_excluded=tuple(decode_complex(z) for z in block.get("user_excluded", [])),
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        grid_keys = [_grid_key(idx) for idx in np.ndindex(*self.grid_shape)]
        cov_keys = [_cov_key(cov) for cov in polarization_covectors(self.n)]
        sym_block: dict[str, dict] = {}
        for e, sym in enumerate(self.symbols):
            rows = encode_complex_array(sym.reshape(len(grid_keys), len(cov_keys), 2))
            sym_block[str(e)] = {key: dict(zip(cov_keys, row)) for key, row in zip(grid_keys, rows)}
        out: dict[str, Any] = {
            "schema": SCHEMA,
            "n": self.n,
            "grid_shape": list(self.grid_shape),
            "scale_t": float(self.scale_t),
            "energies": [encode_complex(lam) for lam in self.energies],
            "symbols": sym_block,
        }
        if self.singularity is not None:
            count = self.singularity.shape[-1]
            omegas = self.probes.reshape(len(grid_keys), count, self.n).tolist()
            values = encode_complex_array(self.singularity.reshape(len(grid_keys), count))
            out["singularity"] = {
                key: [{"omega": w, "value": v} for w, v in zip(ws, vs)]
                for key, ws, vs in zip(grid_keys, omegas, values)
            }
        if self.t_pair is not None:
            out["t_pair"] = [encode_complex(self.t_pair[0]), encode_complex(self.t_pair[1])]
        if self.exceptional is not None:
            out["exceptional"] = self.exceptional
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SymbolDataset":
        """Decode and check a dataset: every grid index, covector and number.

        Raises :class:`IoError` naming the energy index, grid key and
        covector of the first missing or non-finite entry.
        """
        if data.get("schema") != SCHEMA:
            raise IoError(f"unrecognized dataset schema {data.get('schema')!r}")
        try:
            n = int(data["n"])
            grid_shape = tuple(int(m) for m in data["grid_shape"])
            scale_t = float(data["scale_t"])
            if not math.isfinite(scale_t):
                raise IoError(f"scale_t is not finite: {scale_t}")
            energies = tuple(_decode_finite(z, "energies") for z in data["energies"])
            grid_keys = [_grid_key(idx) for idx in np.ndindex(*grid_shape)]
            slots = {_cov_key(cov): c for c, cov in enumerate(polarization_covectors(n))}
            symbols = []
            for e in range(len(energies)):
                grid_block = data["symbols"].get(str(e))
                if grid_block is None:
                    raise IoError(f"symbols: energy index {e} missing")
                symbols.append(_decode_symbols(grid_block, e, grid_keys, slots))
            symbols = np.array(symbols, dtype=complex).reshape(
                (len(energies), *grid_shape, len(slots), 2)
            )
            singularity = probes = None
            if "singularity" in data:
                singularity, probes = _decode_singularity(data["singularity"], grid_shape, n)
            t_pair = None
            if "t_pair" in data:
                t1, t2 = data["t_pair"]
                t_pair = (_decode_finite(t1, "t_pair"), _decode_finite(t2, "t_pair"))
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise IoError(f"malformed dataset: {type(exc).__name__}: {exc}") from None
        return cls(
            n=n,
            grid_shape=grid_shape,
            scale_t=scale_t,
            energies=energies,
            symbols=symbols,
            singularity=singularity,
            probes=probes,
            t_pair=t_pair,
            exceptional=data.get("exceptional"),
        )

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
