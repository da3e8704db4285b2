"""Serialized scattering-symbol datasets.

The JSON layout is deliberately flat and canonical: complex scalars are
``[re, im]`` pairs, complex arrays nest those pairs, object keys are sorted
and separators fixed, so the same dataset always serializes to the same
bytes.  Grid indices become comma-joined keys (``"3"`` or ``"1,2"``),
covector labels join with ``+`` (``"0"`` for ``e_1``, ``"0+1"`` for
``e_1 + e_2``).
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import IoError
from .forward_scattering import SingularitySample

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
    raw = np.asarray(obj, dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


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


def _parse_grid_key(key: str) -> tuple[int, ...]:
    return tuple(int(p) for p in key.split(","))


def _cov_key(key: tuple[int, ...]) -> str:
    return "+".join(str(i) for i in key)


def _parse_cov_key(key: str) -> tuple[int, ...]:
    return tuple(int(p) for p in key.split("+"))


def polarization_covectors(n: int) -> list[tuple[int, ...]]:
    """Covector labels every grid point must carry: ``e_i`` and ``e_i + e_j`` (``i < j``)."""
    return [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]


def _decode_finite(obj: Any, where: str) -> complex:
    z = decode_complex(obj)
    if not cmath.isfinite(z):
        raise IoError(f"{where}: {z} is not finite")
    return z


def _decode_symbols(grid_block: Mapping, e: int, grid_keys: list[str], required: dict) -> dict:
    """Decode energy ``e``'s symbol block, checking completeness and finiteness.

    ``required`` maps each covector label every grid point must carry to its
    tuple form.
    """
    per_idx = {}
    for key, pairs in grid_block.items():
        decoded = {}
        for ck, (pv, pvt) in pairs.items():
            v, vt = decode_complex(pv), decode_complex(pvt)
            if not (cmath.isfinite(v) and cmath.isfinite(vt)):
                raise IoError(
                    f"symbols: energy index {e}, grid key {key!r}, covector {ck!r}: "
                    "sample is not finite"
                )
            decoded[required.get(ck) or _parse_cov_key(ck)] = (v, vt)
        if not required.keys() <= pairs.keys():
            ck = next(ck for ck in required if ck not in pairs)
            raise IoError(f"symbols: energy index {e}, grid key {key!r}: covector {ck!r} missing")
        per_idx[_parse_grid_key(key)] = decoded
    for key in grid_keys:
        if key not in grid_block:
            raise IoError(f"symbols: energy index {e}: grid key {key!r} missing")
    return per_idx


def _decode_singularity(block: Mapping, grid_keys: list[str]) -> dict:
    """Decode the first-order samples, checking completeness and finiteness."""
    for key in grid_keys:
        if key not in block:
            raise IoError(f"singularity: grid key {key!r} missing")
    out = {}
    for key, samples in block.items():
        decoded = []
        for j, s in enumerate(samples):
            value = decode_complex(s["value"])
            if not (all(map(math.isfinite, s["omega"])) and cmath.isfinite(value)):
                raise IoError(f"singularity: grid key {key!r}, sample {j}: not finite")
            decoded.append(SingularitySample(omega=np.asarray(s["omega"], dtype=float), value=value))
        out[_parse_grid_key(key)] = tuple(decoded)
    return out


@dataclass(frozen=True)
class SymbolDataset:
    """Symbol samples over a boundary grid, with optional extras.

    ``symbols[e][idx][cov]`` holds the pair ``(S(xi), S(t xi))`` for energy
    index ``e``, grid index ``idx`` and covector ``cov``; ``singularity``
    (if present) holds per-point angular samples of the first-order
    singularity coefficient, and ``t_pair`` the two model-integral factors
    needed to invert them.
    """

    n: int
    grid_shape: tuple[int, ...]
    scale_t: float
    energies: tuple[complex, ...]
    symbols: tuple[Mapping[tuple[int, ...], Mapping[tuple[int, ...], tuple[complex, complex]]], ...]
    singularity: Mapping[tuple[int, ...], tuple[SingularitySample, ...]] | None = None
    t_pair: tuple[complex, complex] | None = None
    exceptional: dict | None = None

    def symbol_pairs(
        self, idx: tuple[int, ...], lam: complex
    ) -> Mapping[tuple[int, ...], tuple[complex, complex]]:
        for e, known in enumerate(self.energies):
            if known == lam:
                return self.symbols[e][tuple(idx)]
        raise KeyError(f"energy {lam} not in dataset")

    def singularity_samples(self, idx: tuple[int, ...]) -> tuple[SingularitySample, ...]:
        if not self.singularity:
            return ()
        return self.singularity[tuple(idx)]

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
        sym_block: dict[str, dict] = {}
        for e in range(len(self.energies)):
            grid_block: dict[str, dict] = {}
            for idx, pairs in self.symbols[e].items():
                grid_block[_grid_key(idx)] = {
                    _cov_key(cov): [encode_complex(v), encode_complex(vt)]
                    for cov, (v, vt) in pairs.items()
                }
            sym_block[str(e)] = grid_block
        out: dict[str, Any] = {
            "schema": SCHEMA,
            "n": self.n,
            "grid_shape": list(self.grid_shape),
            "scale_t": float(self.scale_t),
            "energies": [encode_complex(lam) for lam in self.energies],
            "symbols": sym_block,
        }
        if self.singularity is not None:
            out["singularity"] = {
                _grid_key(idx): [
                    {"omega": [float(w) for w in s.omega], "value": encode_complex(s.value)}
                    for s in samples
                ]
                for idx, samples in self.singularity.items()
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
            required = {_cov_key(cov): cov for cov in polarization_covectors(n)}
            symbols = []
            for e in range(len(energies)):
                grid_block = data["symbols"].get(str(e))
                if grid_block is None:
                    raise IoError(f"symbols: energy index {e} missing")
                symbols.append(_decode_symbols(grid_block, e, grid_keys, required))
            singularity = None
            if "singularity" in data:
                singularity = _decode_singularity(data["singularity"], grid_keys)
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
            symbols=tuple(symbols),
            singularity=singularity,
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
