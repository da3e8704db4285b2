"""Command-line front end.

Subcommands::

    forward    patch JSON (+ optional second patch) -> symbol dataset JSON
    invert     symbol dataset JSON -> recovery report JSON (+ optional CSV)
    sets       patch JSON -> exceptional-set summary, admissibility checks
    integrals  evaluate T_l / J_l / I_l / the Green-kernel scalar
    verify     built-in identity checks; `verify green` runs the residual study alone
    roundtrip  seeded synthetic pair -> forward -> invert -> error summary

Exit codes: 0 success, 1 numeric-stage failure, 2 configuration/IO problems.
An out-of-range argument exits 2.  All structured output is canonical JSON
(sorted keys, complex scalars as [re, im], grid arrays as base64 strings of
their C-order little-endian float64 bytes), so identical inputs and seeds
produce byte-identical files.  With ``--verbose``, ``forward``, ``invert``
and ``roundtrip`` log each stage's wall time to stderr as one JSON line.
"""
from __future__ import annotations

import argparse
import cmath
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .boundary_jets import BoundaryPatch, ComplexEnergy, indicial_identity_residual, indicial_root
from .dataset import SymbolDataset, canonical_json, encode_complex, exceptional_to_dict
from .errors import ConfigError, IoError, ScatjetError
from .forward_scattering import ProbeSet, principal_symbol
from .hyperbolic_model import MIN_POINTS, green_residual_convergence
from .inversion import STAGE_LOGGER, InversionConfig, layer_strip_driver, timed
from .model_quadrature import (
    QuadratureSpec,
    green_kernel,
    i_full_integral,
    j_integral,
    t_limit_integral,
)
from .spectral_sets import exceptional_set, is_admissible
from .synthetic import constant_patch, forward_dataset, make_synthetic_pair, random_spd

log = logging.getLogger("scatjet.cli")


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` (or ``a+bj``) the way the docs write it; the value must be finite."""
    compact = text.strip().replace(" ", "")
    if compact.endswith("i"):
        compact = compact[:-1] + "j"
    try:
        value = complex(compact)
    except ValueError:
        raise ConfigError(f"cannot parse complex number from {text!r}") from None
    if not cmath.isfinite(value):
        raise ConfigError(f"complex number {text!r} is not finite")
    return value


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"input file does not exist: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise IoError(f"{p} is not valid JSON: {exc}") from None


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _z_vector(raw: str, n: int) -> np.ndarray:
    parts = [float(p) for p in raw.split(",")]
    if len(parts) == 1:
        parts = parts + [0.0] * (n - 1)
    if len(parts) != n:
        raise ConfigError(f"--z needs 1 or n={n} comma-separated components, got {len(parts)}")
    return np.asarray(parts)


def _load_probes(path: str, n: int) -> ProbeSet:
    """``--probes``: a JSON list of unit probe vectors with ``n`` components each."""
    try:
        probes = ProbeSet(vectors=tuple(tuple(float(c) for c in v) for v in _load_json(path)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--probes: {exc}") from None
    if len(probes.vectors[0]) != n:
        raise ConfigError(f"--probes: probe 0 {probes.vectors[0]} does not have n={n} components")
    return probes


def _t_pair(args) -> tuple[complex, complex] | None:
    """``--t1`` and ``--t2``: both or neither."""
    if args.t1 is None and args.t2 is None:
        return None
    if args.t1 is None or args.t2 is None:
        raise ConfigError("--t1 and --t2 must be given together")
    return parse_complex(args.t1), parse_complex(args.t2)


# -- subcommands -------------------------------------------------------------


def cmd_forward(args) -> int:
    patch = BoundaryPatch.from_dict(_load_json(args.patch))
    patch2 = BoundaryPatch.from_dict(_load_json(args.patch2)) if args.patch2 else None
    if not args.lam:
        raise ConfigError("forward requires at least one --lam")
    energies = tuple(ComplexEnergy(parse_complex(s)) for s in args.lam)
    t_pair = _t_pair(args)
    probes = _load_probes(args.probes, patch.n) if args.probes else None
    log.info(
        "forward: S(xi) = 2^(n-2s) Gamma(n/2-s)/Gamma(s-n/2) |xi|_h0^(2s-n), "
        "s = n/2 + sqrt((n/2)^2 - (V0 - lam^2 - n^2/4)/alpha^2)"
    )
    with timed("forward"):
        ds = forward_dataset(
            patch,
            energies,
            patch2=patch2,
            scale_t=args.scale_t,
            probes=probes,
            t_pair=t_pair,
        )
    with timed("encode"):
        text = canonical_json(ds.to_dict())
    _write_out(text, args.out)
    return 0


def _field_csv(report) -> str:
    lines = ["index,alpha_sq,v0,sigma1_re,sigma1_im"]
    for idx in np.ndindex(*report.grid_shape):
        key = "-".join(str(i) for i in idx)
        a = float(report.alpha_sq[idx]) if report.alpha_sq is not None else float("nan")
        v = float(report.v0[idx]) if report.v0 is not None else float("nan")
        s = complex(report.sigma1[idx])
        lines.append(f"{key},{a!r},{v!r},{s.real!r},{s.imag!r}")
    return "\n".join(lines) + "\n"


def _encode_report(report) -> str:
    with timed("report-encode"):
        return canonical_json(report.to_dict())


def cmd_invert(args) -> int:
    with timed("decode"):
        ds = SymbolDataset.load(args.data)
    cfg = InversionConfig(margin=args.margin, alpha_sq_known=args.alpha_sq_known)
    report = layer_strip_driver(ds, cfg)
    _write_out(_encode_report(report), args.out)
    if report.status == "refused":
        log.error("inversion refused: %s", "; ".join(report.notes))
        return 1
    if args.csv:
        Path(args.csv).write_text(_field_csv(report))
    return 0


def cmd_sets(args) -> int:
    """Exceptional sets of a patch and admissibility of the given energies.

    The model integrals add no exceptional energies: where T_l converges it
    has no zeros, and its continuation has poles only at
    sigma = (5-2l)/2 - j and sigma = (n+2l-5)/2 - j (j = 0, 1, ...).
    """
    patch = BoundaryPatch.from_dict(_load_json(args.patch))
    excluded = tuple(parse_complex(s) for s in args.exclude)
    es = exceptional_set(patch, k_max=args.k_max, user_excluded=excluded)
    log.info(
        "sets: interval [min V0 - a_max^2 n^2/4 + n^2/4, max V0 - a_min^2 n^2/4 + n^2/4] "
        "in the lam^2 plane; modes lam^2 = V0 - n^2/4 + alpha^2 (k^2 - n^2)/4"
    )
    block = exceptional_to_dict(es)
    block["grid_shape"] = list(patch.grid_shape)
    if args.lam:
        checks = []
        for s in args.lam:
            lam = parse_complex(s)
            adm = is_admissible(ComplexEnergy(lam), es, args.margin)
            checks.append(
                {
                    "lam": encode_complex(lam),
                    "ok": bool(adm.ok),
                    "reason": adm.reason or "",
                    "distances": {k: float(v) for k, v in adm.distances.items()},
                }
            )
        block["admissibility"] = checks
    _write_out(canonical_json(block), args.out)
    return 0


def _integral_level(which: str, flag_l: int) -> int:
    """Level from an explicit suffix (``T2``) or the ``--l`` flag (bare ``J``/``I``)."""
    if len(which) > 1 and which[1:].isdigit():
        return int(which[1:])
    if flag_l not in (1, 2):
        raise ConfigError("--l must be 1 or 2")
    return flag_l


def cmd_integrals(args) -> int:
    try:
        return _integrals(args)
    except ValueError as exc:
        raise ConfigError(f"integrals: {exc}") from None


def _integrals(args) -> int:
    which = args.which.strip().upper()
    sigma = parse_complex(args.sigma)
    n = args.n
    qspec = QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    payload: dict = {"which": which, "n": n, "sigma": encode_complex(sigma)}
    if which in ("T", "T1", "T2"):
        l = _integral_level(which, args.l)
        log.info("T_%d: two-center integral, u-exponent 2*sigma + %d - n", l, 4 - 2 * l)
        mv = t_limit_integral(l, sigma, n, qspec)
    elif which in ("J", "J1", "J2"):
        l = _integral_level(which, args.l)
        log.info(
            "J_%d: convergence-scale integral, u-exponent 2*Re(sigma) + k + %d - n", l, 3 - 2 * l
        )
        mv = j_integral(l, args.k, sigma, n, qspec)
        payload["k"] = args.k
    elif which in ("I", "I1", "I2"):
        l = _integral_level(which, args.l)
        z = _z_vector(args.z, n)
        log.info("I_%d at s=%g, |z|=%g: 1-D Feynman-parameter integral", l, args.s, math.hypot(*z))
        mv = i_full_integral(l, sigma, args.s, z, qspec)
        payload["s"] = args.s
        payload["z"] = z.tolist()
    elif which in ("G", "GREEN"):
        z = _z_vector(args.z, n)
        log.info("green: pi^(-n/2)/2 Gamma(s)/Gamma(s-(n-2)/2) s^sigma (1+s^2+|z|^2)^-sigma")
        val = green_kernel(args.s, z, sigma, n)
        payload.update({"s": args.s, "z": z.tolist(), "value": encode_complex(val)})
        _write_out(canonical_json(payload), args.out)
        return 0
    else:
        raise ConfigError(f"unknown integral {args.which!r} (use T1,T2,J,I,G)")
    payload["l"] = l
    payload.update(
        {
            "value": encode_complex(mv.value),
            "err": float(mv.est_error),
            "converged": bool(mv.converged),
            "evals": int(mv.n_evals),
        }
    )
    _write_out(canonical_json(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.what == "green":
        sigma = parse_complex(args.sigma)
        log.info("verify green: (D0 - s(n-s)) on the annihilated kernel, two-grid refinement")
        rc, rf, ratio = green_residual_convergence(sigma, args.n, base_points=args.grid_size)
        ok = 3.5 <= ratio <= 4.5
        _write_out(
            canonical_json(
                {
                    "sigma": encode_complex(sigma),
                    "n": args.n,
                    "grid_size": args.grid_size,
                    "coarse": {"max_residual": rc.max_residual, "spacing": rc.spacing},
                    "fine": {"max_residual": rf.max_residual, "spacing": rf.spacing},
                    "ratio": float(ratio),
                    "second_order": bool(ok),
                }
            ),
            args.out,
        )
        return 0 if ok else 1

    rng = np.random.default_rng(args.seed)
    checks = []

    log.info("verify: identity alpha^2 s (n-s) = V0 - lam^2 - n^2/4 on random configurations")
    worst = 0.0
    branch_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.5, 2.0))
        v0 = float(rng.uniform(-1.0, 1.0))
        if rng.uniform() < 0.5:
            lam = complex(rng.uniform(2.0, 6.0))
        else:
            lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0))
        en = ComplexEnergy(lam)
        patch = constant_patch(n, alpha, v0, np.eye(n))
        sigma = indicial_root(patch, en)
        res = indicial_identity_residual(patch.alpha, patch.v_jet[0], en, sigma, n)
        scale = max(1.0, abs(v0 - lam * lam - n * n / 4.0))
        worst = max(worst, float(np.max(res)) / scale)
        branch_ok = branch_ok and bool(np.all(sigma.real >= n / 2.0 - 1e-12))
    checks.append(
        {
            "name": "indicial-identity",
            "metric": worst,
            "pass": bool(worst <= 1e-12 and branch_ok),
        }
    )

    log.info("verify: homogeneity S(t xi) = t^(2s-n) S(xi)")
    worst_h = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        patch = constant_patch(
            n, float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0)), random_spd(rng, n)
        )
        en = ComplexEnergy(complex(rng.uniform(3.0, 6.0)))
        xi = rng.normal(size=n)
        idx = (0,) * n
        scales = (1.0, 2.0, 4.0, 8.0)
        base, *scaled = principal_symbol(patch, np.outer(scales, xi), (en,))[0][idx]
        sig = indicial_root(patch, en)[idx]
        for t, value in zip(scales[1:], scaled):
            expected = base * t ** (2 * sig - n)
            worst_h = max(worst_h, abs(value - expected) / max(1.0, abs(expected)))
    checks.append({"name": "symbol-homogeneity", "metric": worst_h, "pass": bool(worst_h <= 1e-10)})

    log.info("verify: (D0 - s(n-s)) G residual, second-order grid convergence")
    _, _, ratio = green_residual_convergence(1.5, 1)
    checks.append(
        {"name": "green-residual-ratio", "metric": float(ratio), "pass": bool(3.5 <= ratio <= 4.5)}
    )

    ok = all(c["pass"] for c in checks)
    _write_out(canonical_json({"checks": checks, "ok": ok, "seed": args.seed}), args.out)
    return 0 if ok else 1


def cmd_roundtrip(args) -> int:
    out_dir = Path(args.out_dir)
    if not out_dir.exists():
        raise ConfigError(f"output directory does not exist: {out_dir}")
    log.info("roundtrip: synthetic truth (seed %d, n=%d) -> forward -> invert", args.seed, args.n)
    with timed("forward"):
        truth, ds = make_synthetic_pair(args.seed, args.n)
    with timed("encode"):
        text = canonical_json(ds.to_dict())
    (out_dir / "dataset.json").write_text(text)
    # invert what the file holds, so the round trip crosses the codec
    with timed("decode"):
        ds = SymbolDataset.from_dict(json.loads(text))
    report = layer_strip_driver(ds, InversionConfig())
    (out_dir / "report.json").write_text(_encode_report(report))

    errors = {
        "alpha_sq": float(np.max(np.abs(report.alpha_sq - truth.alpha_sq))),
        "v0": float(np.max(np.abs(report.v0 - truth.v0))),
        "h0": float(np.max(np.abs(report.h0 - truth.h0))),
    }
    if report.H is not None:
        errors["H"] = float(np.max(np.abs(report.H - truth.H)))
        errors["W1"] = float(np.max(np.abs(report.W1 - truth.W1)))
    ok = all(v <= args.tol for v in errors.values())
    summary = {
        "seed": args.seed,
        "n": args.n,
        "tol": args.tol,
        "max_errors": errors,
        "status": report.status,
        "ok": ok,
    }
    text = canonical_json(summary)
    (out_dir / "roundtrip.json").write_text(text)
    sys.stdout.write(text)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def _at_least(kind: type, low):
    """argparse type: a ``kind`` number no smaller than ``low``."""

    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scatjet",
        description="Forward and inverse scattering data on asymptotically hyperbolic boundaries.",
    )
    ap.add_argument(
        "--verbose",
        action="store_true",
        help="debug-level logging, with each stage's wall time as one JSON line",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="generate a symbol dataset from boundary patches")
    p.add_argument("--patch", required=True, help="boundary patch JSON")
    p.add_argument("--patch2", help="second patch (enables first-order samples)")
    p.add_argument("--lam", action="append", default=[], help="energy, e.g. 3.5 or 2+1i (repeatable)")
    p.add_argument("--scale-t", type=float, default=2.0, help="homogeneity probe scale (default 2)")
    p.add_argument("--t1", help="model-integral factor t1 (complex)")
    p.add_argument("--t2", help="model-integral factor t2 (complex)")
    p.add_argument("--probes", help="JSON file with probe vectors (overrides default set)")
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="recover boundary data from a symbol dataset")
    p.add_argument("--data", required=True, help="symbol dataset JSON")
    p.add_argument("--alpha-sq-known", type=float, help="use a known alpha^2 (single-energy mode)")
    p.add_argument("--margin", type=_at_least(float, 0), default=1e-6, help="admissibility margin")
    p.add_argument("--csv", help="also write zeroth-order fields as CSV")
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser(
        "sets",
        help="exceptional sets and admissibility checks",
        description=(
            "Exceptional sets and admissibility checks.  T_1 and T_2 have no zeros "
            "where they converge; their continuation has poles at "
            "sigma = (5-2l)/2 - j and sigma = (n+2l-5)/2 - j, j = 0, 1, ..."
        ),
    )
    p.add_argument("--patch", required=True, help="boundary patch JSON")
    p.add_argument("--k-max", type=_at_least(int, 0), default=2, help="largest mode order k")
    p.add_argument("--exclude", action="append", default=[], help="user-excluded energy (repeatable)")
    p.add_argument("--lam", action="append", default=[], help="energy to test for admissibility")
    p.add_argument("--margin", type=_at_least(float, 0), default=1e-6, help="admissibility margin")
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("integrals", help="evaluate model integrals")
    p.add_argument("--which", required=True, help="one of T1, T2, J, I, G (bare J/I take --l)")
    p.add_argument("--sigma", required=True, help="indicial root, e.g. 2+0i")
    p.add_argument("--n", type=int, required=True, help="boundary dimension")
    p.add_argument("--l", type=int, default=1, help="integral level for bare J/I (1 or 2)")
    p.add_argument("--k", type=int, default=1, help="jet order for J integrals")
    p.add_argument("--s", type=float, default=1.0, help="boundary-defining ratio for I/green")
    p.add_argument("--z", default="1.0", help="boundary offset (scalar or comma-separated vector)")
    p.add_argument("--rel-tol", type=float, default=1e-7)
    p.add_argument("--abs-tol", type=float, default=1e-10)
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("verify", help="run built-in identity checks")
    p.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=("all", "green"),
        help="'green' runs only the Green-kernel residual study",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", default="1.5", help="indicial root for 'verify green'")
    p.add_argument(
        "--n", type=int, default=1, choices=(1, 2, 3), help="boundary dimension for 'verify green'"
    )
    p.add_argument(
        "--grid-size",
        type=_at_least(int, MIN_POINTS),
        default=33,
        help="coarse grid points for 'verify green'",
    )
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip", help="synthetic forward + inverse round trip")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out-dir", default=".", help="directory for dataset/report/summary JSON")
    p.set_defaults(func=cmd_roundtrip)

    return ap


class _LogFormat(logging.Formatter):
    """Stage timings as bare JSON lines; every other record led by its level and logger."""

    def format(self, record):
        if record.name == STAGE_LOGGER:
            return record.getMessage()
        return super().format(record)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LogFormat("%(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO, handlers=[handler])
    try:
        return args.func(args)
    except (ConfigError, IoError) as exc:
        log.error("%s", exc)
        return 2
    except ScatjetError as exc:
        log.error("%s", exc)
        return 1
