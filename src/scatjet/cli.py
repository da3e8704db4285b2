"""Command-line front end.

Subcommands::

    forward    patch JSON -> symbol dataset JSON (first-order samples when it has order-1 jets)
    invert     symbol dataset JSON -> recovery report JSON (+ optional CSV)
    sets       patch JSON -> exceptional-set summary, admissibility checks
    integrals  evaluate T1, T2, J1, J2, I1, I2 or G, the Green-kernel scalar
    verify     built-in identity checks; `verify green` runs the residual study alone
    roundtrip  seeded synthetic pair -> forward -> invert -> error summary

Exit codes: 0 success, 1 numeric-stage failure, 2 configuration/IO problems.
An out-of-range argument exits 2.  A refused ``invert`` writes no report:
stderr names the driver stage that failed, as ``[stage screen]`` for an
exceptional energy.  All structured output is canonical JSON (sorted keys,
complex scalars as [re, im], grid arrays as base64 strings of their C-order
little-endian float64 bytes), so identical inputs and seeds produce
byte-identical files.  With ``--verbose``, ``forward``, ``invert`` and
``roundtrip`` log each stage's wall time to stderr as one JSON line.

Only scipy-free modules are imported here at module level.  Each command
imports the modules that evaluate Gamma (and those built on them) inside its
handler, so ``--help``, ``sets`` and ``verify green`` never load
``scipy.special``.
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

from .boundary_jets import BoundaryPatch, ComplexEnergy, indicial_root, indicial_v0, probe_array
from .dataset import (
    SymbolDataset,
    canonical_json,
    encode_complex,
    pack_array,
    read_json,
    write_text,
)
from .errors import (
    DIMENSIONS,
    STAGE_LOGGER,
    ConfigError,
    IoError,
    ScatjetError,
    check_dimension,
    timed,
)
from .hyperbolic_model import MIN_POINTS, green_residual_convergence
from .spectral_sets import exceptional_set, is_admissible

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


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _z_vector(raw: str, n: int) -> np.ndarray:
    check_dimension(n)  # judged first: the length of --z depends on it
    parts = [float(p) for p in raw.split(",")]
    if len(parts) == 1:
        parts = parts + [0.0] * (n - 1)
    if len(parts) != n:
        raise ConfigError(f"--z needs 1 or n={n} comma-separated components, got {len(parts)}")
    return np.asarray(parts)


# -- subcommands -------------------------------------------------------------


def cmd_forward(args) -> int:
    from .synthetic import forward_dataset

    patch = BoundaryPatch.from_dict(read_json(args.patch))
    if not args.lam:
        raise ConfigError("forward requires at least one --lam")
    energies = tuple(ComplexEnergy(parse_complex(s)) for s in args.lam)
    probes = None
    if args.probes:
        probes = probe_array(read_json(args.probes), patch.n, ConfigError, "--probes: ")
    log.info(
        "forward: S(xi) = 2^(n-2s) Gamma(n/2-s)/Gamma(s-n/2) |xi|_h0^(2s-n), "
        "s = n/2 + sqrt((n/2)^2 - (V0 - lam^2 - n^2/4)/alpha^2)"
    )
    with timed("forward"):
        ds = forward_dataset(patch, energies, scale_t=args.scale_t, probes=probes)
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
        s = complex(report.sigma[idx][0])
        lines.append(f"{key},{a!r},{v!r},{s.real!r},{s.imag!r}")
    return "\n".join(lines) + "\n"


def _encode_report(report) -> str:
    with timed("report-encode"):
        return canonical_json(report.to_dict())


def cmd_invert(args) -> int:
    from .inversion import layer_strip_driver

    with timed("decode"):
        ds = SymbolDataset.load(args.data)
    report = layer_strip_driver(ds, margin=args.margin, alpha_sq_known=args.alpha_sq_known)
    _write_out(_encode_report(report), args.out)
    if args.csv:
        write_text(args.csv, _field_csv(report))
    return 0


def cmd_sets(args) -> int:
    """Exceptional sets of a patch and admissibility of the given energies.

    The model integrals add no exceptional energies: where T_l converges it
    has no zeros, and its continuation has poles only at
    sigma = (5-2l)/2 - j and sigma = (n+2l-5)/2 - j (j = 0, 1, ...).
    """
    patch = BoundaryPatch.from_dict(read_json(args.patch))
    excluded = tuple(parse_complex(s) for s in args.exclude)
    # alpha^2 as the forward map takes it, so the screen's cut is indicial_root's
    es = exceptional_set(patch.alpha**2, patch.v_jet[0], patch.n, args.k_max, excluded)
    log.info(
        "sets: modes lam^2 = V0 - n^2/4 + alpha^2 (k^2 - n^2)/4, interval [min, max] of "
        "mode 0; the screen judges every k at every point"
    )
    block = {
        "grid_shape": list(patch.grid_shape),
        "interval_lambda_sq": list(es.interval_lambda_sq),
        "modes_lambda_sq": pack_array(es.modes_lambda_sq),
        "user_excluded": [encode_complex(z) for z in es.user_excluded],
    }
    if args.lam:
        block["admissibility"] = []
        for s in args.lam:
            lam = parse_complex(s)
            adm = is_admissible(ComplexEnergy(lam), es, args.margin)
            reason, distances = adm.reason or "", adm.distances
            block["admissibility"].append(
                {"lam": encode_complex(lam), "ok": adm.ok, "reason": reason, "distances": distances}
            )
    _write_out(canonical_json(block), args.out)
    return 0


def cmd_integrals(args) -> int:
    try:
        return _integrals(args)
    except ValueError as exc:
        raise ConfigError(f"integrals: {exc}") from None


def _integrals(args) -> int:
    from .model_quadrature import (
        QuadratureSpec,
        green_kernel,
        i_full_integral,
        j_integral,
        t_limit_integral,
    )

    which = args.which
    sigma = parse_complex(args.sigma)
    n = args.n
    qspec = QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    payload: dict = {"which": which, "n": n, "sigma": encode_complex(sigma)}
    if which[0] in ("G", "I"):
        z = _z_vector(args.z, n)
        payload.update({"s": args.s, "z": z.tolist()})
    if which == "G":
        log.info("green: pi^(-n/2)/2 Gamma(s)/Gamma(s-(n-2)/2) s^sigma (1+s^2+|z|^2)^-sigma")
        payload["value"] = encode_complex(green_kernel(args.s, z, sigma, n))
        _write_out(canonical_json(payload), args.out)
        return 0
    l = int(which[1])
    if which[0] == "T":
        log.info("T_%d: two-center integral, u-exponent 2*sigma + %d - n", l, 4 - 2 * l)
        mv = t_limit_integral(l, sigma, n, qspec)
    elif which[0] == "J":
        log.info(
            "J_%d: convergence-scale integral, u-exponent 2*Re(sigma) + k + %d - n", l, 3 - 2 * l
        )
        mv = j_integral(l, args.k, sigma, n, qspec)
        payload["k"] = args.k
    else:
        log.info("I_%d at s=%g, |z|=%g: 1-D Feynman-parameter integral", l, args.s, math.hypot(*z))
        mv = i_full_integral(l, sigma, args.s, z, qspec)
    payload.update(
        {
            "l": l,
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

    from .forward_scattering import principal_symbol
    from .synthetic import constant_patch, random_spd

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
        res = np.abs(indicial_v0(alpha * alpha, en.lam_sq, sigma, n) - v0)
        worst = max(worst, float(np.max(res)) / max(1.0, abs(v0), abs(en.lam_sq)))
        branch_ok = branch_ok and bool(np.all(sigma.real >= n / 2.0 - 1e-12))
    identity_ok = bool(worst <= 1e-12 and branch_ok)
    checks.append({"name": "indicial-identity", "metric": worst, "pass": identity_ok})

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
        sigma, symbols = principal_symbol(patch, np.outer(scales, xi), (en,))
        base, *scaled = symbols[idx][0]
        sig = sigma[idx][0]
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
    from .inversion import layer_strip_driver
    from .synthetic import make_synthetic_pair

    out_dir = Path(args.out_dir)
    if not out_dir.exists():
        raise ConfigError(f"output directory does not exist: {out_dir}")
    log.info("roundtrip: synthetic truth (seed %d, n=%d) -> forward -> invert", args.seed, args.n)
    with timed("forward"):
        truth, ds = make_synthetic_pair(args.seed, args.n)
    with timed("encode"):
        text = canonical_json(ds.to_dict())
    write_text(out_dir / "dataset.json", text)
    # invert what the file holds, so the round trip crosses the codec
    with timed("decode"):
        ds = SymbolDataset.from_dict(json.loads(text))
    report = layer_strip_driver(ds)
    write_text(out_dir / "report.json", _encode_report(report))

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
    write_text(out_dir / "roundtrip.json", text)
    sys.stdout.write(text)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def _at_least(kind: type, low):
    """argparse type: a finite ``kind`` number no smaller than ``low``."""

    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        # canonical JSON has no infinity to write
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
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

    p = sub.add_parser("forward", help="generate a symbol dataset from a boundary patch")
    p.add_argument(
        "--patch", required=True, help="boundary patch JSON (order-1 jets add first-order samples)"
    )
    p.add_argument("--lam", action="append", default=[], help="energy, e.g. 3.5 or 2+1i (repeatable)")
    p.add_argument("--scale-t", type=float, default=2.0, help="homogeneity probe scale (default 2)")
    p.add_argument("--probes", help="JSON file: a (P, n) list of unit probes (overrides the defaults)")
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="recover boundary data from a symbol dataset")
    p.add_argument("--data", required=True, help="symbol dataset JSON")
    p.add_argument("--alpha-sq-known", type=float, help="known alpha^2: fit V0 alone, over every energy")
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
    which = ("T1", "T2", "J1", "J2", "I1", "I2", "G")
    p.add_argument("--which", required=True, choices=which, help="G is the Green-kernel scalar")
    p.add_argument("--sigma", required=True, help="indicial root, e.g. 2+0i")
    p.add_argument("--n", type=int, required=True, help="boundary dimension")
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
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--sigma", default="1.5", help="indicial root for 'verify green'")
    p.add_argument(
        "--n", type=int, default=1, choices=DIMENSIONS, help="boundary dimension for 'verify green'"
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
    p.add_argument("--seed", type=_at_least(int, 0), required=True)
    p.add_argument("--n", type=int, default=2, choices=DIMENSIONS)
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-8)
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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for token in argv:
        # argparse drops the value of ``--name=--`` and hands the option an
        # empty list, unchecked by its ``type`` and ``choices``
        option, _, value = token.partition("=")
        if option.startswith("--") and value == "--":
            parser.error(f"argument {option}: expected one argument, got '--'")
    args = parser.parse_args(argv)
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
