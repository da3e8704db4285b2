"""Run one workload in this process and print its measurements as one JSON line.

run.py starts this in a fresh interpreter per workload.  Operations run back
to back from one caller (a closed loop).  A pass runs every operation of the
workload once; passes repeat, with ``gc.collect()`` between them, while one
more would end nearer to ``--seconds``.  A later pass repeats the first with
the same seed and must reproduce its canonical output bytes.  With
``--trace 1`` one more pass runs with every entry point in
``tracing.ENTRY_POINTS`` wrapped; its spans give calls and self time per
entry point.  Every time reported is rescaled to a fixed host speed by
``hostspeed.HostSpeed``, which samples a calibration kernel while the passes
run.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from scatjet import dataset, inversion, model_quadrature, synthetic

from cases import I_S, I_Z, LIMIT_BAR, ONE_D, REDUCIBLE, REFERENCE_BAR
from hostspeed import HostSpeed
from tracing import ENTRY_POINTS, Tracer
from warmup import warm

HERE = Path(__file__).resolve().parent

GRIDS = (("g4x4", (4, 4)), ("g32x32", (32, 32)), ("g12x12x12", (12, 12, 12)))
RECOVERY_BAR = 1e-8  # acceptance bar on every recovered field
STAGES = ("forward_s", "encode_s", "decode_s", "invert_s", "report_encode_s")


@dataclass
class Op:
    """One operation's outcome: an integral case or one grid round trip."""

    id: str
    stamps: list[float]  # perf_counter at the start, at each round-trip stage end, at the end
    output: str | None = None  # digest of the canonical bytes a repeat must reproduce
    ok: bool = False
    layer: dict = field(default_factory=dict)  # this op's per-layer figures
    value: complex = 0j  # an integral's value, for checks across cases
    seconds: float = math.nan  # the op's rescaled time, set by rescale()

    def rescale(self, speed: HostSpeed) -> None:
        self.seconds = speed.rescale(self.stamps[0], self.stamps[-1])
        if len(self.stamps) == len(STAGES) + 1:
            for name, t0, t1 in zip(STAGES, self.stamps, self.stamps[1:]):
                self.layer[name] = speed.rescale(t0, t1)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _recovery_error(truth, report) -> float:
    pairs = (
        (report.alpha_sq, truth.alpha_sq),
        (report.v0, truth.v0),
        (report.h0, truth.h0),
        (report.H, truth.H),
        (report.W1, truth.W1),
    )
    if any(got is None for got, _ in pairs):
        return math.inf
    # np.max, unlike max(), propagates a NaN so that it fails the bar
    return float(np.max([np.max(np.abs(got - want)) for got, want in pairs]))


def _round_trip(gid, axes, truth_seed) -> Op:
    t0 = perf_counter()
    try:
        truth, ds = synthetic.make_synthetic_pair(seed=truth_seed, n=len(axes), axes=axes)
        t1 = perf_counter()
        text = dataset.canonical_json(ds.to_dict())
        t2 = perf_counter()
        decoded = dataset.SymbolDataset.from_dict(json.loads(text))
        t3 = perf_counter()
        report = inversion.layer_strip_driver(decoded)
        t4 = perf_counter()
        report_text = dataset.canonical_json(report.to_dict())
        t5 = perf_counter()
    except Exception:
        traceback.print_exc()
        return Op(gid, [t0, perf_counter()])
    error = _recovery_error(truth, report)
    ok = report.status == "ok" and error <= RECOVERY_BAR
    if not ok:
        print(f"{gid}: status {report.status!r}, recovery error {error:.3e}", file=sys.stderr)
    return Op(
        gid,
        [t0, t1, t2, t3, t4, t5],
        output=_digest(text + report_text),
        ok=ok,
        layer={"bytes": len(text.encode()), "points": math.prod(axes)},
    )


class RoundtripGrid:
    """Synthetic truth -> forward -> JSON encode/decode -> invert -> report encode."""

    min_passes = 2  # the second pass is the byte-identity repeat

    def __init__(self, seed: int):
        self.operations = []
        for gid, axes in GRIDS:
            truth_seed = random.Random(f"{seed}:{gid}").randrange(2**32)
            self.operations.append((gid, functools.partial(_round_trip, gid, axes, truth_seed)))

    def check(self, ops: list[Op]) -> None:
        """Each round trip checks itself against its truth."""

    @staticmethod
    def layer_metrics(passes: list[list[Op]]) -> dict[str, float]:
        out = {}
        for gid, _ in GRIDS:
            ops = [op for ops in passes for op in ops if op.id == gid and op.layer]
            if not ops:
                continue
            med = {k: statistics.median(op.layer[k] for op in ops) for k in ops[0].layer}
            points = med["points"]
            out[f"synthetic.forward_s.{gid}"] = med["forward_s"]
            out[f"synthetic.forward_us_per_point.{gid}"] = med["forward_s"] / points * 1e6
            out[f"dataset.encode_s.{gid}"] = med["encode_s"]
            out[f"dataset.decode_s.{gid}"] = med["decode_s"]
            out[f"dataset.bytes.{gid}"] = med["bytes"]
            out[f"inversion.invert_s.{gid}"] = med["invert_s"]
            out[f"inversion.invert_us_per_point.{gid}"] = med["invert_s"] / points * 1e6
            out[f"inversion.report_encode_s.{gid}"] = med["report_encode_s"]
        return out


def _integral(case, spec) -> Op:
    t0 = perf_counter()
    try:
        if case.kind == "T":
            r = model_quadrature.t_limit_integral(case.l, case.sigma, case.n, spec)
        elif case.kind == "J":
            r = model_quadrature.j_integral(case.l, case.k, case.sigma, case.n, spec)
        else:
            r = model_quadrature.i_full_integral(case.l, case.sigma, I_S, [I_Z], spec)
    except Exception:
        traceback.print_exc()
        return Op(case.id, [t0, perf_counter()])
    t1 = perf_counter()
    canonical = [r.value.real, r.value.imag, r.est_error, r.n_evals, r.converged]
    return Op(
        case.id,
        [t0, t1],
        output=_digest(dataset.canonical_json(canonical)),
        ok=r.converged,
        layer={"n_evals": r.n_evals},
        value=r.value,
    )


class Integrals:
    """Model-integral cases at their acceptance specs, in a seeded order."""

    min_passes = 1  # a pass of the reducible cases alone outlasts a run

    def __init__(self, cases, seed: int):
        cases = list(cases)
        random.Random(seed).shuffle(cases)
        self.cases = {c.id: c for c in cases}
        self.operations = []
        for c in cases:
            spec = model_quadrature.QuadratureSpec(
                rel_tol=c.spec[0], abs_tol=c.spec[1], max_subdivisions=c.spec[2]
            )
            self.operations.append((c.id, functools.partial(_integral, c, spec)))
        refs = json.loads((HERE / "references.json").read_text())["values"]
        self.references = {cid: complex(re, im) for cid, (re, im) in refs.items()}

    def check(self, ops: list[Op]) -> None:
        """Gap of each T/J value to its reference and of each I value to its T partner."""
        values = {op.id: op.value for op in ops if op.output is not None}
        for op in ops:
            if op.output is None:
                continue
            case = self.cases[op.id]
            if case.kind == "I":
                bar = LIMIT_BAR
                partner = values.get(case.partner)
                if partner is None:
                    gap = math.inf
                else:
                    s = case.sigma
                    scaled = op.value * I_S ** (-s) * I_Z ** (2 * s - 5 + 2 * case.l)
                    gap = abs(scaled / partner - 1.0)
            else:
                bar = REFERENCE_BAR
                ref = self.references[case.id]
                gap = abs(op.value - ref) / abs(ref)
            op.layer["gap"] = gap
            if not gap <= bar:
                op.ok = False
                print(f"{case.id}: gap {gap:.3e} above its bar {bar:g}", file=sys.stderr)

    @staticmethod
    def layer_metrics(passes: list[list[Op]]) -> dict[str, float]:
        out = {}
        by_id: dict[str, list[Op]] = {}
        for ops in passes:
            for op in ops:
                by_id.setdefault(op.id, []).append(op)
        for cid, ops in by_id.items():
            out[f"model_quadrature.case_s.{cid}"] = statistics.median(op.seconds for op in ops)
            for key in ("n_evals", "gap"):
                if key in ops[0].layer:
                    out[f"model_quadrature.{key}.{cid}"] = ops[0].layer[key]
        per_eval = [
            pass_wall(ops) / max(1, sum(op.layer.get("n_evals", 0) for op in ops)) for ops in passes
        ]
        out["model_quadrature.ns_per_eval"] = statistics.median(per_eval) * 1e9
        return out


WORKLOADS = {
    "roundtrip-grid": RoundtripGrid,
    "integrals-reducible": lambda seed: Integrals(REDUCIBLE, seed),
    "integrals-1d": lambda seed: Integrals(ONE_D, seed),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of every workload, with its unit."""
    units = {}
    for case in REDUCIBLE + ONE_D:
        units[f"model_quadrature.case_s.{case.id}"] = "s"
        units[f"model_quadrature.n_evals.{case.id}"] = "count"
        units[f"model_quadrature.gap.{case.id}"] = "ratio"
    units["model_quadrature.ns_per_eval"] = "ns"
    for gid, _ in GRIDS:
        units[f"synthetic.forward_s.{gid}"] = "s"
        units[f"synthetic.forward_us_per_point.{gid}"] = "us"
        units[f"dataset.encode_s.{gid}"] = "s"
        units[f"dataset.decode_s.{gid}"] = "s"
        units[f"dataset.bytes.{gid}"] = "bytes"
        units[f"inversion.invert_s.{gid}"] = "s"
        units[f"inversion.invert_us_per_point.{gid}"] = "us"
        units[f"inversion.report_encode_s.{gid}"] = "s"
    for name in ENTRY_POINTS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.absent_entry_points"] = "count"
    units["hostspeed.kernel_us"] = "us"
    return units


def pass_wall(ops: list[Op]) -> float:
    return sum(op.seconds for op in ops)


def raw_pass_wall(ops: list[Op]) -> float:
    return sum(op.stamps[-1] - op.stamps[0] for op in ops)


def run_pass(workload, span=contextlib.nullcontext) -> list[Op]:
    ops = []
    for op_id, run in workload.operations:
        with span(op_id):
            ops.append(run())
    workload.check(ops)
    return ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, seconds: float) -> tuple[list[list[Op]], float]:
    """The passes, and the peak RSS once the passes every run makes are done.

    Later passes creep the peak up by allocator fragmentation, and how many
    of them fit in a run depends on the host's speed.
    """
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(workload))
        if len(passes) == workload.min_passes:
            rss_mb = peak_rss_mb()
        typical = statistics.median(raw_pass_wall(ops) for ops in passes)
        print(
            f"pass {len(passes)}: {raw_pass_wall(passes[-1]):.3f} s as measured, "
            f"{sum(not op.ok for op in passes[-1])} of {len(passes[-1])} ops failed",
            file=sys.stderr,
        )
        # stop where the run ends nearest to ``seconds``
        if len(passes) >= workload.min_passes and perf_counter() - start + typical / 2 > seconds:
            return passes, rss_mb


def mark_repeats(all_ops: list[list[Op]]) -> None:
    """Fail every op whose output differs from the first pass's."""
    first = {op.id: op.output for op in all_ops[0]}
    for ops in all_ops[1:]:
        for op in ops:
            if op.output != first[op.id]:
                if op.ok:
                    print(f"{op.id}: output differs from the first pass", file=sys.stderr)
                op.ok = False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    warm()
    workload = WORKLOADS[args.workload](args.seed)
    with HostSpeed() as speed:
        passes, rss_mb = run_passes(workload, args.seconds)
        all_ops = list(passes)
        if args.trace:
            tracer = Tracer()
            gc.collect()
            with tracer.installed():
                all_ops.append(run_pass(workload, span=tracer.span))
    for ops in all_ops:
        for op in ops:
            op.rescale(speed)
    walls = [pass_wall(ops) for ops in passes]

    mark_repeats(all_ops)
    attempted = sum(len(ops) for ops in all_ops)
    failed = sum(not op.ok for ops in all_ops for op in ops)
    if args.trace:
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)  # a layer the workload does not run reads 0
        values.update(workload.layer_metrics(passes))
        for name, (calls, self_s) in tracer.summary(speed.rescale).items():
            if name in ENTRY_POINTS:
                values[f"{name}.calls"] = calls
                values[f"{name}.self_s"] = self_s
        values["trace.overhead_ratio"] = pass_wall(all_ops[-1]) / statistics.median(walls)
        values["trace.absent_entry_points"] = len(tracer.absent)
        values["hostspeed.kernel_us"] = speed.median_kernel_s() * 1e6
        for binding in tracer.absent:
            print(f"trace: entry point {binding} is absent", file=sys.stderr)
    else:
        units = {"wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
        slowest = statistics.median(max(op.seconds for op in ops) for ops in passes)
        values = {
            "wall_s": statistics.median(walls),
            "slowest_op_s": slowest,
            "peak_rss_mb": rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
