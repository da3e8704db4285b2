"""scatjet benchmark: runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload roundtrip-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from ``src/`` in
process, without the console script.  BENCHMARK.json describes the workloads
and metrics.  With ``--trace 0`` the last line of stdout carries every
end-to-end metric; ``setup_s`` is the median time from launching a fresh
interpreter on warmup.py to the end of its warm call, after one untimed run
has filled the bytecode cache, rescaled to reference host speed like every
time the benchmark reports (hostspeed.py).  With ``--trace 1`` it carries every
per-layer metric instead.  The workload runs in a fresh worker process
with BLAS threads pinned to one, so ``setup_s`` and ``peak_rss_mb`` belong
to it alone.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import KERNEL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roundtrip-grid", "integrals-reducible", "integrals-1d")
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170  # with set-up, under the 180 s a run may take


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env) -> float:
    times = []
    for _ in range(SETUP_RUNS + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "warmup.py")],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=PROBE_TIMEOUT_S,
        )
        ready, kernel_s = map(float, proc.stdout.split())
        times.append((ready - t0) * KERNEL_REF_S / kernel_s)
    return statistics.median(times[1:])  # the first run fills the bytecode cache


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "scatjet" / "__init__.py").is_file():
        print(f"no scatjet sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = child_env()
    cmd = [sys.executable, str(HERE / "worker.py")]
    for flag in ("workload", "seed", "seconds", "trace"):
        cmd += [f"--{flag}", str(getattr(args, flag))]
    try:
        setup_s = None if args.trace else setup_seconds(env)
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            check=True, timeout=WORKER_TIMEOUT_S,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        print(
            f"metrics disagree with BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
            f"unlisted {sorted(set(got) - set(expected))}, "
            f"unit mismatches {sorted(k for k in set(got) & set(expected) if got[k] != expected[k])}",
            file=sys.stderr,
        )
        return 1
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
