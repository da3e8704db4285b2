"""The seeded output sweep behind the byte-identity check, and its manifest.

The sweep runs the command line in-process, through ``scatjet.cli.main``,
in a fresh working directory, with every path relative to it:

* ``roundtrip`` for seeds 1..30 at n = 1..3;
* ``forward`` of expression patches with order-1 jets at n = 1..3, at the
  energies (4+0.5i, 5), (4, 5, 5.5) and (3.5, 4.5+1i), each followed by
  ``invert --csv`` of the dataset it printed;
* a one-energy ``forward`` and ``invert`` (the partial status), an
  ``invert --alpha-sq-known`` of a constant-alpha patch and an
  ``invert --margin`` run;
* ``sets``, ``integrals`` for each of T1, T2, J1, J2, I1, I2 and G, and
  ``verify``.

Each command leaves its exit code, its stdout, its stderr and the files it
wrote.  Stderr loses the stage-timing lines of ``--verbose``, which are
wall times.  The manifest records, for each output, the sha256 of its bytes
and a digest of its values: the sha256 of its skeleton (the text with
every number, and every base64 array of :func:`scatjet.dataset.pack_array`,
replaced by a placeholder), the count of its numbers, their absolute sum
and two fixed weighted sums.  It also records the Python, numpy and scipy
versions it was written on, and numpy's SIMD targets on the CPU it ran on
(:func:`cpu_targets`): numpy's float64 ``exp`` and ``log`` dispatch on them.

The bytes are compared where those versions match the manifest's (Python by
major and minor version: the outputs rest on numpy, scipy and the float
repr, not on the patch release of the interpreter), and the values
elsewhere, within ``RTOL`` of the absolute sum plus ``ATOL``.  The CPU
targets do not choose the comparison; a failure prints them beside the stack.

From the repository root, ``python tests/byte_sweep.py`` runs the sweep and
lists the outputs that differ from the manifest; ``--write`` rewrites the
manifest instead.  A change that moves outputs rewrites it, and the diff of
the manifest, one line per output, is the list of what moved.
"""
from __future__ import annotations

import base64
import binascii
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import platform
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

MANIFEST = Path(__file__).resolve().with_name("byte_manifest.json")
RTOL = 1e-9  # the value comparison's bound, relative to an output's absolute sum
ATOL = 1e-12

_EXPRESSION_PATCHES = {
    1: {
        "n": 1,
        "axes": [8],
        "alpha": "1.5 + 0.5*cos(y1)",
        "v_jet": ["0.5 + 0.5*cos(y1)", "0.1*cos(y1)"],
        "h_jet": [[["1 + 0.25*sin(y1)"]], [["0.2*sin(y1)"]]],
    },
    2: {
        "n": 2,
        "axes": [8, 4],
        "alpha": "1.5 + 0.5*cos(y1)",
        "v_jet": ["0.5 + 0.5*cos(y1)", "0.1*sin(y2)"],
        "h_jet": [
            [["1 + 0.2*cos(y2)", 0.1], [0.1, 1.2]],
            [["0.2*sin(y1)", 0.1], [0.1, "-0.2*sin(y1)"]],
        ],
    },
    3: {
        "n": 3,
        "axes": [4, 4, 4],
        "alpha": "1.2 + 0.3*sin(y3)",
        "v_jet": ["0.3*cos(y1)", 0.05],
        "h_jet": [
            [["1 + 0.1*cos(y2)", 0.1, 0.0], [0.1, 1.1, 0.05], [0.0, 0.05, 0.9]],
            [["0.1*sin(y1)", 0.05, 0.0], [0.05, "-0.1*sin(y1)", 0.02], [0.0, 0.02, 0.0]],
        ],
    },
}
_CONSTANT_ALPHA_PATCH = {
    "n": 2,
    "axes": [4, 4],
    "alpha": 1.5,
    "v_jet": ["0.5 + 0.5*cos(y1)"],
    "h_jet": [[[1.0, 0.0], [0.0, 1.0]]],
}
_ROUNDTRIP_FILES = ("dataset.json", "report.json", "roundtrip.json")
_ENERGY_SETS = {
    "complex-real": ("4+0.5i", "5"),
    "three-real": ("4", "5", "5.5"),
    "real-complex": ("3.5", "4.5+1i"),
}


def _lams(energies) -> list[str]:
    return [arg for lam in energies for arg in ("--lam", lam)]


def commands():
    """``(name, argv, files, keep)`` per command, in the order the sweep runs them.

    ``files`` are the paths the command writes, relative to the working
    directory; a ``keep`` path receives the command's stdout, for a later
    command to read.
    """
    for seed in range(1, 31):
        for n in (1, 2, 3):
            out = f"roundtrip-s{seed}-n{n}"
            argv = ["roundtrip", "--seed", str(seed), "--n", str(n), "--out-dir", out]
            yield out, argv, tuple(f"{out}/{f}" for f in _ROUNDTRIP_FILES), None
    for n in (1, 2, 3):
        for label, energies in _ENERGY_SETS.items():
            name = f"patch{n}-{label}"
            argv = ["forward", "--patch", f"patch{n}.json", *_lams(energies)]
            yield f"forward-{name}", argv, (), f"{name}.json"
            argv = ["invert", "--data", f"{name}.json", "--csv", f"{name}.csv"]
            yield f"invert-{name}", argv, (f"{name}.csv",), None
    yield "forward-one-energy", ["forward", "--patch", "patch2.json", "--lam", "4"], (), "one.json"
    argv = ["invert", "--data", "one.json", "--csv", "one.csv"]
    yield "invert-one-energy", argv, ("one.csv",), None
    argv = ["forward", "--patch", "constant.json", "--lam", "4"]
    yield "forward-constant-alpha", argv, (), "constant-one.json"
    argv = ["invert", "--data", "constant-one.json", "--alpha-sq-known", "2.25"]
    yield "invert-alpha-sq-known", argv, (), None
    argv = ["invert", "--data", "patch2-three-real.json", "--margin", "0.5"]
    yield "invert-margin", argv, (), None
    argv = ["sets", "--patch", "patch2.json", "--lam", "4", "--lam", "5i", "--lam", "1i"]
    yield "sets", [*argv, "--exclude", "3", "--margin", "0.1"], (), None
    for which in ("T1", "T2", "J1", "J2", "I1", "I2", "G"):
        argv = ["integrals", "--which", which, "--sigma", "2.5", "--n", "2"]
        yield f"integrals-{which}", argv, (), None
    yield "verify", ["verify", "--seed", "0"], (), None


def _stage_timing(line: str) -> bool:
    return line.startswith('{"seconds":')


def _call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``scatjet.cli.main(argv)``, run in-process.

    The root logger is emptied for the call, so that the command's own
    ``logging.basicConfig`` installs its stderr handler on the captured
    stream, and restored after it.  A raw ``RuntimeWarning`` is an error, as
    in the tests.
    """
    from scatjet.cli import main

    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    out, err = io.StringIO(), io.StringIO()
    streams = contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)
    try:
        with streams[0], streams[1], warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    stderr = "".join(line for line in err.getvalue().splitlines(True) if not _stage_timing(line))
    return code, out.getvalue(), stderr


def run(workdir: str | Path) -> dict:
    """Run the sweep in the empty directory ``workdir``: ``{name/output: text or exit code}``."""
    workdir = Path(workdir)
    for n, spec in _EXPRESSION_PATCHES.items():
        (workdir / f"patch{n}.json").write_text(json.dumps(spec))
    (workdir / "constant.json").write_text(json.dumps(_CONSTANT_ALPHA_PATCH))
    outputs = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, files, keep in commands():
            if name.startswith("roundtrip-"):
                Path(argv[-1]).mkdir()
            code, stdout, stderr = _call(argv)
            if keep:
                Path(keep).write_text(stdout)
            outputs[f"{name}/exit"] = code
            outputs[f"{name}/stdout"] = stdout
            outputs[f"{name}/stderr"] = stderr
            for path in files:
                if Path(path).exists():
                    outputs[f"{name}/{Path(path).name}"] = Path(path).read_text()
    finally:
        os.chdir(here)
    return outputs


def stack() -> dict:
    """The versions the bytes rest on: Python's major and minor, numpy's and scipy's."""
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def cpu_targets() -> dict:
    """numpy's SIMD targets here: its ``baseline`` and each ``dispatch`` target the CPU has."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    present = [t for t in umath.__cpu_dispatch__ if features.get(t)]
    return {"baseline": list(umath.__cpu_baseline__), "dispatch": present}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _packed(text: str):
    """The float64 values of a :func:`~scatjet.dataset.pack_array` string, or ``None``."""
    if len(text) < 12:
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError):
        return None
    if len(raw) % 8:
        return None
    return np.frombuffer(raw, dtype="<f8").tolist()


def _weight(i: int, k: int) -> float:
    # exact in binary: the same weights on every machine
    return ((i * (7919 + 104 * k)) % 1024) / 1024.0 - 0.5


def digest(text: str) -> list:
    """``[skeleton sha256, count, absolute sum, weighted sum 1, weighted sum 2]`` of ``text``."""
    numbers: list[float] = []

    def walk(x):
        if isinstance(x, bool) or x is None:
            return x
        if isinstance(x, (int, float)):
            numbers.append(float(x))
            return "#"
        if isinstance(x, str):
            values = _packed(x)
            if values is not None:
                numbers.extend(values)
                return f"#{len(values)}"
            return _NUMBER.sub(lambda m: numbers.append(float(m.group())) or "#", x)
        if isinstance(x, list):
            return [walk(v) for v in x]
        return {k: walk(v) for k, v in x.items()}

    try:
        value = json.loads(text)
    except ValueError:
        value = text
    skeleton = json.dumps(walk(value), sort_keys=True)
    sums = [
        math.fsum(abs(x) for x in numbers),
        *(math.fsum(_weight(i, k) * x for i, x in enumerate(numbers)) for k in (1, 2)),
    ]
    return [hashlib.sha256(skeleton.encode()).hexdigest(), len(numbers), *sums]


def record(outputs: dict) -> dict:
    """The manifest entry of each output: the exit code, or its sha256 and value digest."""
    return {
        key: text if isinstance(text, int) else
        {"sha256": hashlib.sha256(text.encode()).hexdigest(), "values": digest(text)}
        for key, text in outputs.items()
    }


def _values_match(want: list, got: list) -> bool:
    if want[:2] != got[:2]:
        return False
    bound = RTOL * want[2] + ATOL
    return all(abs(w - g) <= bound for w, g in zip(want[2:], got[2:]))


def compare(manifest: dict, outputs: dict) -> tuple[str, list[str]]:
    """``(comparison, differing outputs)`` of a sweep's outputs against ``manifest``.

    The comparison is ``"bytes"`` on the manifest's stack and ``"values"``
    elsewhere; an exit code, and the set of outputs, must match either way.
    """
    want, got = manifest["outputs"], record(outputs)
    by_bytes = manifest["stack"] == stack()
    differ = sorted(set(want) ^ set(got))
    for key in sorted(set(want) & set(got)):
        w, g = want[key], got[key]
        if isinstance(w, int) or isinstance(g, int):
            same = w == g
        elif by_bytes:
            same = w["sha256"] == g["sha256"]
        else:
            same = _values_match(w["values"], g["values"])
        if not same:
            differ.append(key)
    return ("bytes" if by_bytes else "values"), differ


def write_manifest(outputs: dict, path: Path = MANIFEST) -> None:
    """Write the manifest: the stack on one line, then one line per output, sorted."""
    body = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(record(outputs).items())
    )
    head = (
        f'{{\n"stack": {json.dumps(stack(), sort_keys=True)},\n'
        f'"cpu_targets": {json.dumps(cpu_targets(), sort_keys=True)},\n"outputs": {{\n'
    )
    path.write_text(head + body + "\n}}\n")


def load_manifest(path: Path = MANIFEST) -> dict:
    return json.loads(path.read_text())


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        swept = run(tmp)
    if sys.argv[1:] == ["--write"]:
        write_manifest(swept)
        print(f"wrote {MANIFEST} ({len(swept)} outputs)")
    else:
        how, changed = compare(load_manifest(), swept)
        print(f"{how} comparison: {len(changed)} of {len(swept)} outputs differ")
        print("\n".join(changed))
        sys.exit(1 if changed else 0)
