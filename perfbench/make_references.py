"""Freeze the reference value of every T and J case into references.json.

Run from the repository root, outside any timed run (it takes seconds):

    python3 perfbench/make_references.py

The values come from the independent truncated-Gauss route in
``tests/oracles.py``, which shares no code with the adaptive engine.  Three
of them are first checked against closed forms.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

from cases import ONE_D, REDUCIBLE  # noqa: E402
from oracles import j_oracle, t_oracle  # noqa: E402

CLOSED_FORMS = {
    "T1-n1-s2.0": math.pi**2 / 8,
    "T2-n1-s2.0": math.pi**2 / 4,
    "T1-n2-s2.5": 2 * math.pi / 9,
}
CLOSED_FORM_TOL = 1e-7


def main() -> int:
    refs = {}
    for case in REDUCIBLE + ONE_D:
        if case.kind == "T":
            value = t_oracle(case.l, case.sigma, case.n)
        elif case.kind == "J":
            value = j_oracle(case.l, case.k, case.sigma, case.n)
        else:
            continue
        refs[case.id] = [value.real, value.imag]
    for cid, exact in CLOSED_FORMS.items():
        re, im = refs[cid]
        gap = abs(complex(re, im) - exact) / exact
        if gap > CLOSED_FORM_TOL:
            print(f"{cid}: oracle {re!r} is {gap:.2e} off the closed form {exact!r}", file=sys.stderr)
            return 1
    out = {
        "source": "tests/oracles.py t_oracle / j_oracle",
        "closed_forms": CLOSED_FORMS,
        "values": refs,
    }
    (HERE / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
