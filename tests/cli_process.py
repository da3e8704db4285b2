"""Run the ``scatjet`` command line as a separate process.

The child is ``python -m scatjet`` under the interpreter running the tests,
with ``PYTHONPATH`` led by the directory that holds the ``scatjet`` package
the tests imported.  It therefore runs the same code as the tests, whatever
the working directory and whether or not another copy is installed, and needs
no console script on ``PATH``.  Like the in-process tests (see
``filterwarnings`` in ``pyproject.toml``), the child turns a raw
``RuntimeWarning`` into an error, so a numpy overflow that no check names
fails the test instead of passing as a printed warning.
"""
import os
import subprocess
import sys
from pathlib import Path

import scatjet

SOURCE_ROOT = Path(scatjet.__file__).resolve().parents[1]


def run_scatjet(*args: str) -> subprocess.CompletedProcess:
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SOURCE_ROOT), inherited))))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "scatjet", *args],
        capture_output=True,
        text=True,
        env=env,
    )
