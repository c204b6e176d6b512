"""The goldens hold byte for byte under every CPython from 3.10 to 3.13.

Each version other than the running one replays tests/goldens.py in a
subprocess, without pytest. A candidate interpreter is probed first: a
pyenv shim on PATH can exist and still fail to run, or run another
version. A version with no working interpreter is skipped with the
reasons, never passed.
"""

import glob
import os
import shutil
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
PROBE = "import sys; print(sys.implementation.name, '%d.%d' % sys.version_info[:2])"


def candidates(version):
    """python<version> on PATH, then every pyenv install of that version."""
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    installs = glob.glob(os.path.join(pyenv, "versions", f"{version}.*", "bin"))
    found = [shutil.which(f"python{version}")]
    found += [os.path.join(d, f"python{version}") for d in sorted(installs)]
    return [exe for exe in found if exe]


def working_interpreter(version):
    """(the first candidate that runs as CPython <version>, why others failed)."""
    reasons = []
    for exe in candidates(version):
        try:
            probe = subprocess.run(
                [exe, "-c", PROBE], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            reasons.append(f"{exe}: {exc}")
            continue
        if probe.returncode == 0 and probe.stdout.split() == ["cpython", version]:
            return exe, reasons
        said = (probe.stdout + probe.stderr).strip().splitlines()[-1:] or ["no output"]
        reasons.append(f"{exe}: exit {probe.returncode}, {said[0]}")
    return None, reasons or [f"no python{version} found"]


@pytest.mark.parametrize("version", VERSIONS)
def test_goldens_hold_under_interpreter(version, tmp_path):
    if version == "%d.%d" % sys.version_info[:2]:
        pytest.skip("the running interpreter; the in-process golden tests cover it")
    exe, reasons = working_interpreter(version)
    if exe is None:
        pytest.skip(f"no working CPython {version}: " + "; ".join(reasons))
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    env["TMPDIR"] = str(tmp_path)
    replay = subprocess.run(
        [exe, os.path.join(TESTS, "goldens.py")],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert replay.returncode == 0, f"{exe}: {replay.stdout}{replay.stderr}"
