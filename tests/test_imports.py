"""Each cosum module imports on its own, and the package imports none of them.

`cosum/__init__.py` holds only `__version__`, so each name has one import
path, its module's. Nothing imports every module first, so an import cycle
could break only some import orders; each module is therefore imported
first thing in a fresh interpreter.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import cosum

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
MODULES = sorted(info.name for info in pkgutil.iter_modules(cosum.__path__))


def fresh_python(code):
    """stdout of `python -c code` in a new interpreter with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    fresh_python(f"import cosum.{name}")


def test_package_imports_no_module_and_holds_the_version():
    code = (
        "import sys, cosum\n"
        "print(sorted(m for m in sys.modules if m.startswith('cosum.')))\n"
        "print(cosum.__version__)\n"
    )
    assert fresh_python(code) == f"[]\n{cosum.__version__}\n"
