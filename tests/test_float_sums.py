"""No output depends on how the running Python adds floats with `sum()`.

From Python 3.12 on, the builtin `sum()` adds floats with Neumaier's
compensated summation, so its last bits can differ from the plain
left-to-right loop of 3.10 and 3.11. cosum therefore sums floats only
through `math.fsum` (exact) or `metrics.fold_sum` (one fixed order). This
test shadows `sum` in every cosum module with a version that refuses a
float operand and replays every decode and corpus golden byte for byte,
so a float `sum()` that comes back on any output path fails here. A run
that never adds floats with `sum()` gives the same bytes under the
compensated `sum()` of 3.12+ as under the plain one of 3.10 and 3.11.
"""

import builtins
import importlib
import pkgutil

import pytest

import cosum
import goldens


def int_only_sum(iterable, start=0):
    """`sum()` for ints; a float operand raises TypeError."""
    values = [start, *iterable]
    if any(isinstance(v, float) for v in values):
        raise TypeError("float sum() depends on the Python version")
    return builtins.sum(values)


def test_int_only_sum_refuses_floats():
    assert int_only_sum([1, 2, 3]) == 6 and int_only_sum([]) == 0
    for values, start in (([1, 2.0], 0), ([1, 2], 0.0)):
        with pytest.raises(TypeError):
            int_only_sum(values, start)


@pytest.fixture
def int_only(monkeypatch):
    for info in pkgutil.iter_modules(cosum.__path__):
        module = importlib.import_module(f"cosum.{info.name}")
        monkeypatch.setattr(module, "sum", int_only_sum, raising=False)


def test_corpus_goldens_under_compensated_sum(int_only, tmp_path):
    assert goldens.replay_corpus(str(tmp_path)) == []


def test_decode_golden_under_compensated_sum(int_only, tmp_path):
    assert goldens.replay_decode(str(tmp_path)) == []
