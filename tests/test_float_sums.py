"""Outputs do not depend on how the running Python adds floats.

From Python 3.12 on, the builtin `sum()` adds floats with Neumaier's
compensated summation, so its last bits can differ from the plain
left-to-right loop of 3.10 and 3.11. This test shadows `sum` in every
cosum module with an emulation of the compensated version and reruns the
corpus goldens and one decode golden byte for byte.
"""

import builtins
import importlib
import math
import os
import pkgutil

import pytest

import cosum
from cosum.metrics import fold_sum
import test_golden
import test_golden_corpus
from test_golden import GOLDEN_DIR


def compensated_sum(iterable, start=0):
    """`sum()` as Python 3.12 computes it for ints and floats: exact int
    addition up to the first float, then Neumaier-compensated addition."""
    values = list(iterable)
    first = next((i for i, v in enumerate(values) if isinstance(v, float)), None)
    if first is None:
        return builtins.sum(values, start)
    total, compensation = float(builtins.sum(values[:first], start)), 0.0
    for value in values[first:]:
        x = float(value)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_emulation_differs_from_a_left_to_right_sum():
    values = [1.0, 1e100, 1.0, -1e100]
    assert fold_sum(values) == 0.0
    assert compensated_sum(values) == 2.0
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([]) == 0


@pytest.fixture
def compensated(monkeypatch):
    for info in pkgutil.iter_modules(cosum.__path__):
        module = importlib.import_module(f"cosum.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_corpus_goldens_under_compensated_sum(compensated, tmp_path):
    test_golden_corpus.test_corpus_outputs_match_golden(tmp_path)


def test_decode_golden_under_compensated_sum(compensated, tmp_path):
    corpus, model = test_golden.train(str(tmp_path))
    test_golden.summarize(corpus, model, str(tmp_path / "sweep.json"), test_golden.SWEEP)
    for point in test_golden.SWEEP_POINTS:
        name = f"sweep.{point}.json"
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
