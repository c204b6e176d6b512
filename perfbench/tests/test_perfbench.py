"""Tests of the benchmark itself: inputs, tracing wrappers, declared names.

    python3 -m pytest perfbench/tests -q
"""

import filecmp
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Small inputs with the same request mix as the benchmark's.
SCALE = {"decode_sweep": 0.2, "decode_large_vocab": 0.05, "corpus_pipeline": 0.5}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def generate(tmp_path, name, seed, label):
    workdir = tmp_path / f"{label}-{seed}"
    workdir.mkdir()
    workloads.WORKLOADS[name](str(workdir), seed)
    return workdir


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    first = generate(tmp_path, name, 7, "a")
    again = generate(tmp_path, name, 7, "b")
    other = generate(tmp_path, name, 8, "c")
    files = sorted(os.listdir(first))
    assert files == sorted(os.listdir(again)) == sorted(os.listdir(other))
    _, mismatch, errors = filecmp.cmpfiles(first, again, files, shallow=False)
    assert mismatch == [] and errors == []
    assert not filecmp.cmp(first / "corpus.jsonl", other / "corpus.jsonl", shallow=False)


def test_vocabulary_size_does_not_depend_on_seed(tmp_path):
    sizes = set()
    for seed in (1, 2, 3):
        workdir = generate(tmp_path, "decode_large_vocab", seed, "v")
        words = set()
        with open(workdir / "corpus.jsonl", encoding="utf-8") as fh:
            for line in fh:
                words.update(json.loads(line)["text"].split())
        sizes.add(len(words))
    assert len(sizes) == 1 and 7500 < sizes.pop() < 8500


def patched_attributes():
    """Every attribute instrument() replaces, with its current value."""
    run.import_cosum()
    found = {}
    for owner_name, attr, _ in tracing.TARGETS:
        owner = tracing._resolve(owner_name)
        if isinstance(owner, type):
            found[(owner_name, attr)] = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
            for module, name in tracing._module_holders(original):
                found[(module.__name__, name)] = original
    return found


def test_instrument_restores_every_original():
    before = patched_attributes()
    assert len(before) > len(tracing.TARGETS)  # re-exports are patched too
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        import cosum.cli
        import cosum.lm

        assert cosum.cli.load_model is not before[("cosum.lm", "load_model")]
        assert cosum.lm.load_model is cosum.cli.load_model
    assert patched_attributes() == before
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer):
            raise RuntimeError("a request that raises")
    assert patched_attributes() == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_emitted_names_are_declared(name):
    spec = declared()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=3, seconds=0, trace=trace, scale=SCALE[name])
        assert result["correct"] and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {m: v["unit"] for m, v in result["metrics"].items()}
        assert emitted == units


def test_per_layer_targets_cover_every_layer_metric():
    with open(os.path.join(BENCH, "targets.json"), encoding="utf-8") as fh:
        targets = json.load(fh)
    spec = declared()
    assert sorted(targets) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    for metric, moves in targets.items():
        assert moves, metric
        for target in moves:
            assert target["metric"] in end_to_end, metric
            assert set(target["workloads"]) <= workload_names, metric
