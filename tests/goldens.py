"""The golden runs, free of pytest, so any interpreter can replay them.

The decode cases cover every mode, one δ/γ sweep and one decode whose nuclei
reach the smoothing tail, on the sample corpus; the corpus cases are
`test_golden_corpus.run`. Run as a script,

    PYTHONPATH=src python tests/goldens.py

replays both in a temporary directory, prints each produced file whose
bytes differ from tests/golden/ and exits 1 if there is one.
"""

import os
import sys
import tempfile

from cosum.cli import main
from cosum.decoding import ALL_MODES

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(TESTS, "golden")
SAMPLE_REVIEWS = os.path.join(TESTS, "..", "data", "sample_reviews.jsonl")
PAIR = "airport_express,vineyard_estate"
SHORT = [
    "--beam-width", "2",
    "--min-len", "4",
    "--max-len-contrastive", "16",
    "--max-len-common", "16",
]
SWEEP = ["--delta-grid", "0,1", "--gamma-grid", "0,0.5"]
SWEEP_POINTS = ("d0_g0", "d0_g0.5", "d1_g0", "d1_g0.5")


def train(workdir, *flags):
    model = os.path.join(workdir, "model.json")
    assert main(["train", "--reviews", SAMPLE_REVIEWS, "--out", model, *flags]) == 0
    return model


def summarize(model, out, extra):
    argv = ["summarize", "--model", model, "--reviews", SAMPLE_REVIEWS, "--pair", PAIR]
    assert main(argv + ["--out", out] + SHORT + extra) == 0


def cases():
    """(golden file name, extra summarize flags, files the run writes)."""
    for mode in ALL_MODES:
        yield f"{mode}.json", ["--mode", mode], [f"{mode}.json"]
    yield "sweep.json", SWEEP, [f"sweep.{point}.json" for point in SWEEP_POINTS]
    # Nuclei wide enough to reach the smoothing tail, which no case above does.
    yield "tail.json", ["--top-p", "0.99999"], ["tail.json"]


def differing(outdir, produced):
    """The names in produced whose bytes in outdir differ from the golden."""
    def read(directory, name):
        with open(os.path.join(directory, name), "rb") as fh:
            return fh.read()

    return [name for name in produced if read(outdir, name) != read(GOLDEN_DIR, name)]


def replay_decode(workdir):
    """Every decode golden, rerun in workdir; the files that differ."""
    model = train(workdir)
    decoded = []
    for name, extra, written in cases():
        summarize(model, os.path.join(workdir, name), extra)
        decoded += written
    return differing(workdir, decoded)


def replay_corpus(workdir):
    """Every corpus golden, rerun in workdir; the files that differ."""
    import test_golden_corpus  # imports GOLDEN_DIR from here

    inputs = test_golden_corpus.write_inputs(workdir)
    return differing(workdir, test_golden_corpus.run(inputs, workdir))


def replay(workdir):
    """Every decode and corpus golden, rerun in workdir; the files that differ."""
    decode_dir, corpus_dir = (os.path.join(workdir, d) for d in ("decode", "corpus"))
    os.makedirs(decode_dir)
    os.makedirs(corpus_dir)
    return replay_decode(decode_dir) + replay_corpus(corpus_dir)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        bad = replay(workdir)
    print("\n".join(f"differs: {name}" for name in bad) or "all goldens match")
    sys.exit(1 if bad else 0)
