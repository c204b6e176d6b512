"""Golden `cosum summarize` outputs: every decode mode plus one grid sweep.

The expected files under tests/golden/ pin the summaries byte for byte, so
a refactor of decoding must reproduce them exactly. A change that is meant
to alter an output rewrites them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. The `cosum train` model file is pinned by its
SHA-256 for each n-gram order in `MODEL_SHA256`; a change that is meant to
alter it updates those digests by hand and says why.
"""

import hashlib
import os

import pytest

from cosum.cli import main
from cosum.decoding import ALL_MODES
from cosum.sample_corpus import write_sample_corpus

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PAIR = "airport_express,vineyard_estate"
SHORT = [
    "--beam-width", "2",
    "--min-len", "4",
    "--max-len-contrastive", "16",
    "--max-len-common", "16",
]
SWEEP = ["--delta-grid", "0,1", "--gamma-grid", "0,0.5"]
SWEEP_POINTS = ("d0_g0", "d0_g0.5", "d1_g0", "d1_g0.5")
# SHA-256 of model.json from `cosum train --order N` on the sample corpus.
MODEL_SHA256 = {
    1: "6f050fb83b984e741cd7859d59ff7a6f5e55f62d312ac19a39a64f457ee21824",
    2: "a4e14ed70ad4bcf24991f5b5206813db6e321bebc5ad70854922a80e4bda481c",
    3: "946bdadcdafe78c1663c93a71a651bb81c5479e75c242d640cba444491f87a6d",
    4: "af9f2f28b91f72121455282727b516f82eafb8e70ded67e2f9a14ff953d152c4",
}


def train(workdir, *flags):
    corpus = os.path.join(workdir, "reviews.jsonl")
    model = os.path.join(workdir, "model.json")
    write_sample_corpus(corpus)
    assert main(["train", "--reviews", corpus, "--out", model, *flags]) == 0
    return corpus, model


def summarize(corpus, model, out, extra):
    argv = ["summarize", "--model", model, "--reviews", corpus, "--pair", PAIR]
    assert main(argv + ["--out", out] + SHORT + extra) == 0


def cases():
    """(golden file name, extra summarize flags, files the run writes)."""
    for mode in ALL_MODES:
        yield f"{mode}.json", ["--mode", mode], [f"{mode}.json"]
    yield "sweep.json", SWEEP, [f"sweep.{point}.json" for point in SWEEP_POINTS]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return train(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize(
    "name,extra,written", [pytest.param(*case, id=case[0]) for case in cases()]
)
def test_summaries_match_golden(trained, tmp_path, name, extra, written):
    corpus, model = trained
    summarize(corpus, model, str(tmp_path / name), extra)
    for produced in written:
        with open(os.path.join(GOLDEN_DIR, produced), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / produced).read_bytes() == expected, produced


@pytest.mark.parametrize("order", sorted(MODEL_SHA256))
def test_model_file_matches_pinned_digest(tmp_path, order):
    _, model = train(str(tmp_path), "--order", str(order))
    with open(model, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == MODEL_SHA256[order]


def record(workdir):
    corpus, model = train(workdir)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, extra, _ in cases():
        summarize(corpus, model, os.path.join(GOLDEN_DIR, name), extra)
    for path in os.listdir(GOLDEN_DIR):
        if path.endswith(".manifest.json"):
            os.unlink(os.path.join(GOLDEN_DIR, path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        record(workdir)
