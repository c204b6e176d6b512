"""Golden `cosum summarize` outputs: every decode mode, one grid sweep and one
decode whose nuclei reach the smoothing tail.

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

from goldens import GOLDEN_DIR, cases, differing, summarize, train

# SHA-256 of model.json from `cosum train --order N` on the sample corpus.
MODEL_SHA256 = {
    1: "6f050fb83b984e741cd7859d59ff7a6f5e55f62d312ac19a39a64f457ee21824",
    2: "a4e14ed70ad4bcf24991f5b5206813db6e321bebc5ad70854922a80e4bda481c",
    3: "946bdadcdafe78c1663c93a71a651bb81c5479e75c242d640cba444491f87a6d",
    4: "af9f2f28b91f72121455282727b516f82eafb8e70ded67e2f9a14ff953d152c4",
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return train(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize(
    "name,extra,written", [pytest.param(*case, id=case[0]) for case in cases()]
)
def test_summaries_match_golden(trained, tmp_path, name, extra, written):
    summarize(trained, str(tmp_path / name), extra)
    assert differing(str(tmp_path), written) == []


@pytest.mark.parametrize("order", sorted(MODEL_SHA256))
def test_model_file_matches_pinned_digest(tmp_path, order):
    model = train(str(tmp_path), "--order", str(order))
    with open(model, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == MODEL_SHA256[order]


def record(workdir):
    model = train(workdir)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, extra, _ in cases():
        summarize(model, os.path.join(GOLDEN_DIR, name), extra)
    for path in os.listdir(GOLDEN_DIR):
        if path.endswith(".manifest.json"):
            os.unlink(os.path.join(GOLDEN_DIR, path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        record(workdir)
