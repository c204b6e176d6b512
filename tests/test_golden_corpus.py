"""Golden `cosum build-synthetic` and `cosum evaluate` outputs.

A small corpus built here (no decoding, no model) is run through
`build-synthetic` for both tasks and through `evaluate --reviews`; the
expected files under tests/golden/ pin the pairs, the skip reports and
the metric report byte for byte. A change that is meant to alter one of
them rewrites them with

    PYTHONPATH=src python tests/test_golden_corpus.py

and says why in CHANGES.md.
"""

import json
import os
import random
from collections import Counter

import cosum.cli
import cosum.data
import cosum.vocab
from cosum.cli import main
from cosum.data import TfidfStats, load_reviews

from goldens import GOLDEN_DIR, differing

SHARED = ["the", "staff", "room", "was", "clean", "and", "quiet", "breakfast", "view"]
ENTITIES = {
    # Review token lengths: 15..50 are common-task summaries, 100..150
    # contrastive-task summaries, and 50..150 the inputs of both.
    "alpha_lodge": (
        ["fireplace", "ski", "lift", "alpine"],
        [25, 35, 45, 60, 75, 90, 120, 135],
    ),
    "beta_hostel": (
        ["bunk", "locker", "backpackers", "kitchen"],
        [22, 33, 48, 55, 80, 95, 110, 140],
    ),
    "gamma_resort": (
        ["lagoon", "spa", "cabana", "snorkel"],
        [28, 40, 50, 65, 85, 100, 125, 150],
    ),
    # Two candidates at most: every one of its summaries is skipped at n=3.
    "delta_motel": (["parking", "highway", "vending"], [30, 70, 110]),
}
PAIRS = [
    ("alpha_lodge", "beta_hostel"),
    ("beta_hostel", "gamma_resort"),
    ("alpha_lodge", "gamma_resort"),
]
SYNTHETIC = {task: f"synthetic_{task}.jsonl" for task in ("contrastive", "common")}
EVALUATION = "evaluation.json"


def review_text(rng, words, length):
    """`length` tokens: sentences of up to 7 words, each ended by '.'."""
    tokens = []
    while len(tokens) < length - 1:
        tokens.append("." if len(tokens) % 8 == 7 else rng.choice(words))
    return " ".join(tokens + ["."])


def sentences(text):
    return [s.strip() + " ." for s in text.split(" .") if s.strip()]


def write_inputs(workdir):
    """Write the corpus, generated summaries and references; return paths."""
    rng = random.Random(0)
    texts = {}
    with open(os.path.join(workdir, "reviews.jsonl"), "w", encoding="utf-8") as fh:
        for entity, (own, lengths) in ENTITIES.items():
            texts[entity] = [review_text(rng, SHARED + own, n) for n in lengths]
            for i, text in enumerate(texts[entity]):
                row = {"entity_id": entity, "review_id": f"{entity}-{i}", "text": text}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    generated, references = [], []
    for a, b in PAIRS:
        pool = {side: sentences(" ".join(texts[e])) for side, e in (("a", a), ("b", b))}
        both = pool["a"] + pool["b"]
        pick = lambda source, k: " ".join(rng.sample(source, k))
        generated.append(
            {
                "pair_id": f"{a}|{b}",
                "contrastive_a": pick(pool["a"], 3),
                "contrastive_b": pick(pool["b"], 3),
                "common": pick(both, 2),
            }
        )
        references.append(
            {
                "pair_id": f"{a}|{b}",
                "contrastive_a": [pick(pool["a"], 4) for _ in range(2)],
                "contrastive_b": [pick(pool["b"], 4) for _ in range(2)],
                "common": [pick(both, 3) for _ in range(2)],
            }
        )
    with open(os.path.join(workdir, "generated.json"), "w", encoding="utf-8") as fh:
        json.dump(generated, fh)
    with open(os.path.join(workdir, "references.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in references)
    names = ("reviews.jsonl", "generated.json", "references.jsonl")
    return {name: os.path.join(workdir, name) for name in names}


def run(inputs, outdir):
    """Run both build-synthetic tasks and evaluate; return files written."""
    written = []
    for task, name in SYNTHETIC.items():
        out = os.path.join(outdir, name)
        argv = ["build-synthetic", "--reviews", inputs["reviews.jsonl"], "--task", task]
        assert main(argv + ["--n", "3", "--k", "8", "--out", out]) == 0
        written += [name, name + ".skips.json"]
    argv = [
        "evaluate", "--generated", inputs["generated.json"],
        "--references", inputs["references.jsonl"],
        "--reviews", inputs["reviews.jsonl"], "--out", os.path.join(outdir, EVALUATION),
    ]
    assert main(argv) == 0
    return written + [EVALUATION]


def test_corpus_outputs_match_golden(tmp_path):
    inputs = write_inputs(str(tmp_path))
    assert differing(str(tmp_path), run(inputs, str(tmp_path))) == []


def test_corpus_covers_pairs_skips_and_no_counterpart_drops():
    def load(name):
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            return fh.read()

    for name in SYNTHETIC.values():
        assert load(name).strip(), name
        skips = json.loads(load(name + ".skips.json"))["skipped"]
        reasons = [s["reason"] for s in skips]
        assert reasons and all("eligible candidates" in r for r in reasons), name
    assert len(json.loads(load(EVALUATION))["pairs"]) == len(PAIRS)


def count_review_tokenisations(monkeypatch, texts):
    """Count, per review text, the tokenize_text calls that read it.

    A call on a longer text, such as reviews joined together, counts for
    every review text inside it.
    """
    calls = Counter()
    tokenize = cosum.vocab.tokenize_text

    def counting_tokenize(text):
        calls.update(t for t in texts if t in text)
        return tokenize(text)

    for module in (cosum.vocab, cosum.data, cosum.cli):
        monkeypatch.setattr(module, "tokenize_text", counting_tokenize)
    return calls


def test_each_command_tokenises_each_review_at_most_once(tmp_path, monkeypatch):
    inputs = write_inputs(str(tmp_path))
    texts = {r.text for es in load_reviews(inputs["reviews.jsonl"]) for r in es.reviews}
    assert len(texts) == sum(len(lengths) for _, lengths in ENTITIES.values())
    tokenised = count_review_tokenisations(monkeypatch, texts)
    vectorised = Counter()
    vector = TfidfStats.vector

    def counting_vector(stats, review):
        vectorised[review.entity_id, review.review_id] += 1
        return vector(stats, review)

    monkeypatch.setattr(TfidfStats, "vector", counting_vector)
    reviews = inputs["reviews.jsonl"]

    def run_counted(argv):
        tokenised.clear()
        vectorised.clear()
        assert main(argv) == 0, argv

    run_counted(["train", "--reviews", reviews, "--out", str(tmp_path / "model.json")])
    assert tokenised == Counter(dict.fromkeys(texts, 1))
    for task in SYNTHETIC:
        run_counted([
            "build-synthetic", "--reviews", reviews, "--task", task,
            "--n", "3", "--k", "8", "--out", str(tmp_path / task),
        ])
        assert tokenised and max(tokenised.values()) == 1, task
        assert vectorised and max(vectorised.values()) == 1, task
    run_counted([
        "evaluate", "--generated", inputs["generated.json"],
        "--references", inputs["references.jsonl"],
        "--reviews", reviews, "--out", str(tmp_path / EVALUATION),
    ])
    assert tokenised and max(tokenised.values()) == 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        run(write_inputs(workdir), GOLDEN_DIR)
    for path in os.listdir(GOLDEN_DIR):
        if path.endswith(".manifest.json"):
            os.unlink(os.path.join(GOLDEN_DIR, path))
