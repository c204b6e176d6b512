"""Seeded input generator and request lists for the cosum benchmark.

Every input cosum reads in a benchmark run is written here from the run's
seed: the review corpus (JSONL), the pairs passed as `--pair`, and for the
corpus pipeline the references and the generated-summaries file. The same
seed gives byte-identical files; cosum itself never sees the seed. Each
generator takes a `scale`: 1.0 is the benchmark, and the benchmark's own
tests pass less to get the same request mix on tiny inputs.

Each workload is one closed-loop client that repeats a fixed *pass* of CLI
requests. A pass is the unit the runner repeats, so every request of a run
is executed at least twice and the two executions can be compared.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# cosum.decoding.ALL_MODES, spelled out so generating inputs needs no
# import of the program under test; run.py checks the two agree.
ALL_MODES = (
    "contrastive_poe",
    "contrastive_moe_ablation",
    "contrastive_vs_common",
    "common_moe",
    "common_poe_ablation",
    "base",
)

SHARED_SENTENCES = [
    "the staff were friendly and helpful .",
    "the room was clean and comfortable .",
    "the breakfast was fresh and tasty .",
    "the location is convenient for the city center .",
    "we enjoyed our stay and would return .",
    "check in was quick and the desk was polite .",
    "the bed was soft and the pillows were great .",
    "parking was easy and the price was fair .",
]

# Entity-specific sentences: fixed frames with three slots that take
# seeded pseudo-words, so each entity has its own distinctive phrases.
SPECIFIC_FRAMES = [
    "the {0} near the {1} is perfect for {2} .",
    "every morning the {0} serves {1} with {2} .",
    "guests love the {0} and the quiet {1} by the {2} .",
    "you can rent a {0} to explore the {1} and {2} .",
]

# Longer, more varied frames for the corpus pipeline, whose TF-IDF
# neighbours need reviews that differ in more than the entity's nouns.
PIPELINE_FRAMES = SPECIFIC_FRAMES + [
    "honestly the {0} was {1} but the {2} made up for it .",
    "our kids spent hours at the {0} while we tried the {1} .",
    "the {0} felt a little {1} compared to the {2} .",
    "staff recommended the {0} and a walk to the {1} .",
]

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _frame_words() -> set:
    words = set()
    for sentence in SHARED_SENTENCES + PIPELINE_FRAMES:
        for word in sentence.replace("{0}", " ").replace("{1}", " ").replace(
            "{2}", " "
        ).split():
            words.add(word)
    return words


def pseudo_words(rng: random.Random, count: int, syllables: int) -> List[str]:
    """`count` distinct lowercase pseudo-words, none equal to a frame word."""
    taken = _frame_words()
    words: List[str] = []
    while len(words) < count:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


@dataclass
class Request:
    """One CLI request: its argv, the files it writes, and their check.

    `verify` gets the bytes of `outputs`, raises ValueError if they are not
    the output this request must produce, and returns the number of
    summary tokens the request handled.
    """

    key: str
    argv: List[str]
    outputs: List[str]
    verify: Callable[[List[bytes]], int]


@dataclass
class Inputs:
    """Generated files of one workload and the size figures of the run."""

    corpus: str
    model: str
    requests: List[Request]
    size: Dict[str, int]


def _write_jsonl(path: str, records: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _corpus_records(corpus: Dict[str, List[str]]) -> List[dict]:
    return [
        {"entity_id": entity, "review_id": f"{entity}-{i:03d}", "text": text}
        for entity, texts in corpus.items()
        for i, text in enumerate(texts)
    ]


def _entity_sentences(
    rng: random.Random, words: List[str], frames: List[str], count: int
) -> List[str]:
    """`count` sentences whose slots use this entity's own words."""
    sentences = []
    for i in range(count):
        frame = frames[i % len(frames)]
        slots = words[3 * i : 3 * i + 3]
        sentences.append(frame.format(*slots))
    rng.shuffle(sentences)
    return sentences


def _boilerplate_corpus(
    rng: random.Random, entities: int, reviews: int
) -> Dict[str, List[str]]:
    """Short reviews: two shared sentences and two of the entity's three.

    Review i uses specific sentences i and i+1 (mod 3), so every entity
    word occurs and |V| does not depend on the seed.
    """
    words = pseudo_words(rng, entities * 9, syllables=3)
    corpus: Dict[str, List[str]] = {}
    for e in range(entities):
        specific = _entity_sentences(
            rng, words[9 * e : 9 * e + 9], SPECIFIC_FRAMES, 3
        )
        texts = []
        for i in range(reviews):
            shared = rng.sample(SHARED_SENTENCES, 2)
            sentences = shared + [specific[i % 3], specific[(i + 1) % 3]]
            rng.shuffle(sentences)
            texts.append(" ".join(sentences))
        corpus[f"ent{e:02d}"] = texts
    return corpus


def _filler_corpus(
    rng: random.Random, tail_words: int, entities: int, review_len: int
) -> Dict[str, List[str]]:
    """Reviews of pseudo-words: every tail word once, then Zipf draws.

    This pads the training vocabulary to a fixed size without touching
    the entities that get summarized.
    """
    words = pseudo_words(rng, tail_words, syllables=4)
    stream = list(words)
    rng.shuffle(stream)
    weights = [1.0 / (rank + 1) for rank in range(tail_words)]
    stream += rng.choices(words, weights=weights, k=tail_words)
    chunks = [
        " ".join(stream[i : i + review_len]) + " ."
        for i in range(0, len(stream), review_len)
    ]
    corpus: Dict[str, List[str]] = {}
    for i, chunk in enumerate(chunks):
        corpus.setdefault(f"filler{i % entities:02d}", []).append(chunk)
    return corpus


def _pipeline_corpus(
    rng: random.Random, entities: int, reviews: int
) -> Dict[str, List[str]]:
    """Long reviews of 3 to 15 sentences (about 25 to 135 tokens).

    Every entity gets the same spread of review lengths, so the number of
    reviews in each build-synthetic length window, and with it the work
    per request, does not depend on the seed.
    """
    words = pseudo_words(rng, entities * 24, syllables=3)
    corpus: Dict[str, List[str]] = {}
    for e in range(entities):
        specific = _entity_sentences(
            rng, words[24 * e : 24 * e + 24], PIPELINE_FRAMES, 8
        )
        pool = specific + SHARED_SENTENCES
        texts = []
        for i in range(reviews):
            count = 3 + i * 13 // reviews
            texts.append(" ".join(rng.choice(pool) for _ in range(count)))
        rng.shuffle(texts)
        corpus[f"ent{e:02d}"] = texts
    return corpus


def _size(corpus: Dict[str, List[str]], pairs: int, grid_points: int) -> Dict[str, int]:
    texts = [t for ts in corpus.values() for t in ts]
    return {
        "entities": len(corpus),
        "reviews": len(texts),
        "review_tokens": sum(len(t.split()) for t in texts),
        "pairs": pairs,
        "grid_points": grid_points,
    }


def _pairs(corpus: Dict[str, List[str]], count: int) -> List[Tuple[str, str]]:
    entities = [e for e in corpus if e.startswith("ent")]
    return [(entities[2 * i], entities[2 * i + 1]) for i in range(count)]


RESERVED_TOKENS = {"<s>", "</s>", "<unk>"}
SUMMARY_SIDES = ("contrastive_a", "contrastive_b", "common")


def _verify_summaries(pair_id: str) -> Callable[[List[bytes]], int]:
    """Each output is a one-record summary list for `pair_id`."""

    def verify(blobs: List[bytes]) -> int:
        tokens = 0
        for blob in blobs:
            records = json.loads(blob)
            if len(records) != 1 or set(records[0]) != {"pair_id", *SUMMARY_SIDES}:
                raise ValueError("expected one summary record")
            if records[0]["pair_id"] != pair_id:
                raise ValueError(f"pair_id {records[0]['pair_id']!r} != {pair_id!r}")
            for side in SUMMARY_SIDES:
                words = records[0][side].split()
                if not words or RESERVED_TOKENS & set(words):
                    raise ValueError(f"empty or reserved-token summary in {side}")
                tokens += len(words)
        return tokens

    return verify


def _verify_synthetic(task: str, review_tokens: Dict[str, int]) -> Callable[[List[bytes]], int]:
    """Pairs JSONL for `task` with n=3 inputs, plus a skips report."""

    def verify(blobs: List[bytes]) -> int:
        pairs_blob, skips_blob = blobs
        lines = pairs_blob.decode("utf-8").splitlines()
        if not lines:
            raise ValueError("no synthetic pairs")
        tokens = 0
        for line in lines:
            record = json.loads(line)
            if record["task"] != task or len(record["input_review_ids"]) != 3:
                raise ValueError(f"malformed synthetic pair {line[:80]!r}")
            if (task == "common") != bool(record["counterpart_review_ids"]):
                raise ValueError("counterpart present iff task is common")
            tokens += review_tokens[record["summary_review_id"]]
        if set(json.loads(skips_blob)) != {"skipped", "k_truncated"}:
            raise ValueError("malformed skips report")
        return tokens

    return verify


def _verify_evaluation(pair_ids: List[str], tokens: int) -> Callable[[List[bytes]], int]:
    """A report with every pair and a finite number for every mean."""

    def verify(blobs: List[bytes]) -> int:
        report = json.loads(blobs[0])
        if sorted(report["pairs"]) != sorted(pair_ids):
            raise ValueError("evaluation pairs differ from the generated pairs")
        for name, value in report["means"].items():
            if not isinstance(value, float) or value != value:
                raise ValueError(f"mean {name} is {value!r}")
        return tokens

    return verify


def _fixed_length(tokens: int, scale: float) -> List[str]:
    """min_len == max_len: EOS stays masked, so every side decodes exactly
    `tokens` steps and the work per request does not depend on the seed."""
    n = str(max(2, round(tokens * scale)))
    return ["--min-len", n, "--max-len-contrastive", n, "--max-len-common", n]


DELTA_GRID = (0.0, 0.5, 1.0)
GAMMA_GRID = (0.0, 0.5)


def _grid_outputs(out: str) -> List[str]:
    stem, ext = os.path.splitext(out)
    return [
        f"{stem}.d{delta:g}_g{gamma:g}{ext}"
        for delta in DELTA_GRID
        for gamma in GAMMA_GRID
    ]


def _write_corpus(workdir: str, corpus: Dict[str, List[str]]) -> str:
    path = os.path.join(workdir, "corpus.jsonl")
    _write_jsonl(path, _corpus_records(corpus))
    return path


# Every mode once, and the paper's default mode once more. An odd number
# of requests per pass puts the median latency inside one request's
# cluster of timings instead of on the gap between two clusters.
SWEEP_MODES = ALL_MODES + ("contrastive_poe",)


def decode_sweep(workdir: str, seed: int, scale: float = 1.0) -> Inputs:
    """One pair per request over a 3x2 delta/gamma grid, one mode each.

    A pass has one request per entry of SWEEP_MODES, each on its own pair.
    """
    rng = random.Random(f"decode_sweep:{seed}")
    corpus = _boilerplate_corpus(rng, entities=2 * len(SWEEP_MODES), reviews=8)
    pairs = _pairs(corpus, len(SWEEP_MODES))
    corpus_path = _write_corpus(workdir, corpus)
    model = os.path.join(workdir, "model.json")
    requests = []
    for i, mode in enumerate(SWEEP_MODES):
        a, b = pairs[i]
        out = os.path.join(workdir, f"sweep{i}.json")
        argv = (
            ["summarize", "--model", model, "--reviews", corpus_path]
            + ["--pair", f"{a},{b}", "--out", out, "--mode", mode]
            + ["--delta-grid", ",".join(f"{d:g}" for d in DELTA_GRID)]
            + ["--gamma-grid", ",".join(f"{g:g}" for g in GAMMA_GRID)]
            + _fixed_length(20, scale)
        )
        requests.append(
            Request(f"sweep{i}:{mode}", argv, _grid_outputs(out), _verify_summaries(f"{a}|{b}"))
        )
    size = _size(corpus, len(pairs), len(DELTA_GRID) * len(GAMMA_GRID))
    return Inputs(corpus_path, model, requests, size)


def decode_large_vocab(workdir: str, seed: int, scale: float = 1.0) -> Inputs:
    """One pair per request at the default mode and one config point.

    The corpus carries filler entities whose pseudo-words pad the training
    vocabulary to about 8k, so every full-vocabulary walk is long.
    """
    rng = random.Random(f"decode_large_vocab:{seed}")
    corpus = _boilerplate_corpus(rng, entities=6, reviews=8)
    corpus.update(_filler_corpus(rng, int(7800 * scale), entities=8, review_len=100))
    pairs = _pairs(corpus, 3)
    corpus_path = _write_corpus(workdir, corpus)
    model = os.path.join(workdir, "model.json")
    requests = []
    for i, (a, b) in enumerate(pairs):
        out = os.path.join(workdir, f"large{i}.json")
        argv = (
            ["summarize", "--model", model, "--reviews", corpus_path]
            + ["--pair", f"{a},{b}", "--out", out, "--beam-width", "2"]
            + _fixed_length(16, scale)
        )
        requests.append(Request(f"large{i}", argv, [out], _verify_summaries(f"{a}|{b}")))
    size = _size(corpus, len(pairs), 1)
    return Inputs(corpus_path, model, requests, size)


def _summary_text(rng: random.Random, texts: List[str], sentences: int) -> str:
    pool = sorted({s.strip() + " ." for t in texts for s in t.split(" .") if s.strip()})
    return " ".join(rng.sample(pool, min(sentences, len(pool))))


def corpus_pipeline(workdir: str, seed: int, scale: float = 1.0) -> Inputs:
    """build-synthetic (both tasks) and evaluate; no decoding.

    The generated summaries and the references are drawn from the
    entities' own sentences, so ROUGE and novelty have real overlap.
    """
    rng = random.Random(f"corpus_pipeline:{seed}")
    entities = max(4, round(16 * scale))
    corpus = _pipeline_corpus(rng, entities, reviews=max(8, round(30 * scale)))
    names = list(corpus)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    pairs = rng.sample(pairs, min(len(pairs), max(2, round(40 * scale))))
    corpus_path = _write_corpus(workdir, corpus)
    generated, references = [], []
    for a, b in pairs:
        pair_id = f"{a}|{b}"
        both = corpus[a] + corpus[b]
        generated.append(
            {
                "pair_id": pair_id,
                "contrastive_a": _summary_text(rng, corpus[a], 4),
                "contrastive_b": _summary_text(rng, corpus[b], 4),
                "common": _summary_text(rng, both, 2),
            }
        )
        references.append(
            {
                "pair_id": pair_id,
                "contrastive_a": [_summary_text(rng, corpus[a], 5) for _ in range(3)],
                "contrastive_b": [_summary_text(rng, corpus[b], 5) for _ in range(3)],
                "common": [_summary_text(rng, both, 3) for _ in range(3)],
            }
        )
    generated_path = os.path.join(workdir, "generated.json")
    with open(generated_path, "w", encoding="utf-8") as fh:
        json.dump(generated, fh, sort_keys=True, indent=2)
    references_path = os.path.join(workdir, "references.jsonl")
    _write_jsonl(references_path, references)
    review_tokens = {
        record["review_id"]: len(record["text"].split())
        for record in _corpus_records(corpus)
    }
    requests = []
    for task in ("contrastive", "common"):
        out = os.path.join(workdir, f"synthetic_{task}.jsonl")
        argv = [
            "build-synthetic", "--reviews", corpus_path, "--task", task,
            "--n", "3", "--k", "40", "--out", out,
        ]
        requests.append(
            Request(
                f"synthetic:{task}",
                argv,
                [out, out + ".skips.json"],
                _verify_synthetic(task, review_tokens),
            )
        )
    out = os.path.join(workdir, "evaluation.json")
    argv = [
        "evaluate", "--generated", generated_path, "--references", references_path,
        "--reviews", corpus_path, "--out", out,
    ]
    generated_tokens = sum(len(g[side].split()) for g in generated for side in SUMMARY_SIDES)
    requests.append(
        Request(
            "evaluate",
            argv,
            [out],
            _verify_evaluation([f"{a}|{b}" for a, b in pairs], generated_tokens),
        )
    )
    size = _size(corpus, len(pairs), 0)
    model = os.path.join(workdir, "model.json")
    return Inputs(corpus_path, model, requests, size)


WORKLOADS = {
    "decode_sweep": decode_sweep,
    "decode_large_vocab": decode_large_vocab,
    "corpus_pipeline": corpus_pipeline,
}
