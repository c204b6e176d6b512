"""Acceptance gate: one test per release criterion, each printing a
single PASS line on success (pytest -s shows them)."""

import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

from cosum.cli import main
from cosum.data import TfidfStats, build_synthetic, tfidf_similarity
from cosum.decoding import (
    DecodeConfig,
    aggregate_common,
    aggregate_common_poe,
    aggregate_contrastive,
    aggregate_contrastive_moe,
    aggregate_contrastive_vs_common,
    beam_decode,
    condition_pair,
    summarize_pair,
    symmetric_common_dist,
)
from cosum.dists import TokenDist, top_p_truncate
from cosum.metrics import (
    distinctiveness,
    intra_pair_score,
    novel_ngram_rate,
    rouge_l,
    rouge_n,
)
from cosum.vocab import EOS_ID, tokenize_text

from test_beam import count_sequences, exhaustive_best, make_toy_step_fn
from test_data import TestBuildSynthetic, brute_force_top_subset


def random_dist(rng, support):
    return TokenDist.from_weights({t: rng.uniform(0.05, 1.0) for t in support})


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_1_reduction_identity():
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(100):
        support = range(1, rng.randint(4, 10))
        target = random_dist(rng, support)
        counter = random_dist(rng, support)
        comm = random_dist(rng, support)
        top_p = rng.choice([0.7, 0.9, 1.0])
        base = top_p_truncate(target, top_p).entries
        assert aggregate_contrastive(target, counter, 0.0, top_p).entries == base
        assert aggregate_contrastive_moe(target, counter, 0.0, top_p).entries == base
        assert aggregate_contrastive_vs_common(target, comm, 0.0, top_p).entries == base
        base_comm = top_p_truncate(comm, top_p).entries
        assert aggregate_common(comm, target, counter, 0.0, top_p).entries == base_comm
        assert (
            aggregate_common_poe(comm, target, counter, 0.0, top_p).entries
            == base_comm
        )
    assert time.monotonic() - start < 1.0
    report("1 reduction identity (delta=gamma=0)")


def test_criterion_2_log_odds_slope():
    start = time.monotonic()
    rng = random.Random(202)
    deltas = [0.0, 0.5, 1.0, 2.0]
    for _ in range(60):
        support = range(1, rng.randint(3, 8))
        target = random_dist(rng, support)
        counter = random_dist(rng, support)
        u, v = rng.sample(sorted(target.entries), 2)
        expected = math.log(
            (target.get(u) / counter.get(u)) / (target.get(v) / counter.get(v))
        )
        log_odds = []
        for delta in deltas:
            out = aggregate_contrastive(target, counter, delta, 1.0)
            log_odds.append(math.log(out.get(u)) - math.log(out.get(v)))
        for i in range(len(deltas) - 1):
            slope = (log_odds[i + 1] - log_odds[i]) / (deltas[i + 1] - deltas[i])
            assert abs(slope - expected) < 1e-9
    assert time.monotonic() - start < 1.0
    report("2 contrastive log-odds slope closed form")


def test_criterion_3_beam_oracle():
    start = time.monotonic()
    rng = random.Random(303)
    for trial in range(20):
        vocab_size = rng.randint(2, 4)
        vocab_ids = [EOS_ID] + list(range(3, 2 + vocab_size))
        max_len = rng.randint(2, 4)
        step_fn = make_toy_step_fn(rng, vocab_ids, max_len)
        cfg = DecodeConfig(
            beam_width=count_sequences(len(vocab_ids), max_len),
            min_len=1,
            max_len_contrastive=max_len,
            max_len_common=max_len,
        )
        assert beam_decode(step_fn, cfg, max_len) == exhaustive_best(
            step_fn, cfg, max_len
        )
    assert time.monotonic() - start < 5.0
    report("3 beam search equals exhaustive oracle")


def test_criterion_4_symmetry_suite(trained_lm, corpus_by_entity):
    ra = corpus_by_entity["harbor_hotel"]
    rb = corpus_by_entity["garden_inn"]
    pair_ab = condition_pair(trained_lm, ra, rb)
    pair_ba = condition_pair(trained_lm, rb, ra)
    for prefix in [(), (trained_lm.vocabulary.lookup("the"),)]:
        fwd = symmetric_common_dist(trained_lm, prefix, pair_ab.both)
        rev = symmetric_common_dist(trained_lm, prefix, pair_ba.both)
        assert fwd.entries == rev.entries
    rng = random.Random(404)
    for _ in range(30):
        comm = random_dist(rng, range(1, 6))
        a = random_dist(rng, range(1, 6))
        b = random_dist(rng, range(1, 6))
        assert (
            aggregate_common(comm, a, b, 0.7, 0.9).entries
            == aggregate_common(comm, b, a, 0.7, 0.9).entries
        )
    cfg = DecodeConfig(min_len=3, max_len_contrastive=25, max_len_common=15)
    fwd = summarize_pair(trained_lm, pair_ab, cfg)
    rev = summarize_pair(trained_lm, pair_ba, cfg)
    assert fwd.common == rev.common
    assert fwd.contrastive_a == rev.contrastive_b
    report("4 symmetry under pair-order and expert swap")


def test_criterion_5_metric_oracles():
    checks = [
        # (candidate, reference, n or None, expected (P, R, F1))
        ("the cat sat", "the cat", 1, (2 / 3, 1.0, 0.8)),
        ("the cat sat", "the cat", 2, (0.5, 1.0, 2 / 3)),
        ("a b c d", "a c d", None, (0.75, 1.0, 2 * 0.75 / 1.75)),
        ("a b c", "a b c", 1, (1.0, 1.0, 1.0)),
        ("a b c", "a b c", None, (1.0, 1.0, 1.0)),
        ("a a a", "a b", 1, (1 / 3, 0.5, 2 * (1 / 3) * 0.5 / (1 / 3 + 0.5))),
        ("x y", "a b", 1, (0.0, 0.0, 0.0)),
        ("a b a b", "b a", 2, (1 / 3, 1.0, 0.5)),
        ("p q r s", "q s", None, (0.5, 1.0, 2 / 3)),
        ("m n", "m n o p", 1, (1.0, 0.5, 2 / 3)),
    ]
    for cand, ref, n, (p, r, f1) in checks:
        score = (
            rouge_l(cand.split(), ref.split())
            if n is None
            else rouge_n(cand.split(), ref.split(), n)
        )
        assert abs(score.precision - p) < 1e-9
        assert abs(score.recall - r) < 1e-9
        assert abs(score.f1 - f1) < 1e-9

    ds_checks = [
        (("a b", "c d", "e f"), 1.0),
        (("x y z", "x y z", "x y z"), 0.0),
        (("a b", "b c", "d"), 0.75),
        (("a a", "a", "b"), 1.0 - 1.0 / 3.0),
        (("a b c", "c d", "d e"), 1.0 - 2.0 / 5.0),
    ]
    for (s1, s2, s3), expected in ds_checks:
        ds = distinctiveness(
            Counter(s1.split()), Counter(s2.split()), Counter(s3.split())
        )
        assert abs(ds - expected) < 1e-9

    assert distinctiveness(Counter("a b".split()), Counter("c".split()), Counter("d".split())) == 1.0
    assert abs(novel_ngram_rate("a b".split(), "a".split(), 1) - 0.5) < 1e-9
    assert novel_ngram_rate("a b c".split(), "a b c d".split(), 2) == 0.0
    assert novel_ngram_rate("x y".split(), "a b".split(), 1) == 1.0
    report("5 metric oracles match hand computations")


def test_criterion_6_directional_codecoding(trained_lm, corpus_by_entity, demo):
    start = time.monotonic()
    pairs = [
        condition_pair(trained_lm, corpus_by_entity[a], corpus_by_entity[b])
        for a, b in demo["SAMPLE_PAIRS"]
    ]

    def run(cfg):
        ds_vals, intra_vals = [], []
        for pair in pairs:
            triple = summarize_pair(trained_lm, pair, cfg)
            ds_vals.append(
                distinctiveness(
                    Counter(tokenize_text(triple.contrastive_a)),
                    Counter(tokenize_text(triple.contrastive_b)),
                    Counter(tokenize_text(triple.common)),
                )
            )
            intra_vals.append(
                intra_pair_score(
                    tokenize_text(triple.contrastive_a), tokenize_text(triple.contrastive_b)
                )[0].f1
            )
        k = len(ds_vals)
        return sum(ds_vals) / k, sum(intra_vals) / k

    fast = dict(min_len=5, max_len_contrastive=30, max_len_common=20)
    ds_codec, intra_codec = run(DecodeConfig(delta=1.0, gamma=0.5, **fast))
    ds_base, intra_base = run(DecodeConfig(delta=0.0, gamma=0.0, **fast))
    assert ds_codec > ds_base
    assert intra_codec < intra_base
    assert time.monotonic() - start < 30.0
    report(
        f"6 directional effect: DS {ds_codec:.3f} > {ds_base:.3f}, "
        f"Intra-R1 {intra_codec:.3f} < {intra_base:.3f}"
    )


def test_criterion_7_synthetic_oracle():
    start = time.monotonic()
    builder = TestBuildSynthetic()
    for seed in (21, 22, 23):
        corpus = builder.fixture_corpus(
            random.Random(seed), n_entities=3, n_reviews=8
        )
        stats = TfidfStats.from_corpus(corpus)
        for task, (lo, hi) in (("contrastive", (100, 150)), ("common", (15, 50))):
            n = 3
            result = build_synthetic(corpus, task, n=n, k=1000)
            for pair in result.pairs:
                assert lo <= pair.pseudo_summary.length <= hi
                assert all(50 <= r.length <= 150 for r in pair.inputs)
                candidates = [
                    c
                    for es in corpus
                    if es.entity_id == pair.entity_id
                    for c in es.reviews
                    if c.review_id != pair.pseudo_summary.review_id
                    and 50 <= c.length <= 150
                ]
                oracle_ids, oracle_sum = brute_force_top_subset(
                    pair.pseudo_summary, candidates, n, stats
                )
                assert {c.review_id for c in pair.inputs} == oracle_ids
                assert abs(pair.similarity_sum - oracle_sum) < 1e-9
    assert time.monotonic() - start < 5.0
    report("7 synthetic-pair selection equals brute-force subset oracle")


def test_criterion_8_end_to_end_determinism(tmp_path, corpus_path, demo):
    pairs = demo["SAMPLE_PAIRS"][:2]
    refs = tmp_path / "refs.jsonl"
    with open(refs, "w") as fh:
        for a, b in pairs:
            fh.write(
                json.dumps(
                    {
                        "pair_id": f"{a}|{b}",
                        "contrastive_a": ["the staff were friendly"],
                        "contrastive_b": ["the room was clean"],
                        "common": ["we enjoyed our stay"],
                    }
                )
                + "\n"
            )

    def run(outdir):
        outdir.mkdir()
        model = outdir / "model.json"
        gen = outdir / "generated.json"
        metrics = outdir / "metrics.json"
        assert main(["train", "--reviews", corpus_path, "--out", str(model)]) == 0
        pair_flags = [flag for a, b in pairs for flag in ("--pair", f"{a},{b}")]
        summarize = ["summarize", "--model", str(model), "--reviews", corpus_path]
        lengths = ["--min-len", "3", "--max-len-contrastive", "25", "--max-len-common", "15"]
        assert main(summarize + pair_flags + ["--out", str(gen)] + lengths) == 0
        evaluate = ["evaluate", "--generated", str(gen), "--references", str(refs)]
        assert main(evaluate + ["--reviews", corpus_path, "--out", str(metrics)]) == 0
        return [model, gen, metrics]

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes(), f1.name
    report("8 end-to-end train/summarize/evaluate byte-identical")
