import json
import random

import pytest

from cosum.data import EntityReviewSet, Review
from cosum.lm import load_model, save_model, train_model, train_ngram
from cosum.vocab import EOS_ID, Vocabulary


def make_vocab_and_corpus(texts):
    v = Vocabulary()
    return v, [v.encode(t, extend=True) for t in texts]


def review_set(entity, texts):
    return EntityReviewSet(
        entity,
        [Review(entity, f"{entity}-{i}", t) for i, t in enumerate(texts)],
    )


def test_bigram_hand_counts():
    v, corpus = make_vocab_and_corpus(["a b a b"])
    lm = train_ngram(corpus, order=2, eps=1e-12, vocabulary=v)
    a = v.lookup("a")
    b = v.lookup("b")
    assert lm.next_dist((a,)).get(b) == pytest.approx(1.0, abs=1e-8)


def test_unigram_hand_counts():
    v, corpus = make_vocab_and_corpus(["a"])
    lm = train_ngram(corpus, order=1, eps=1e-12, vocabulary=v)
    d = lm.next_dist(())
    assert d.get(v.lookup("a")) == pytest.approx(0.5, abs=1e-8)
    assert d.get(EOS_ID) == pytest.approx(0.5, abs=1e-8)


def test_unseen_context_is_uniform():
    v, corpus = make_vocab_and_corpus(["a b"])
    lm = train_ngram(corpus, order=3, eps=0.1, vocabulary=v)
    d = lm.next_dist((v.lookup("b"), v.lookup("a")))
    values = set(round(p, 15) for p in d.entries.values())
    assert len(values) == 1
    assert d.is_normalized()


def test_empty_corpus_rejected():
    v = Vocabulary()
    with pytest.raises(ValueError, match="empty training corpus"):
        train_ngram([], order=2, eps=1e-4, vocabulary=v)


def test_next_dist_normalized_over_random_contexts():
    v, corpus = make_vocab_and_corpus(
        ["a b c d e", "b c a e d", "e d c b a", "a c e b d"]
    )
    lm = train_ngram(corpus, order=3, eps=1e-4, vocabulary=v)
    rng = random.Random(7)
    ids = v.prediction_ids()
    for _ in range(120):
        prefix = tuple(rng.choices(ids, k=rng.randint(0, 4)))
        assert lm.next_dist(prefix).is_normalized()


def build_cache_lm(texts, order=2, lam=0.7):
    lm = train_model(texts, order=order, lam=lam, eps=1e-4)
    return lm.vocabulary, lm


def test_lambda_zero_matches_background_exactly():
    v, lm = build_cache_lm(["a b c", "c b a"], lam=0.0)
    cond1 = review_set("x", ["a b"])
    cond2 = review_set("y", ["c c c"])
    prefix = (v.lookup("a"),)
    d1 = lm.next_dist(prefix, cond1)
    d2 = lm.next_dist(prefix, cond2)
    assert d1.entries == d2.entries == lm.background.next_dist(prefix).entries


def test_lambda_one_support_limited_to_condition():
    v, lm = build_cache_lm(["a b c d"], order=1, lam=1.0)
    cond = review_set("x", ["a b"])
    d = lm.next_dist((), cond)
    allowed = {v.lookup("a"), v.lookup("b"), EOS_ID}
    assert set(d.support) <= allowed
    assert d.is_normalized()


def test_two_set_conditioning_symmetric():
    v, lm = build_cache_lm(["a b c", "b c d"], order=2, lam=0.7)
    ra = review_set("a", ["a b c"])
    rb = review_set("b", ["c d a"])
    for prefix in [(), (v.lookup("a"),), (v.lookup("c"), v.lookup("d"))]:
        d_ab = lm.next_dist(prefix, (ra, rb))
        d_ba = lm.next_dist(prefix, (rb, ra))
        assert d_ab.entries == d_ba.entries


def test_empty_condition_rejected():
    v, lm = build_cache_lm(["a b"])
    bad = EntityReviewSet.__new__(EntityReviewSet)
    bad.entity_id = "x"
    bad.reviews = []
    with pytest.raises(ValueError, match="empty conditioning set"):
        lm.next_dist((), bad)


def test_deterministic_serialized_dist():
    v, lm = build_cache_lm(["a b c", "c a b"], lam=0.7)
    cond = review_set("x", ["a b c a"])
    first = json.dumps(sorted(lm.next_dist((), cond).entries.items()))
    second = json.dumps(sorted(lm.next_dist((), cond).entries.items()))
    assert first == second


def test_model_roundtrip_bit_exact(tmp_path):
    v, lm = build_cache_lm(["a b c d", "d c b a", "b d a c"], order=3)
    p1 = tmp_path / "model1.json"
    p2 = tmp_path / "model2.json"
    save_model(lm, str(p1))
    reloaded = load_model(str(p1))
    save_model(reloaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_reloaded_model_same_distributions(tmp_path):
    v, lm = build_cache_lm(["a b c d", "d c b a"], order=2)
    path = tmp_path / "model.json"
    save_model(lm, str(path))
    reloaded = load_model(str(path))
    cond = review_set("x", ["a b", "c d"])
    prefix = (v.lookup("b"),)
    assert (
        lm.next_dist(prefix, cond).entries
        == reloaded.next_dist(prefix, cond).entries
    )
