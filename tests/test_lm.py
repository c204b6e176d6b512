import json
import random

import pytest

from cosum.lm import load_model, save_model, train_model, train_ngram
from cosum.vocab import EOS_ID, Vocabulary, encode_corpus

from test_dists import sums_to_one


def test_bigram_hand_counts():
    v, corpus = encode_corpus(["a b a b"])
    lm = train_ngram(corpus, order=2, eps=1e-12, vocabulary=v)
    a = v.lookup("a")
    b = v.lookup("b")
    assert lm.next_dist((a,)).get(b) == pytest.approx(1.0, abs=1e-8)


def test_unigram_hand_counts():
    v, corpus = encode_corpus(["a"])
    lm = train_ngram(corpus, order=1, eps=1e-12, vocabulary=v)
    d = lm.next_dist(())
    assert d.get(v.lookup("a")) == pytest.approx(0.5, abs=1e-8)
    assert d.get(EOS_ID) == pytest.approx(0.5, abs=1e-8)


def test_unseen_context_is_uniform():
    v, corpus = encode_corpus(["a b"])
    lm = train_ngram(corpus, order=3, eps=0.1, vocabulary=v)
    d = lm.next_dist((v.lookup("b"), v.lookup("a"))).dense()
    values = set(round(p, 15) for p in d.entries.values())
    assert len(values) == 1
    assert sums_to_one(d)


def test_empty_corpus_rejected():
    v = Vocabulary()
    with pytest.raises(ValueError, match="empty training corpus"):
        train_ngram([], order=2, eps=1e-4, vocabulary=v)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_smoothing_mass_rejected(eps):
    v, corpus = encode_corpus(["a b"])
    with pytest.raises(ValueError, match="smoothing mass must be finite and > 0"):
        train_ngram(corpus, order=2, eps=eps, vocabulary=v)


def test_next_dist_normalized_over_random_contexts():
    v, corpus = encode_corpus(
        ["a b c d e", "b c a e d", "e d c b a", "a c e b d"]
    )
    lm = train_ngram(corpus, order=3, eps=1e-4, vocabulary=v)
    rng = random.Random(7)
    ids = range(1, len(v))
    for _ in range(120):
        prefix = tuple(rng.choices(ids, k=rng.randint(0, 4)))
        assert sums_to_one(lm.next_dist(prefix).dense())


def test_next_dist_predicts_every_id_but_bos():
    v, corpus = encode_corpus(["a b"])
    lm = train_ngram(corpus, order=2, eps=1e-4, vocabulary=v)
    for prefix in [(v.lookup("a"),), (EOS_ID,)]:  # a seen and an unseen context
        assert list(lm.next_dist(prefix).dense().entries) == list(range(1, len(v)))


def build_cache_lm(texts, order=2, lam=0.7):
    lm = train_model(texts, order=order, lam=lam, eps=1e-4)
    return lm.vocabulary, lm


def test_lambda_zero_matches_background_exactly():
    v, lm = build_cache_lm(["a b c", "c b a"], lam=0.0)
    cond1 = lm.condition(["a b"])
    cond2 = lm.condition(["c c c"])
    prefix = (v.lookup("a"),)
    d1 = lm.next_dist(prefix, cond1)
    d2 = lm.next_dist(prefix, cond2)
    assert d1.entries == d2.entries == lm.background.next_dist(prefix).entries


def test_lambda_one_support_limited_to_condition():
    v, lm = build_cache_lm(["a b c d"], order=1, lam=1.0)
    cond = lm.condition(["a b"])
    d = lm.next_dist((), cond)
    allowed = {v.lookup("a"), v.lookup("b"), EOS_ID}
    assert set(d.entries) <= allowed
    assert sums_to_one(d)


def test_two_set_conditioning_symmetric():
    v, lm = build_cache_lm(["a b c", "b c d"], order=2, lam=0.7)
    ra = ["a b c"]
    rb = ["c d a"]
    for prefix in [(), (v.lookup("a"),), (v.lookup("c"), v.lookup("d"))]:
        d_ab = lm.next_dist(prefix, lm.condition(ra + rb))
        d_ba = lm.next_dist(prefix, lm.condition(rb + ra))
        assert d_ab.entries == d_ba.entries


def test_empty_condition_rejected():
    v, lm = build_cache_lm(["a b"])
    with pytest.raises(ValueError, match="empty conditioning set"):
        lm.condition([])


def test_deterministic_serialized_dist():
    v, lm = build_cache_lm(["a b c", "c a b"], lam=0.7)
    cond = lm.condition(["a b c a"])
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


def test_trained_counts_equal_reloaded_counts(tmp_path):
    v, lm = build_cache_lm(["a b c d", "d c b a", "b d a c a"], order=3)
    path = tmp_path / "model.json"
    save_model(lm, str(path))
    reloaded = load_model(str(path))
    for model in (lm, reloaded):
        assert {type(row) for row in model.background.counts.values()} == {dict}
    assert lm.background.counts == reloaded.background.counts


def test_reloaded_model_same_distributions(tmp_path):
    v, lm = build_cache_lm(["a b c d", "d c b a"], order=2)
    path = tmp_path / "model.json"
    save_model(lm, str(path))
    reloaded = load_model(str(path))
    texts = ["a b", "c d"]
    prefix = (v.lookup("b"),)
    assert (
        lm.next_dist(prefix, lm.condition(texts)).entries
        == reloaded.next_dist(prefix, reloaded.condition(texts)).entries
    )
