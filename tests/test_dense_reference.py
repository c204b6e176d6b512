"""The sparse LM path against a plain dense reference, compared exactly.

The reference is the dense formulation, equation by equation: the
background model lists every id but BOS, and the interpolation mixes the
two models over that full list and divides by its ``math.fsum``. It
shares no normaliser with the code under test. The sparse path must give
the same floats, not merely close ones.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cosum.dists import TokenDist, top_p_truncate
from cosum.lm import train_model
from cosum.vocab import BOS_ID

TOP_PS = (0.2, 0.9, 1.0)


def reference_background(lm, prefix):
    bg = lm.background
    ctx = ((BOS_ID,) * (bg.order - 1) + tuple(prefix))[len(prefix) :]
    ctx_counts = bg.counts.get(ctx, {})
    ids = range(BOS_ID + 1, len(bg.vocabulary))
    denom = sum(ctx_counts.values()) + bg.eps * len(ids)
    return TokenDist({t: (ctx_counts.get(t, 0) + bg.eps) / denom for t in ids})


def reference_next_dist(lm, prefix, texts):
    background = reference_background(lm, prefix)
    if lm.lam == 0.0:
        return background
    cache = lm.condition(texts).next_dist(prefix)
    lam = lm.lam
    combined = {
        t: lam * cache.get(t) + (1.0 - lam) * p
        for t, p in background.entries.items()
    }
    total = math.fsum(combined.values())
    return TokenDist({t: w / total for t, w in combined.items() if w > 0.0})


def assert_matches_reference(lm, prefixes, texts):
    condition = lm.condition(texts)
    for prefix in prefixes:
        sparse = lm.next_dist(prefix, condition)
        reference = reference_next_dist(lm, prefix, texts)
        assert sparse.dense().entries == reference.entries
        for p in TOP_PS:
            assert top_p_truncate(sparse, p).entries == top_p_truncate(reference, p).entries


WORDS = ("a", "b", "c", "d", "e", "f")
# Condition words the model never saw map to UNK.
UNSEEN = ("qq", "zz")


def texts_of(words, max_texts):
    text = st.lists(st.sampled_from(words), min_size=1, max_size=5).map(" ".join)
    return st.lists(text, min_size=1, max_size=max_texts)


@settings(max_examples=150, deadline=None)
@given(
    train=texts_of(WORDS, 4),
    cond=texts_of(WORDS + UNSEEN, 3),
    order=st.integers(min_value=1, max_value=3),
    lam=st.sampled_from((0.0, 0.3, 1.0)),
    eps=st.sampled_from((0.1, 1e-4)),
    raw_prefixes=st.lists(
        st.lists(st.integers(min_value=1, max_value=99), max_size=4),
        min_size=1,
        max_size=4,
    ),
)
def test_sparse_matches_dense_reference(train, cond, order, lam, eps, raw_prefixes):
    lm = train_model(train, order=order, lam=lam, eps=eps)
    size = len(lm.vocabulary)
    prefixes = [tuple(1 + t % (size - 1) for t in raw) for raw in raw_prefixes]
    assert_matches_reference(lm, prefixes, cond)


# Enough words that the number of tail ids has several set bits.
MANY_WORDS = tuple(f"w{i}" for i in range(300))


@settings(max_examples=40, deadline=None)
@given(
    n_words=st.integers(min_value=20, max_value=len(MANY_WORDS)),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
    order=st.integers(min_value=1, max_value=3),
    lam=st.sampled_from((0.3, 0.7)),
    eps=st.sampled_from((0.1, 1e-4)),
    raw_prefixes=st.lists(
        st.lists(st.integers(min_value=1, max_value=10**6), max_size=3),
        min_size=1,
        max_size=4,
    ),
)
def test_sparse_matches_dense_reference_over_a_large_vocabulary(
    n_words, picks, order, lam, eps, raw_prefixes
):
    words = MANY_WORDS[:n_words]
    picked = [words[i % n_words] for i in picks]
    lm = train_model([" ".join(words), " ".join(picked)], order=order, lam=lam, eps=eps)
    size = len(lm.vocabulary)
    prefixes = [tuple(1 + t % (size - 1) for t in raw) for raw in raw_prefixes]
    half = len(picked) // 2 + 1
    assert_matches_reference(lm, prefixes, [" ".join(picked[:half]), "qq " + words[-1]])


def test_every_id_explicit_with_a_positive_tail():
    """UNK in the cache fills the last implicit id of a tiny vocabulary.

    The tail is then positive but belongs to no id, and a full nucleus
    must return the distribution unchanged rather than renormalize it.
    """
    lm = train_model(["a a c d", "c a d", "a b c"], order=1, lam=0.3, eps=0.1)
    texts = ["b d", "a qq a b"]
    prefix = (5, 3)
    sparse = lm.next_dist(prefix, lm.condition(texts))
    assert sparse.tail > 0.0
    assert len(sparse.entries) == len(lm.vocabulary) - 1
    assert not sparse.implicit
    assert_matches_reference(lm, [prefix], texts)
