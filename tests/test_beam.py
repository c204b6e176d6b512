import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosum.decoding import DecodeConfig, beam_decode
from cosum.dists import TokenDist
from cosum.vocab import EOS_ID, UNK_ID


def make_toy_step_fn(rng, vocab_ids, max_len):
    """Fixed random next-token tables for every reachable prefix."""
    tables = {}

    def table_for(prefix):
        if prefix not in tables:
            weights = {t: rng.uniform(0.05, 1.0) for t in vocab_ids}
            tables[prefix] = TokenDist.from_weights(weights)
        return tables[prefix]

    def fill(prefix):
        if len(prefix) >= max_len:
            return
        for t in table_for(prefix).entries:
            if t != EOS_ID:
                fill(prefix + (t,))

    fill(())
    return lambda prefix: tables[prefix]


def exhaustive_best(step_fn, cfg, max_len):
    """Enumerate every sequence under the same masking and scoring."""
    alpha = cfg.length_penalty
    outcomes = []

    def norm(tokens, logscore):
        return logscore / len(tokens) ** alpha

    def walk(prefix, logscore):
        if prefix and prefix[-1] == EOS_ID:
            outcomes.append((prefix, logscore, True))
            return
        if len(prefix) == max_len:
            outcomes.append((prefix, logscore, False))
            return
        dist = step_fn(prefix)
        if len(prefix) < cfg.min_len:
            dist = dist.without(EOS_ID)
        for t, p in dist.entries.items():
            walk(prefix + (t,), logscore + math.log(p))

    walk((), 0.0)
    finished = [o for o in outcomes if o[2]]
    pool = finished or outcomes
    best = min(pool, key=lambda o: (-norm(o[0], o[1]), o[0]))
    return best[0]


def count_sequences(vocab_size, max_len):
    # Every prefix branches over the full table; loose upper bound.
    return sum(vocab_size**k for k in range(1, max_len + 1))


def test_oracle_equivalence_on_random_toy_lms():
    # One test id over the grid; each setting replays the same 25 toy LMs.
    for alpha, min_len in itertools.product((0.0, 0.5, 1.0, 2.0), (1, 2)):
        rng = random.Random(42)
        for trial in range(25):
            vocab_size = rng.randint(2, 5)
            vocab_ids = [EOS_ID] + list(range(3, 2 + vocab_size))
            max_len = rng.randint(2, 4)
            step_fn = make_toy_step_fn(rng, vocab_ids, max_len)
            cfg = DecodeConfig(
                beam_width=count_sequences(len(vocab_ids), max_len),
                min_len=min_len,
                max_len_contrastive=max_len,
                max_len_common=max_len,
                length_penalty=alpha,
            )
            assert beam_decode(step_fn, cfg, max_len) == exhaustive_best(
                step_fn, cfg, max_len
            ), (alpha, min_len, trial)


def test_beam_width_one_is_greedy():
    rng = random.Random(5)
    vocab_ids = [EOS_ID, 3, 4, 5]
    step_fn = make_toy_step_fn(rng, vocab_ids, 4)
    cfg = DecodeConfig(beam_width=1, min_len=1, max_len_contrastive=4, max_len_common=4)
    tokens = beam_decode(step_fn, cfg, 4)
    prefix = ()
    greedy = []
    while len(greedy) < 4:
        dist = step_fn(tuple(greedy))
        if len(greedy) < cfg.min_len:
            dist = dist.without(EOS_ID)
        best = min(dist.entries.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        greedy.append(best)
        if best == EOS_ID:
            break
    assert tokens == tuple(greedy)


def test_min_len_masks_eos():
    # EOS overwhelmingly likely, but min_len forbids it for 2 steps.
    dist = TokenDist({EOS_ID: 0.9, 3: 0.1})
    cfg = DecodeConfig(beam_width=2, min_len=2, max_len_contrastive=5, max_len_common=5)
    tokens = beam_decode(lambda prefix: dist, cfg, 5)
    non_eos = [t for t in tokens if t != EOS_ID]
    assert len(non_eos) >= 2
    assert tokens[-1] == EOS_ID


def test_unfinished_hypothesis_returned_at_max_len():
    dist = TokenDist({3: 0.6, 4: 0.4})
    cfg = DecodeConfig(beam_width=2, min_len=1, max_len_contrastive=3, max_len_common=3)
    tokens = beam_decode(lambda prefix: dist, cfg, 3)
    assert len(tokens) == 3
    assert EOS_ID not in tokens


def test_empty_step_distribution_raises():
    cfg = DecodeConfig(min_len=1, max_len_contrastive=3, max_len_common=3)
    with pytest.raises(ValueError, match="empty step distribution"):
        beam_decode(lambda prefix: TokenDist({}), cfg, 3)


def test_eos_only_distribution_before_min_len_raises():
    dist = TokenDist({EOS_ID: 1.0})
    cfg = DecodeConfig(min_len=2, max_len_contrastive=5, max_len_common=5)
    with pytest.raises(ValueError, match="empty step distribution"):
        beam_decode(lambda prefix: dist, cfg, 5)


def test_step_emptied_by_masking_comes_from_the_fallback():
    # Before min_len the nucleus {EOS: 1} masks to nothing; the fallback's
    # step is masked too, so its <unk> goes.
    eos_only, unk_only = TokenDist({EOS_ID: 1.0}), TokenDist({UNK_ID: 1.0})
    fallback = TokenDist({UNK_ID: 0.5, 3: 0.5})
    cfg = DecodeConfig(min_len=2, max_len_contrastive=5, max_len_common=5)
    assert beam_decode(lambda p: eos_only, cfg, 5, lambda p: fallback) == (3, 3, EOS_ID)
    with pytest.raises(ValueError, match="empty step distribution"):
        beam_decode(lambda p: eos_only, cfg, 5, lambda p: unk_only)


def test_deterministic():
    rng = random.Random(9)
    vocab_ids = [EOS_ID, 3, 4]
    step_fn = make_toy_step_fn(rng, vocab_ids, 3)
    cfg = DecodeConfig(beam_width=4, min_len=1, max_len_contrastive=3, max_len_common=3)
    assert beam_decode(step_fn, cfg, 3) == beam_decode(step_fn, cfg, 3)


@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=4))
def test_entry_order_does_not_change_the_result(rnd, width):
    # Weights of 1 or 2 make many hypotheses tie on score; rank breaks
    # those ties by tokens, so the order a step lists its entries in
    # cannot reach the result.
    tables = {}

    def ascending(prefix):
        if prefix not in tables:
            weights = {t: rnd.choice((1.0, 2.0)) for t in (EOS_ID, 3, 4, 5)}
            tables[prefix] = TokenDist.from_weights(weights)
        return tables[prefix]

    def shuffled(prefix):
        items = list(ascending(prefix).entries.items())
        rnd.shuffle(items)
        return TokenDist(dict(items))

    cfg = DecodeConfig(beam_width=width, min_len=1, max_len_contrastive=4, max_len_common=4)
    assert beam_decode(shuffled, cfg, 4) == beam_decode(ascending, cfg, 4)
