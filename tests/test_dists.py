import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosum.dists import TokenDist, top_p_truncate


def dist_strategy(max_support=8):
    return (
        st.dictionaries(
            st.integers(min_value=1, max_value=30),
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=1,
            max_size=max_support,
        )
        .map(lambda w: TokenDist.from_weights(w))
    )


def sums_to_one(d, tol=1e-9):
    """Entry mass plus the tail's mass over the ids without an entry."""
    tail_mass = d.tail * (d.size - 1 - len(d.entries)) if d.implicit else 0.0
    return abs(sum(d.entries.values()) + tail_mass - 1.0) <= tol


def test_from_weights_drops_zeros_and_normalizes():
    d = TokenDist.from_weights({1: 0.5, 2: 0.0, 3: 1.5})
    assert set(d.entries) == {1, 3}
    assert sums_to_one(d)
    assert d.get(3) == pytest.approx(0.75)


def test_from_weights_normalizes_by_the_exact_sum():
    weights = {1: 1e16, 2: 1.0, 3: 1.0}
    total = math.fsum(weights.values())
    assert total == 1e16 + 2.0 != 1e16 + 1.0 + 1.0
    d = TokenDist.from_weights(weights)
    assert d.entries == {t: w / total for t, w in weights.items()}


def test_from_weights_is_independent_of_insertion_order():
    weights = {1: 0.1, 2: 0.2, 3: 0.3}
    assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
    forward = TokenDist.from_weights(weights)
    backward = TokenDist.from_weights(dict(reversed(weights.items())))
    assert forward == backward
    assert forward.entries == {t: w / 0.6 for t, w in weights.items()}


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.0, max_value=1.0),
        max_size=8,
    ),
    st.floats(min_value=1e-9, max_value=1.0),
    st.integers(min_value=51, max_value=5000),
)
def test_tail_normalizes_like_the_dense_list(weights, tail, size):
    # A zero weight is dropped, so its id takes the tail like an unlisted one.
    dense = {t: weights.get(t) or tail for t in range(1, size)}
    total = math.fsum(dense.values())
    expected = {t: w / total for t, w in dense.items()}
    if 0.0 in expected.values():  # a subnormal weight divided by the total
        with pytest.raises(ValueError, match="underflowed"):
            TokenDist.from_weights(weights, tail, size)
        return
    d = TokenDist.from_weights(weights, tail, size)
    assert d.tail == tail / total and d.size == size
    assert d.dense().entries == expected


@pytest.mark.parametrize(
    "weights, tail, size, message",
    [
        ({1: 5e-324, 2: 2.0}, 0.0, 0, "a probability underflowed to 0.0"),
        ({1: 4.0}, 5e-324, 4, "a probability underflowed to 0.0"),
        ({1: math.inf, 2: 1.0}, 0.0, 0, "a weight overflowed: the total is inf"),
        ({1: 1e308, 2: 1e308}, 0.0, 0, "a weight overflowed: the total is inf"),
    ],
    ids=["entry-underflows", "tail-underflows", "weight-is-inf", "finite-weights-sum-to-inf"],
)
def test_from_weights_keeps_entries_positive_and_finite(weights, tail, size, message):
    with pytest.raises(ValueError) as caught:
        TokenDist.from_weights(weights, tail, size)
    assert str(caught.value) == message


def test_hand_truncation():
    d = TokenDist({1: 0.5, 2: 0.3, 3: 0.15, 4: 0.05})
    out = top_p_truncate(d, 0.9)
    assert set(out.entries) == {1, 2, 3}
    assert out.get(1) == pytest.approx(0.5 / 0.95)
    assert out.get(2) == pytest.approx(0.3 / 0.95)
    assert out.get(3) == pytest.approx(0.15 / 0.95)


def test_full_nucleus_is_identity():
    d = TokenDist({1: 0.6, 2: 0.4})
    assert top_p_truncate(d, 1.0) is d


def test_one_hot_unchanged():
    d = TokenDist({7: 1.0})
    for p in (0.1, 0.5, 1.0):
        assert top_p_truncate(d, p) is d


def test_tie_break_by_ascending_id():
    d = TokenDist({5: 0.25, 2: 0.25, 9: 0.25, 1: 0.25})
    out = top_p_truncate(d, 0.5)
    assert set(out.entries) == {1, 2}


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        top_p_truncate(TokenDist({1: 1.0}), 0.0)
    with pytest.raises(ValueError):
        top_p_truncate(TokenDist({1: 1.0}), 1.5)


@given(dist_strategy(), st.floats(min_value=0.05, max_value=1.0))
def test_truncation_support_subset_and_mass_growth(d, p):
    out = top_p_truncate(d, p)
    assert set(out.entries) <= set(d.entries)
    assert sums_to_one(out)
    for t in out.entries:
        assert out.get(t) >= d.get(t) - 1e-12


@given(dist_strategy())
def test_truncation_idempotent_at_full_p(d):
    once = top_p_truncate(d, 1.0)
    assert top_p_truncate(once, 1.0).entries == once.entries


def test_without_renormalizes():
    d = TokenDist({1: 0.5, 2: 0.5})
    out = d.without(2)
    assert out.entries == {1: 1.0}
    assert d.without(99) is d


def test_tail_ids_read_and_drop_like_entries():
    d = TokenDist({1: 0.5}, tail=0.25, size=4)
    assert d.get(3) == 0.25 and d.get(0) == 0.0 and d.get(4) == 0.0
    assert sums_to_one(d)
    assert d.dense().entries == {1: 0.5, 2: 0.25, 3: 0.25}
    assert d.without(3).entries == pytest.approx({1: 2 / 3, 2: 1 / 3})
