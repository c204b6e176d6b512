import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosum.decoding import (
    aggregate_common,
    aggregate_common_poe,
    aggregate_contrastive,
    aggregate_contrastive_moe,
    aggregate_contrastive_vs_common,
    symmetric_common_dist,
)
from cosum.dists import TokenDist, top_p_truncate

FLOOR = 1e-12


def dist(entries):
    return TokenDist(dict(entries))


def random_dist(rng, support):
    weights = {t: rng.uniform(0.05, 1.0) for t in support}
    return TokenDist.from_weights(weights)


class TestContrastive:
    def test_identical_inputs_are_fixed_point(self):
        d = dist({1: 0.6, 2: 0.4})
        out = aggregate_contrastive(d, d, delta=1.0, top_p=1.0, ratio_floor=FLOOR)
        assert out.get(1) == pytest.approx(0.6)
        assert out.get(2) == pytest.approx(0.4)

    def test_delta_zero_is_nucleus_of_target(self):
        target = dist({1: 0.5, 2: 0.3, 3: 0.15, 4: 0.05})
        counter = dist({1: 0.9, 2: 0.1})
        out = aggregate_contrastive(target, counter, 0.0, 0.9, FLOOR)
        assert out.entries == top_p_truncate(target, 0.9).entries

    def test_hand_example(self):
        target = dist({1: 0.5, 2: 0.5})
        counter = dist({1: 0.8, 2: 0.2})
        out = aggregate_contrastive(target, counter, 1.0, 1.0, FLOOR)
        # scores: 0.5 * 0.625 = 0.3125 and 0.5 * 2.5 = 1.25
        assert out.get(1) == pytest.approx(0.2)
        assert out.get(2) == pytest.approx(0.8)

    def test_counter_outside_nucleus_uses_raw_value(self):
        target = dist({1: 0.5, 2: 0.5})
        counter = dist({1: 0.95, 2: 0.05})
        out = aggregate_contrastive(target, counter, 1.0, 0.9, FLOOR)
        # counter nucleus at 0.9 is {1}; token 2 falls back to raw 0.05.
        expected = {1: 0.5 * (0.5 / (0.95 / 0.95)), 2: 0.5 * (0.5 / 0.05)}
        total = sum(expected.values())
        assert out.get(2) == pytest.approx(expected[2] / total)

    def test_absent_counter_token_floored(self):
        target = dist({1: 0.5, 2: 0.5})
        counter = dist({1: 1.0})
        out = aggregate_contrastive(target, counter, 1.0, 1.0, FLOOR)
        assert out.get(2) > 0.999999


class TestContrastiveMoe:
    def test_delta_zero_is_nucleus_of_target(self):
        target = dist({1: 0.7, 2: 0.3})
        counter = dist({1: 0.5, 2: 0.5})
        out = aggregate_contrastive_moe(target, counter, 0.0, 0.9, FLOOR)
        assert out.entries == top_p_truncate(target, 0.9).entries

    def test_identical_inputs_near_uniform(self):
        d = dist({1: 0.6, 2: 0.4})
        out = aggregate_contrastive_moe(d, d, 1.0, 1.0, FLOOR)
        # score(t) = p + 1, so masses are (1.6, 1.4) / 3.
        assert out.get(1) == pytest.approx(1.6 / 3.0)
        assert out.get(2) == pytest.approx(1.4 / 3.0)

    def test_distribution_collapse_on_tiny_counter(self):
        target = dist({1: 0.5, 2: 0.5})
        counter = dist({1: 1.0 - FLOOR, 2: FLOOR})
        out = aggregate_contrastive_moe(target, counter, 1.0, 1.0, FLOOR)
        assert out.get(2) > 0.99


class TestContrastiveVsCommon:
    def test_delta_zero_is_nucleus_of_target(self):
        target = dist({1: 0.6, 2: 0.4})
        out = aggregate_contrastive_vs_common(target, dist({1: 1.0}), 0.0, 1.0, FLOOR)
        assert out.entries == target.entries

    def test_equal_common_reduces_to_target(self):
        d = dist({1: 0.6, 2: 0.4})
        out = aggregate_contrastive_vs_common(d, d, 1.0, 1.0, FLOOR)
        assert out.get(1) == pytest.approx(0.6)
        assert out.get(2) == pytest.approx(0.4)

    def test_hand_example(self):
        target = dist({1: 0.5, 2: 0.5})
        comm = dist({1: 0.8, 2: 0.2})
        out = aggregate_contrastive_vs_common(target, comm, 1.0, 1.0, FLOOR)
        assert out.get(1) == pytest.approx(0.2)
        assert out.get(2) == pytest.approx(0.8)


class TestCommon:
    def test_gamma_zero_is_nucleus_of_comm(self):
        comm = dist({1: 0.5, 2: 0.3, 3: 0.2})
        out = aggregate_common(comm, dist({9: 1.0}), dist({8: 1.0}), 0.0, 0.8)
        assert out.entries == top_p_truncate(comm, 0.8).entries

    def test_hand_example_disjoint_experts(self):
        comm = dist({1: 0.5, 2: 0.5})
        out = aggregate_common(comm, dist({1: 1.0}), dist({2: 1.0}), 1.0, 1.0)
        assert out.get(1) == pytest.approx(0.5)
        assert out.get(2) == pytest.approx(0.5)

    def test_hand_example_uniform_experts(self):
        comm = dist({1: 0.8, 2: 0.2})
        expert = dist({1: 0.5, 2: 0.5})
        out = aggregate_common(comm, expert, expert, 0.5, 1.0)
        assert out.get(1) == pytest.approx(0.65)
        assert out.get(2) == pytest.approx(0.35)

    def test_symmetric_in_experts(self):
        rng = random.Random(3)
        for _ in range(25):
            comm = random_dist(rng, range(1, 6))
            a = random_dist(rng, range(1, 6))
            b = random_dist(rng, range(1, 6))
            ab = aggregate_common(comm, a, b, 0.7, 0.9)
            ba = aggregate_common(comm, b, a, 0.7, 0.9)
            assert ab.entries == ba.entries

    def test_union_candidate_set(self):
        comm = dist({1: 1.0})
        out = aggregate_common(comm, dist({2: 1.0}), dist({3: 1.0}), 1.0, 1.0)
        assert set(out.support) == {1, 2, 3}


class TestCommonPoe:
    def test_gamma_zero_is_nucleus_of_comm(self):
        comm = dist({1: 0.6, 2: 0.4})
        out = aggregate_common_poe(comm, dist({9: 1.0}), dist({9: 1.0}), 0.0, 1.0, FLOOR)
        assert out.entries == comm.entries

    def test_uniform_experts_proportional_to_comm(self):
        comm = dist({1: 0.7, 2: 0.3})
        expert = dist({1: 0.5, 2: 0.5})
        out = aggregate_common_poe(comm, expert, expert, 1.0, 1.0, FLOOR)
        assert out.get(1) == pytest.approx(0.7)
        assert out.get(2) == pytest.approx(0.3)

    def test_hand_product(self):
        comm = dist({1: 0.5, 2: 0.5})
        expert = dist({1: 0.9, 2: 0.1})
        out = aggregate_common_poe(comm, expert, expert, 1.0, 1.0, FLOOR)
        assert out.get(1) == pytest.approx(0.81 / 0.82)
        assert out.get(2) == pytest.approx(0.01 / 0.82)


class TestLogOddsSlope:
    def test_slope_matches_closed_form(self):
        rng = random.Random(11)
        deltas = [0.0, 0.5, 1.0, 2.0]
        for _ in range(50):
            support = range(1, rng.randint(3, 7))
            target = random_dist(rng, support)
            counter = random_dist(rng, support)
            tokens = sorted(target.support)
            u, v = rng.sample(tokens, 2)
            log_odds = []
            for delta in deltas:
                out = aggregate_contrastive(target, counter, delta, 1.0, FLOOR)
                log_odds.append(math.log(out.get(u)) - math.log(out.get(v)))
            ratio_u = target.get(u) / counter.get(u)
            ratio_v = target.get(v) / counter.get(v)
            expected_slope = math.log(ratio_u / ratio_v)
            for i in range(len(deltas) - 1):
                slope = (log_odds[i + 1] - log_odds[i]) / (deltas[i + 1] - deltas[i])
                assert slope == pytest.approx(expected_slope, abs=1e-9)


class TestSymmetricCommonDist:
    @given(data=st.data())
    def test_two_set_condition_is_order_invariant(
        self, data, trained_lm, corpus_by_entity
    ):
        entity_ids = sorted(corpus_by_entity)
        ra = corpus_by_entity[data.draw(st.sampled_from(entity_ids))]
        rb = corpus_by_entity[data.draw(st.sampled_from(entity_ids))]
        token_ids = st.integers(min_value=1, max_value=len(trained_lm.vocabulary) - 1)
        prefix = tuple(data.draw(st.lists(token_ids, max_size=5)))
        ab = trained_lm.next_dist(prefix, (ra, rb))
        assert ab.entries == trained_lm.next_dist(prefix, (rb, ra)).entries
        assert symmetric_common_dist(trained_lm, prefix, ra, rb).entries == ab.entries

    def test_order_insensitive_backend_unchanged(self, trained_lm, corpus_by_entity):
        ra = corpus_by_entity["harbor_hotel"]
        rb = corpus_by_entity["garden_inn"]
        merged = symmetric_common_dist(trained_lm, (), ra, rb)
        direct = trained_lm.next_dist((), (ra, rb))
        for t in direct.support:
            assert merged.get(t) == pytest.approx(direct.get(t), abs=1e-12)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=2,
        max_size=8,
    ),
    st.dictionaries(
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=2,
        max_size=8,
    ),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.3, max_value=1.0),
)
def test_contrastive_output_normalized_within_candidates(wt, wc, delta, top_p):
    target = TokenDist.from_weights(wt)
    counter = TokenDist.from_weights(wc)
    out = aggregate_contrastive(target, counter, delta, top_p, FLOOR)
    assert out.is_normalized()
    assert set(out.support) <= set(top_p_truncate(target, top_p).support)
