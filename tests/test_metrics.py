from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosum.metrics import (
    distinctiveness,
    intra_pair_score,
    ngrams,
    novel_ngram_rate,
    rouge_l,
    rouge_multi,
    rouge_n,
)


def brute_force_ds(bag_a, bag_b, bag_c):
    """Independent recomputation via element expansion: each bag becomes a
    set of (token, occurrence-index) pairs, so plain set algebra realizes
    min-multiplicity intersections and max-multiplicity unions."""

    def expand(bag):
        return {(t, i) for t, c in bag.items() for i in range(c)}

    ea, eb, ec = expand(bag_a), expand(bag_b), expand(bag_c)
    pairwise = len(ea & eb) + len(ea & ec) + len(eb & ec)
    triple = len(ea & eb & ec)
    union = len(ea | eb | ec)
    return 1.0 - (pairwise - 2 * triple) / union


class TestDistinctiveness:
    def test_disjoint_bags_give_one(self):
        assert distinctiveness(
            Counter("ab"), Counter("cd"), Counter("ef")
        ) == 1.0

    def test_identical_bags_give_zero(self):
        bag = Counter({"x": 1, "y": 1, "z": 1})
        assert distinctiveness(bag, bag, bag) == 0.0

    def test_hand_example(self):
        w1 = Counter({"a": 1, "b": 1})
        w2 = Counter({"b": 1, "c": 1})
        w3 = Counter({"d": 1})
        assert distinctiveness(w1, w2, w3) == pytest.approx(0.75)

    def test_multiset_counts_matter(self):
        a = Counter({"x": 2})
        b = Counter({"x": 1})
        c = Counter({"y": 1})
        # pairwise = 1, triple = 0, union = |{x,x,y}| = 3
        assert distinctiveness(a, b, c) == pytest.approx(1.0 - 1.0 / 3.0)

    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError, match="empty summary"):
            distinctiveness(Counter(), Counter("a"), Counter("b"))

    @given(
        st.tuples(
            *(
                st.dictionaries(
                    st.sampled_from("abcdef"),
                    st.integers(min_value=1, max_value=4),
                    min_size=1,
                    max_size=5,
                )
                for _ in range(3)
            )
        )
    )
    def test_fuzz_against_brute_force_and_range(self, bags):
        counters = [Counter(b) for b in bags]
        ds = distinctiveness(*counters)
        assert ds == pytest.approx(brute_force_ds(*counters), abs=1e-12)
        assert 0.0 <= ds <= 1.0 + 1e-12


class TestRougeN:
    def test_unigram_hand_count(self):
        s = rouge_n("the cat sat".split(), "the cat".split(), 1)
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(1.0)
        assert s.f1 == pytest.approx(0.8)

    def test_identity(self):
        s = rouge_n("a b c".split(), "a b c".split(), 2)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_bigram_hand_count(self):
        s = rouge_n("the cat sat".split(), "the cat".split(), 2)
        assert s.precision == pytest.approx(0.5)
        assert s.recall == pytest.approx(1.0)
        assert s.f1 == pytest.approx(2 / 3)

    def test_clipping(self):
        s = rouge_n("a a a".split(), "a b".split(), 1)
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(0.5)

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            ngrams("a b".split(), 0)

    def test_n_larger_than_inputs_gives_zeros(self):
        s = rouge_n("a b".split(), "a".split(), 3)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    @given(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=10),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=3),
    )
    def test_swap_symmetry(self, cand, ref, n):
        fwd = rouge_n(cand, ref, n)
        rev = rouge_n(ref, cand, n)
        assert fwd.precision == rev.recall
        assert fwd.recall == rev.precision
        assert fwd.f1 == pytest.approx(rev.f1, abs=1e-12)


class TestRougeL:
    def test_hand_lcs(self):
        s = rouge_l("a b c d".split(), "a c d".split())
        assert s.precision == pytest.approx(0.75)
        assert s.recall == pytest.approx(1.0)
        assert s.f1 == pytest.approx(2 * 0.75 / 1.75)

    def test_disjoint_zero(self):
        s = rouge_l("a b".split(), "c d".split())
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_identity_one(self):
        s = rouge_l("x y z".split(), "x y z".split())
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
    )
    def test_swap_symmetry(self, cand, ref):
        fwd = rouge_l(cand, ref)
        rev = rouge_l(ref, cand)
        assert fwd.precision == rev.recall
        assert fwd.recall == rev.precision


class TestRougeMulti:
    def test_single_reference_matches_plain(self):
        cand = "the cat sat".split()
        ref = "the cat".split()
        assert rouge_multi(cand, [ref], 1) == rouge_n(cand, ref, 1)
        assert rouge_multi(cand, [ref], None) == rouge_l(cand, ref)

    def test_identical_references_all_ones(self):
        cand = "a b c".split()
        s = rouge_multi(cand, [cand, list(cand)], 1)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_mean_of_two_references(self):
        cand = "a b".split()
        r1 = "a b".split()       # f1 = 1.0
        r2 = "a c c c".split()   # p = 0.5, r = 0.25, f1 = 1/3
        s = rouge_multi(cand, [r1, r2], 1)
        assert s.f1 == pytest.approx((1.0 + 1 / 3) / 2)

    def test_empty_reference_list_rejected(self):
        with pytest.raises(ValueError, match="empty reference list"):
            rouge_multi("a".split(), [], 1)


class TestIntraPair:
    def test_identical_summaries(self):
        r1, r2, rl = intra_pair_score("a b c".split(), "a b c".split())
        assert r1.f1 == r2.f1 == rl.f1 == 1.0

    def test_disjoint_summaries(self):
        r1, r2, rl = intra_pair_score("a b".split(), "c d".split())
        assert r1.f1 == r2.f1 == rl.f1 == 0.0

    def test_reuses_rouge_arithmetic(self):
        r1, _, _ = intra_pair_score("the cat sat".split(), "the cat".split())
        assert r1.f1 == pytest.approx(0.8)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            intra_pair_score([], "a".split())


def grams(text, n):
    return set(ngrams(text.split(), n))


class TestNovelNgrams:
    def test_verbatim_summary_zero(self):
        assert novel_ngram_rate(grams("a b c", 2), grams("a b c d", 2)) == 0.0

    def test_disjoint_summary_one(self):
        assert novel_ngram_rate(grams("x y", 1), grams("a b", 1)) == 1.0

    def test_half_novel(self):
        assert novel_ngram_rate(grams("a b", 1), grams("a", 1)) == pytest.approx(0.5)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="summary too short"):
            novel_ngram_rate(grams("a", 2), grams("a b", 2))

