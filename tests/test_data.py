import itertools
import json
import math
import random

import pytest

from cosum.data import (
    EntityReviewSet,
    Review,
    TfidfStats,
    build_synthetic,
    load_reviews,
    tfidf_similarity,
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


WORDS = ["room", "pool", "staff", "beach", "garden", "breakfast", "view", "bar"]


def make_review(entity, rid, rng, length):
    text = " ".join(rng.choices(WORDS, k=length))
    return Review(entity, rid, text)


class TestLoadReviews:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_reviews(str(path)) == []

    def test_grouping_preserves_order(self, tmp_path):
        rows = [
            {"entity_id": e, "review_id": f"{e}-{i}", "text": f"text {i}"}
            for i in range(8)
            for e in ("e1", "e2")
        ]
        path = tmp_path / "reviews.jsonl"
        write_jsonl(str(path), rows)
        sets = load_reviews(str(path))
        assert len(sets) == 2
        assert all(len(es.reviews) == 8 for es in sets)
        assert [r.review_id for r in sets[0].reviews] == [
            f"e1-{i}" for i in range(8)
        ]

    def test_missing_text_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"entity_id": "e", "review_id": "1", "text": "ok"}\n'
            '{"entity_id": "e", "review_id": "2"}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            load_reviews(str(path))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"entity_id": "e", "review_id": "1", "text": "ok"}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            load_reviews(str(path))

    def test_duplicate_review_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(
            str(path),
            [
                {"entity_id": "e", "review_id": "1", "text": "a"},
                {"entity_id": "e", "review_id": "1", "text": "b"},
            ],
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_reviews(str(path))


class TestTfidfSimilarity:
    def test_identical_reviews(self):
        r1 = Review("e", "1", "great pool and staff")
        r2 = Review("e", "2", "great pool and staff")
        stats = TfidfStats([r1, r2])
        assert tfidf_similarity(r1, r2, stats) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_reviews(self):
        r1 = Review("e", "1", "alpha beta")
        r2 = Review("e", "2", "gamma delta")
        stats = TfidfStats([r1, r2])
        assert tfidf_similarity(r1, r2, stats) == 0.0

    def test_hand_computed_three_document_corpus(self):
        r1 = Review("e", "1", "pool pool staff")
        r2 = Review("e", "2", "pool beach")
        r3 = Review("e", "3", "staff beach beach")
        stats = TfidfStats([r1, r2, r3])
        # idf(term) = ln(4 / (1 + df)) + 1; every term has df = 2.
        idf = math.log(4 / 3) + 1
        v1 = {"pool": 2 * idf, "staff": 1 * idf}
        v2 = {"pool": 1 * idf, "beach": 1 * idf}
        n1 = math.sqrt(sum(w * w for w in v1.values()))
        n2 = math.sqrt(sum(w * w for w in v2.values()))
        expected = (v1["pool"] / n1) * (v2["pool"] / n2)
        assert tfidf_similarity(r1, r2, stats) == pytest.approx(expected, abs=1e-9)


def brute_force_top_subset(review, candidates, n, stats):
    best = None
    for subset in itertools.combinations(candidates, n):
        total = sum(tfidf_similarity(review, c, stats) for c in subset)
        key = (-total, tuple(sorted(c.review_id for c in subset)))
        if best is None or key < best[0]:
            best = (key, subset)
    return set(c.review_id for c in best[1]), -best[0][0]


class TestBuildSynthetic:
    def fixture_corpus(self, rng=None, n_entities=2, n_reviews=6):
        rng = rng or random.Random(0)
        corpus = []
        for e in range(n_entities):
            eid = f"e{e}"
            reviews = []
            for i in range(n_reviews):
                # Input candidates need 50..150 tokens; summaries 15..50.
                length = rng.choice([20, 30, 60, 80, 120, 130])
                reviews.append(make_review(eid, f"{eid}-r{i}", rng, length))
            corpus.append(EntityReviewSet(eid, reviews))
        return corpus

    def test_forced_selection_uses_all_other_reviews(self):
        rng = random.Random(1)
        eid = "e0"
        reviews = [make_review(eid, f"r{i}", rng, 120) for i in range(4)]
        corpus = [EntityReviewSet(eid, reviews)]
        result = build_synthetic(corpus, "contrastive", n=3, k=10)
        for pair in result.pairs:
            expected = {
                r.review_id
                for r in reviews
                if r.review_id != pair.pseudo_summary.review_id
            }
            assert {r.review_id for r in pair.inputs} == expected

    def test_greedy_matches_brute_force_subsets(self):
        corpus = self.fixture_corpus(random.Random(2), n_entities=3, n_reviews=8)
        stats = TfidfStats.from_corpus(corpus)
        n = 3
        result = build_synthetic(corpus, "common", n=n, k=100)
        by_id = {
            (p.entity_id, p.pseudo_summary.review_id): p for p in result.pairs
        }
        checked = 0
        for entity in corpus:
            for r in entity.reviews:
                if not 15 <= r.length <= 50:
                    continue
                candidates = [
                    c
                    for c in entity.reviews
                    if c.review_id != r.review_id and 50 <= c.length <= 150
                ]
                if len(candidates) < n:
                    continue
                pair = by_id.get((entity.entity_id, r.review_id))
                if pair is None:
                    continue  # dropped for lack of counterpart
                oracle_ids, oracle_sum = brute_force_top_subset(
                    r, candidates, n, stats
                )
                assert {c.review_id for c in pair.inputs} == oracle_ids
                assert pair.similarity_sum == pytest.approx(oracle_sum, abs=1e-9)
                checked += 1
        assert checked >= 3

    def test_all_reviews_too_long_produce_nothing(self):
        rng = random.Random(3)
        reviews = [make_review("e0", f"r{i}", rng, 200) for i in range(5)]
        corpus = [EntityReviewSet("e0", reviews)]
        result = build_synthetic(corpus, "contrastive", n=2, k=5)
        assert result.pairs == []

    def test_length_windows_enforced(self):
        corpus = self.fixture_corpus(random.Random(4), n_entities=3, n_reviews=8)
        for task, (lo, hi) in (("contrastive", (100, 150)), ("common", (15, 50))):
            result = build_synthetic(corpus, task, n=2, k=50)
            for pair in result.pairs:
                assert lo <= pair.pseudo_summary.length <= hi
                assert all(50 <= r.length <= 150 for r in pair.inputs)
                assert pair.pseudo_summary.review_id not in {
                    r.review_id for r in pair.inputs
                }

    def test_skip_report_for_small_entities(self):
        rng = random.Random(5)
        reviews = [
            make_review("e0", "r0", rng, 120),
            make_review("e0", "r1", rng, 120),
        ]
        corpus = [EntityReviewSet("e0", reviews)]
        result = build_synthetic(corpus, "contrastive", n=3, k=5)
        assert result.pairs == []
        assert len(result.skipped) == 2
        assert "eligible candidates" in result.skipped[0]["reason"]

    def test_k_truncation_flag(self):
        corpus = self.fixture_corpus(random.Random(6))
        result = build_synthetic(corpus, "contrastive", n=2, k=1000)
        assert result.k_truncated

    def test_k_truncated_counts_counterpart_drops(self):
        rng = random.Random(10)
        lengths = [20, 22, 24, 26, 60, 62, 64, 66]
        reviews = [make_review("e0", f"r{i}", rng, n) for i, n in enumerate(lengths)]
        corpus = [EntityReviewSet("e0", reviews)]
        # Four common-task pairs, all of one entity: the top 3 are kept and
        # then dropped for lack of a cross-entity counterpart.
        result = build_synthetic(corpus, "common", n=2, k=3)
        assert result.pairs == []
        assert result.k_truncated

    def test_k_one_keeps_global_max(self):
        corpus = self.fixture_corpus(random.Random(7), n_entities=3, n_reviews=8)
        all_pairs = build_synthetic(corpus, "contrastive", n=2, k=1000).pairs
        top = build_synthetic(corpus, "contrastive", n=2, k=1).pairs
        if all_pairs:
            assert len(top) == 1
            assert top[0].similarity_sum == max(
                p.similarity_sum for p in all_pairs
            )

    def test_ordering_deterministic(self):
        corpus = self.fixture_corpus(random.Random(8), n_entities=3, n_reviews=8)
        first = build_synthetic(corpus, "contrastive", n=2, k=20)
        second = build_synthetic(corpus, "contrastive", n=2, k=20)
        ids = lambda res: [
            (p.entity_id, p.pseudo_summary.review_id) for p in res.pairs
        ]
        assert ids(first) == ids(second)
        sums = [p.similarity_sum for p in first.pairs]
        assert sums == sorted(sums, reverse=True)

    def test_common_counterpart_is_cross_entity(self):
        corpus = self.fixture_corpus(random.Random(9), n_entities=4, n_reviews=8)
        result = build_synthetic(corpus, "common", n=2, k=50)
        assert result.pairs
        for pair in result.pairs:
            assert pair.counterpart is not None
            assert pair.counterpart.entity_id != pair.entity_id
            assert (
                pair.counterpart.pseudo_summary.review_id
                != pair.pseudo_summary.review_id
            )
