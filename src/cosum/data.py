"""Review corpus ingestion and the synthetic training-pair builder."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .vocab import tokenize_text

INPUT_LEN_RANGE = (50, 150)
CONTRASTIVE_SUMMARY_RANGE = (100, 150)
COMMON_SUMMARY_RANGE = (15, 50)


@dataclass(frozen=True)
class Review:
    entity_id: str
    review_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("review text must be non-empty")

    @property
    def length(self) -> int:
        return len(tokenize_text(self.text))


@dataclass
class EntityReviewSet:
    entity_id: str
    reviews: List[Review]

    def __post_init__(self) -> None:
        if not self.reviews:
            raise ValueError(f"entity {self.entity_id!r} has no reviews")
        for r in self.reviews:
            if r.entity_id != self.entity_id:
                raise ValueError(
                    f"review {r.review_id!r} belongs to {r.entity_id!r}, "
                    f"not {self.entity_id!r}"
                )

    @property
    def texts(self) -> List[str]:
        return [r.text for r in self.reviews]


def load_reviews(path: str) -> List[EntityReviewSet]:
    """Load a JSONL review corpus, grouped by entity in input order.

    Each line is an object with entity_id / review_id / text. Malformed
    lines and duplicate review ids within an entity are errors.
    """
    grouped: Dict[str, List[Review]] = {}
    seen: set = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path} line {lineno}: expected a JSON object")
            for key in ("entity_id", "review_id", "text"):
                if key not in obj:
                    raise ValueError(f"{path} line {lineno}: missing field {key!r}")
            if not isinstance(obj["text"], str):
                raise ValueError(f"{path} line {lineno}: 'text' must be a string")
            review = Review(str(obj["entity_id"]), str(obj["review_id"]), obj["text"])
            dup_key = (review.entity_id, review.review_id)
            if dup_key in seen:
                raise ValueError(
                    f"{path} line {lineno}: duplicate review id {review.review_id!r} "
                    f"for entity {review.entity_id!r}"
                )
            seen.add(dup_key)
            grouped.setdefault(review.entity_id, []).append(review)
    return [EntityReviewSet(eid, revs) for eid, revs in grouped.items()]


class TfidfStats:
    """Corpus document frequencies for TF-IDF cosine similarity."""

    def __init__(self, reviews: Sequence[Review]) -> None:
        self.n_docs = len(reviews)
        self.df: Counter = Counter()
        for r in reviews:
            self.df.update(set(tokenize_text(r.text)))

    @classmethod
    def from_corpus(cls, corpus: Sequence[EntityReviewSet]) -> "TfidfStats":
        return cls([r for es in corpus for r in es.reviews])

    def idf(self, term: str) -> float:
        return math.log((1 + self.n_docs) / (1 + self.df.get(term, 0))) + 1.0

    def vector(self, review: Review) -> Dict[str, float]:
        tf = Counter(tokenize_text(review.text))
        vec = {term: count * self.idf(term) for term, count in tf.items()}
        norm = math.sqrt(sum(w * w for w in vec.values()))
        if norm == 0.0:
            return {}
        return {term: w / norm for term, w in vec.items()}


def tfidf_similarity(a: Review, b: Review, stats: TfidfStats) -> float:
    """Cosine similarity of L2-normalized TF-IDF unigram vectors."""
    va = stats.vector(a)
    vb = stats.vector(b)
    if len(vb) < len(va):
        va, vb = vb, va
    return sum(w * vb.get(term, 0.0) for term, w in va.items())


@dataclass
class SyntheticPair:
    """One pseudo review-summary training instance."""

    task: str
    entity_id: str
    pseudo_summary: Review
    inputs: List[Review]
    similarity_sum: float
    counterpart: Optional["SyntheticPair"] = None

    def to_record(self) -> dict:
        return {
            "task": self.task,
            "summary_review_id": self.pseudo_summary.review_id,
            "input_review_ids": [r.review_id for r in self.inputs],
            "counterpart_review_ids": (
                [r.review_id for r in self.counterpart.inputs]
                if self.counterpart is not None
                else None
            ),
            "similarity_sum": self.similarity_sum,
        }


@dataclass
class SyntheticBuildResult:
    """k_truncated: fewer than k pairs remain, counterpart drops included."""

    pairs: List[SyntheticPair]
    skipped: List[dict] = field(default_factory=list)
    k_truncated: bool = False


def _summary_range(task: str) -> Tuple[int, int]:
    if task == "contrastive":
        return CONTRASTIVE_SUMMARY_RANGE
    if task == "common":
        return COMMON_SUMMARY_RANGE
    raise ValueError(f"unknown task {task!r}")


def build_synthetic(
    corpus: Sequence[EntityReviewSet], task: str, n: int, k: int
) -> SyntheticBuildResult:
    """Build pseudo review-summary pairs by nearest-neighbor selection.

    For every review r, the n most similar same-entity reviews with length
    in [50, 150] become its inputs; r is kept as pseudo summary when its
    own length fits the task window. Pairs are ranked by the sum of input
    similarities and the top k survive. The common task additionally
    attaches the most similar cross-entity counterpart from the kept pool.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    lo_sum, hi_sum = _summary_range(task)
    lo_in, hi_in = INPUT_LEN_RANGE
    stats = TfidfStats.from_corpus(corpus)

    pairs: List[SyntheticPair] = []
    skipped: List[dict] = []
    for entity in corpus:
        eligible = [c for c in entity.reviews if lo_in <= c.length <= hi_in]
        for r in entity.reviews:
            if not lo_sum <= r.length <= hi_sum:
                continue
            candidates = [c for c in eligible if c.review_id != r.review_id]
            if len(candidates) < n:
                skipped.append(
                    {
                        "entity_id": entity.entity_id,
                        "review_id": r.review_id,
                        "reason": f"only {len(candidates)} eligible candidates, need {n}",
                    }
                )
                continue
            # The objective is a separable sum, so the best size-n subset
            # is the n individually most similar candidates.
            chosen = sorted(
                ((tfidf_similarity(r, c, stats), c) for c in candidates),
                key=lambda scored: (-scored[0], scored[1].review_id),
            )[:n]
            pairs.append(
                SyntheticPair(
                    task=task,
                    entity_id=entity.entity_id,
                    pseudo_summary=r,
                    inputs=[c for _, c in chosen],
                    similarity_sum=sum(score for score, _ in chosen),
                )
            )

    pairs.sort(
        key=lambda p: (
            -p.similarity_sum,
            p.entity_id,
            p.pseudo_summary.review_id,
        )
    )
    kept = pairs[:k]

    if task == "common":
        with_counterparts: List[SyntheticPair] = []
        for pair in kept:
            candidates = [
                other
                for other in kept
                if other is not pair and other.entity_id != pair.entity_id
            ]
            if not candidates:
                skipped.append(
                    {
                        "entity_id": pair.entity_id,
                        "review_id": pair.pseudo_summary.review_id,
                        "reason": "no cross-entity counterpart in kept pool",
                    }
                )
                continue
            counterpart = min(
                candidates,
                key=lambda other: (
                    -tfidf_similarity(
                        pair.pseudo_summary, other.pseudo_summary, stats
                    ),
                    other.entity_id,
                    other.pseudo_summary.review_id,
                ),
            )
            with_counterparts.append(replace(pair, counterpart=counterpart))
        kept = with_counterparts

    return SyntheticBuildResult(pairs=kept, skipped=skipped, k_truncated=len(kept) < k)
