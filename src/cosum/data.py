"""Review corpus ingestion and the synthetic training-pair builder."""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .files import STRING, checked, lines, parse_json
from .metrics import fold_sum
from .vocab import tokenize_text

INPUT_LEN_RANGE = (50, 150)
SUMMARY_RANGES = {"contrastive": (100, 150), "common": (15, 50)}
_REVIEW_FIELDS = {key: STRING for key in ("entity_id", "review_id", "text")}


@dataclass(frozen=True)
class Review:
    entity_id: str
    review_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("review text must be non-empty")

    @functools.cached_property
    def tokens(self) -> Tuple[str, ...]:
        """The text's tokens, on first use; reviews share equal token strings."""
        return tuple(map(sys.intern, tokenize_text(self.text)))


@dataclass
class EntityReviewSet:
    entity_id: str
    reviews: List[Review]

    def __post_init__(self) -> None:
        if not self.reviews:
            raise ValueError(f"entity {self.entity_id!r} has no reviews")
        seen = set()
        for r in self.reviews:
            if r.entity_id != self.entity_id:
                raise ValueError(
                    f"review {r.review_id!r} belongs to {r.entity_id!r}, "
                    f"not {self.entity_id!r}"
                )
            if r.review_id in seen:
                raise ValueError(
                    f"entity {self.entity_id!r} has duplicate review id {r.review_id!r}"
                )
            seen.add(r.review_id)

    @property
    def texts(self) -> List[str]:
        return [r.text for r in self.reviews]


def load_reviews(path: str) -> List[EntityReviewSet]:
    """Load a JSONL review corpus, grouped by entity in input order.

    Each line is an object with string entity_id / review_id / text.
    Malformed lines and duplicate review ids within an entity are errors.
    """
    grouped: Dict[str, List[Review]] = {}
    seen: set = set()
    for where, line in lines(path):
        obj = checked(parse_json(line, where), where, _REVIEW_FIELDS)
        try:
            review = Review(obj["entity_id"], obj["review_id"], obj["text"])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        dup_key = (review.entity_id, review.review_id)
        if dup_key in seen:
            raise ValueError(
                f"{where}: duplicate review id {review.review_id!r} "
                f"for entity {review.entity_id!r}"
            )
        seen.add(dup_key)
        grouped.setdefault(review.entity_id, []).append(review)
    return [EntityReviewSet(eid, revs) for eid, revs in grouped.items()]


class TfidfStats:
    """Corpus document frequencies for TF-IDF cosine similarity."""

    def __init__(self, reviews: Sequence[Review]) -> None:
        self.n_docs = len(reviews)
        self.df: Counter = Counter(chain.from_iterable(set(r.tokens) for r in reviews))
        self.idfs = {term: self.idf(term) for term in self.df}  # all >= 1: never falsy

    @classmethod
    def from_corpus(cls, corpus: Sequence[EntityReviewSet]) -> "TfidfStats":
        return cls([r for es in corpus for r in es.reviews])

    def idf(self, term: str) -> float:
        return math.log((1 + self.n_docs) / (1 + self.df.get(term, 0))) + 1.0

    def vector(self, review: Review) -> Dict[str, float]:
        tf = Counter(review.tokens)
        vec = {t: c * (self.idfs.get(t) or self.idf(t)) for t, c in tf.items()}
        # Each weight is a count >= 1 times an idf >= 1, so only an empty vec has norm 0.
        norm = math.sqrt(fold_sum(map(operator.mul, vec.values(), vec.values())))
        return {term: w / norm for term, w in vec.items()}


def tfidf_similarity(va: Dict[str, float], vb: Dict[str, float]) -> float:
    """Cosine similarity of two reviews' TF-IDF vectors, as `TfidfStats.vector` gives them."""
    # Walks the shorter vector (the first on a tie): order can move the last bit.
    if len(vb) < len(va):
        va, vb = vb, va
    return fold_sum(map(operator.mul, va.values(), map(vb.get, va, repeat(0.0))))


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
    if task not in SUMMARY_RANGES:
        raise ValueError(f"unknown task {task!r}")
    lo_sum, hi_sum = SUMMARY_RANGES[task]
    lo_in, hi_in = INPUT_LEN_RANGE
    stats = TfidfStats.from_corpus(corpus)

    pairs: List[SyntheticPair] = []
    skipped: List[dict] = []
    # Pseudo-summary vectors, kept for the common task's counterpart search.
    summary_vectors: Dict[Review, Dict[str, float]] = {}
    for entity in corpus:
        # The eligible inputs' vectors, in review order; dropped per entity.
        eligible = (c for c in entity.reviews if lo_in <= len(c.tokens) <= hi_in)
        vectors = {c: stats.vector(c) for c in eligible}
        for r in entity.reviews:
            if not lo_sum <= len(r.tokens) <= hi_sum:
                continue
            candidates = [c for c in vectors if c.review_id != r.review_id]
            if len(candidates) < n:
                skipped.append(
                    {
                        "entity_id": entity.entity_id,
                        "review_id": r.review_id,
                        "reason": f"only {len(candidates)} eligible candidates, need {n}",
                    }
                )
                continue
            vr = vectors[r] if r in vectors else stats.vector(r)
            if task == "common":
                summary_vectors[r] = vr
            # The objective is a separable sum, so the best size-n subset
            # is the n individually most similar candidates.
            chosen = sorted(
                ((tfidf_similarity(vr, vectors[c]), c) for c in candidates),
                key=lambda scored: (-scored[0], scored[1].review_id),
            )[:n]
            pairs.append(
                SyntheticPair(
                    task=task,
                    entity_id=entity.entity_id,
                    pseudo_summary=r,
                    inputs=[c for _, c in chosen],
                    similarity_sum=fold_sum(score for score, _ in chosen),
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
            vp = summary_vectors[pair.pseudo_summary]
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
                    -tfidf_similarity(vp, summary_vectors[other.pseudo_summary]),
                    other.entity_id,
                    other.pseudo_summary.review_id,
                ),
            )
            with_counterparts.append(replace(pair, counterpart=counterpart))
        kept = with_counterparts

    return SyntheticBuildResult(pairs=kept, skipped=skipped, k_truncated=len(kept) < k)
