"""Background n-gram model and the cache-interpolated conditional LM.

The conditional model stands in for a fine-tuned summarizer: a fixed
background n-gram model interpolated with a cache model estimated on the
fly from the conditioning reviews, so next-token probabilities genuinely
depend on which entity's reviews condition the step.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Protocol, Sequence, Tuple, Union

from .data import EntityReviewSet
from .dists import TokenDist
from .vocab import BOS_ID, EOS_ID, Vocabulary

Prefix = Tuple[int, ...]
Condition = Union[EntityReviewSet, Tuple[EntityReviewSet, EntityReviewSet]]


class ConditionalLM(Protocol):
    """Deterministic (prefix, conditioning reviews) -> normalized TokenDist.

    A two-set condition is order-invariant: ``next_dist(p, (a, b))`` and
    ``next_dist(p, (b, a))`` return equal entries.
    """

    vocabulary: Vocabulary

    def next_dist(self, prefix: Sequence[int], condition: Condition) -> TokenDist:
        ...


class NGramLM:
    """Add-epsilon smoothed n-gram model over a fixed vocabulary.

    Sequences are padded with order-1 BOS and one EOS during training.
    Predictions range over every vocabulary token except BOS, so any
    context (seen or not) yields a full, normalized distribution.
    """

    def __init__(self, order: int, vocabulary: Vocabulary, eps: float) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if eps <= 0:
            raise ValueError("smoothing mass must be > 0")
        self.order = order
        self.vocabulary = vocabulary
        self.eps = eps
        self.counts: Dict[Prefix, Counter] = {}

    def observe(self, sequence: Sequence[int]) -> None:
        padded = (BOS_ID,) * (self.order - 1) + tuple(sequence) + (EOS_ID,)
        ctx_len = self.order - 1
        for i in range(ctx_len, len(padded)):
            ctx = padded[i - ctx_len : i]
            self.counts.setdefault(ctx, Counter())[padded[i]] += 1

    def _context_of(self, prefix: Sequence[int]) -> Prefix:
        ctx_len = self.order - 1
        if ctx_len == 0:
            return ()
        padded = (BOS_ID,) * ctx_len + tuple(prefix)
        return padded[-ctx_len:]

    def next_dist(self, prefix: Sequence[int]) -> TokenDist:
        ctx_counts = self.counts.get(self._context_of(prefix), Counter())
        support = self.vocabulary.prediction_ids()
        denom = sum(ctx_counts.values()) + self.eps * len(support)
        return TokenDist(
            {t: (ctx_counts.get(t, 0) + self.eps) / denom for t in support}
        )


def train_ngram(
    corpus: Sequence[Sequence[int]], order: int, eps: float, vocabulary: Vocabulary
) -> NGramLM:
    """Count n-grams over token-id sequences with BOS/EOS padding."""
    if not corpus:
        raise ValueError("empty training corpus")
    lm = NGramLM(order=order, vocabulary=vocabulary, eps=eps)
    for seq in corpus:
        lm.observe(seq)
    return lm


class _CacheModel:
    """Maximum-likelihood n-gram counts over the conditioning reviews.

    Unsmoothed, with backoff to shorter contexts, so the support never
    leaves the conditioning text (plus EOS).
    """

    def __init__(self, sequences: Sequence[Sequence[int]], order: int) -> None:
        self.order = order
        # counts[k] maps length-(k-1) contexts to next-token counters.
        self.counts: List[Dict[Prefix, Counter]] = [
            {} for _ in range(order + 1)
        ]
        for seq in sequences:
            padded = (BOS_ID,) * (order - 1) + tuple(seq) + (EOS_ID,)
            start = order - 1
            for i in range(start, len(padded)):
                for k in range(1, order + 1):
                    ctx = padded[i - k + 1 : i]
                    self.counts[k].setdefault(ctx, Counter())[padded[i]] += 1

    def next_dist(self, prefix: Sequence[int]) -> TokenDist:
        padded = (BOS_ID,) * (self.order - 1) + tuple(prefix)
        for k in range(self.order, 0, -1):
            ctx = padded[len(padded) - k + 1 :] if k > 1 else ()
            ctx_counts = self.counts[k].get(tuple(ctx))
            if ctx_counts:
                total = sum(ctx_counts.values())
                return TokenDist(
                    {t: c / total for t, c in ctx_counts.items()}
                )
        raise RuntimeError("cache model has no unigram counts")


class CacheInterpolatedLM:
    """lambda * cache(prefix | reviews) + (1 - lambda) * background(prefix).

    Two-set conditioning pools the cache counts of both review sets, so
    the result is invariant to the order the sets are given in.
    """

    def __init__(
        self, background: NGramLM, cache_order: int, lam: float
    ) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("interpolation weight must be in [0, 1]")
        if cache_order < 1:
            raise ValueError("cache order must be >= 1")
        self.background = background
        self.cache_order = cache_order
        self.lam = lam
        self._cache_memo: Dict[Tuple[str, ...], _CacheModel] = {}

    @property
    def vocabulary(self) -> Vocabulary:
        return self.background.vocabulary

    def _condition_texts(self, condition: Condition) -> Tuple[str, ...]:
        if isinstance(condition, EntityReviewSet):
            sets = [condition]
        else:
            sets = list(condition)
        texts: List[str] = []
        for review_set in sets:
            if not review_set.reviews:
                raise ValueError("empty conditioning set")
            texts.extend(review_set.texts)
        if not texts:
            raise ValueError("empty conditioning set")
        # Sorted key makes pooled conditioning order-independent.
        return tuple(sorted(texts))

    def _cache_for(self, condition: Condition) -> _CacheModel:
        key = self._condition_texts(condition)
        cache = self._cache_memo.get(key)
        if cache is None:
            sequences = [
                self.vocabulary.encode(text, extend=False) for text in key
            ]
            cache = _CacheModel(sequences, self.cache_order)
            self._cache_memo[key] = cache
        return cache

    def next_dist(self, prefix: Sequence[int], condition: Condition) -> TokenDist:
        background = self.background.next_dist(prefix)
        if self.lam == 0.0:
            return background
        cache = self._cache_for(condition).next_dist(prefix)
        lam = self.lam
        combined = {
            t: lam * cache.get(t) + (1.0 - lam) * p
            for t, p in background.entries.items()
        }
        return TokenDist.from_weights(combined)


def train_model(
    texts: Sequence[str], order: int, lam: float, eps: float
) -> CacheInterpolatedLM:
    """Fit the background n-gram LM on texts; the cache model shares its order."""
    vocabulary = Vocabulary()
    sequences = [vocabulary.encode(text, extend=True) for text in texts]
    background = train_ngram(sequences, order, eps, vocabulary)
    return CacheInterpolatedLM(background, cache_order=order, lam=lam)


MODEL_FORMAT_VERSION = 1


def save_model(lm: CacheInterpolatedLM, path: str) -> None:
    """Serialize to a canonical JSON container (bit-exact round trip)."""
    counts = sorted(
        (list(ctx), sorted((t, c) for t, c in counter.items()))
        for ctx, counter in lm.background.counts.items()
    )
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "vocabulary": list(lm.vocabulary.tokens[3:]),
        "order": lm.background.order,
        "eps": lm.background.eps,
        "lambda": lm.lam,
        "cache_order": lm.cache_order,
        "counts": counts,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path: str) -> CacheInterpolatedLM:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version!r}")
    for key in ("vocabulary", "order", "eps", "lambda", "cache_order", "counts"):
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
    vocabulary = Vocabulary(payload["vocabulary"])
    background = NGramLM(
        order=payload["order"], vocabulary=vocabulary, eps=payload["eps"]
    )
    for ctx, items in payload["counts"]:
        background.counts[tuple(ctx)] = Counter({t: c for t, c in items})
    return CacheInterpolatedLM(
        background=background,
        cache_order=payload["cache_order"],
        lam=payload["lambda"],
    )
