"""Background n-gram model and the cache-interpolated conditional LM.

The conditional model stands in for a fine-tuned summarizer: a fixed
background n-gram model interpolated with a cache model estimated on the
fly from the conditioning reviews, so next-token probabilities genuinely
depend on which entity's reviews condition the step.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .dists import TokenDist
from .vocab import BOS, BOS_ID, EOS, EOS_ID, UNK, Vocabulary

Prefix = Tuple[int, ...]
Counts = Dict[Prefix, Dict[int, int]]


def _context(prefix: Sequence[int], ctx_len: int) -> Prefix:
    """The last ctx_len tokens of prefix, left-padded with BOS."""
    return ((BOS_ID,) * ctx_len + tuple(prefix))[len(prefix) :]


def count_ngrams(sequences: Iterable[Sequence[int]], order: int) -> Counts:
    """Next-token counts per length-(order-1) context; sequences end with EOS."""
    counts: Counts = {}
    ctx_len = order - 1
    for seq in sequences:
        padded = (*_context((), ctx_len), *seq, EOS_ID)
        for i in range(ctx_len, len(padded)):
            counts.setdefault(padded[i - ctx_len : i], Counter())[padded[i]] += 1
    return counts


class NGramLM:
    """Add-epsilon smoothed n-gram model over a fixed vocabulary.

    Sequences are padded with order-1 BOS and one EOS during training.
    Predictions range over every vocabulary token except BOS, so any
    context (seen or not) yields a full, normalized distribution: the
    seen tokens as entries, every other one as the smoothing tail.
    """

    def __init__(self, order: int, vocabulary: Vocabulary, eps: float) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < eps < math.inf:
            raise ValueError("smoothing mass must be finite and > 0")
        self.order = order
        self.vocabulary = vocabulary
        self.eps = eps
        self.counts: Counts = {}

    def next_dist(self, prefix: Sequence[int]) -> TokenDist:
        ctx_counts = self.counts.get(_context(prefix, self.order - 1), {})
        ids = range(BOS_ID + 1, len(self.vocabulary))
        denom = sum(ctx_counts.values()) + self.eps * len(ids)
        entries = {t: (c + self.eps) / denom for t, c in ctx_counts.items()}
        return TokenDist(entries, self.eps / denom, len(self.vocabulary))


def train_ngram(
    corpus: Sequence[Sequence[int]], order: int, eps: float, vocabulary: Vocabulary
) -> NGramLM:
    """Count n-grams over token-id sequences with BOS/EOS padding."""
    if not corpus:
        raise ValueError("empty training corpus")
    lm = NGramLM(order=order, vocabulary=vocabulary, eps=eps)
    lm.counts = count_ngrams(corpus, order)
    return lm


class CacheModel:
    """Maximum-likelihood n-gram counts over the conditioning reviews.

    Unsmoothed, with backoff to shorter contexts, so the support never
    leaves the conditioning text (plus EOS). The counts are integers
    pooled over all sequences, so their order does not matter:
    ``lm.condition(a + b)`` and ``lm.condition(b + a)`` give bit-identical
    distributions. The texts are encoded and counted on first use, so a
    condition that is never read costs nothing.

    A condition belongs to the LM that built it: ``memo`` keeps that LM's
    interpolated distributions by context for as long as the condition
    lives, which is one pair.
    """

    def __init__(self, texts: Sequence[str], vocabulary: Vocabulary, order: int) -> None:
        if not texts:
            raise ValueError("empty conditioning set")
        self.texts = tuple(texts)
        self.vocabulary = vocabulary
        self.order = order
        self.memo: Dict[Prefix, TokenDist] = {}

    @functools.cached_property
    def counts(self) -> Dict[int, Counts]:
        """counts[k] maps length-(k-1) contexts to next-token counters."""
        sequences = [self.vocabulary.encode(text) for text in self.texts]
        return {k: count_ngrams(sequences, k) for k in range(1, self.order + 1)}

    def next_dist(self, prefix: Sequence[int]) -> TokenDist:
        ctx = _context(prefix, self.order - 1)
        for k in range(self.order, 0, -1):
            ctx_counts = self.counts[k].get(ctx[self.order - k :])
            if ctx_counts:
                total = sum(ctx_counts.values())
                return TokenDist(
                    {t: c / total for t, c in ctx_counts.items()}
                )
        raise RuntimeError("cache model has no unigram counts")


class CacheInterpolatedLM:
    """lambda * cache(prefix | reviews) + (1 - lambda) * background(prefix).

    ``condition(texts)`` builds the cache model once; ``next_dist`` takes
    it for every step conditioned on those texts and memoises its answers
    there, keyed by the longest context either model reads.
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

    @property
    def vocabulary(self) -> Vocabulary:
        return self.background.vocabulary

    def condition(self, texts: Sequence[str]) -> CacheModel:
        """The cache model over texts (unknown words map to UNK)."""
        return CacheModel(texts, self.vocabulary, self.cache_order)

    def next_dist(self, prefix: Sequence[int], condition: CacheModel) -> TokenDist:
        key = _context(prefix, max(self.background.order, self.cache_order) - 1)
        dist = condition.memo.get(key)
        if dist is None:
            dist = condition.memo[key] = self._interpolate(key, condition)
        return dist

    def _interpolate(self, prefix: Prefix, condition: CacheModel) -> TokenDist:
        background = self.background.next_dist(prefix)
        if self.lam == 0.0:
            return background
        cache = condition.next_dist(prefix)
        weights = {
            t: self.lam * cache.get(t) + (1.0 - self.lam) * background.get(t)
            for t in {*background.entries, *cache.entries}
        }
        tail = (1.0 - self.lam) * background.tail
        return TokenDist.from_weights(weights, tail, background.size)


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
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


_COUNT_ENTRY = (
    "[context ids, [[token id, count], ...]] with order - 1 context ids"
    " in [0, |V|), token ids in [1, |V|) and counts >= 1"
)


def _count_entry(
    entry: object, ctx_len: int, ids: range
) -> Optional[Tuple[Prefix, Dict[int, int]]]:
    """(context, counts) from a _COUNT_ENTRY over the token ids `ids`, or None."""
    try:
        ctx, items = entry
        ctx, counter = tuple(ctx), dict(items)
    except (TypeError, ValueError):
        return None
    types = {*map(type, ctx), *map(type, counter), *map(type, counter.values())}
    valid = (
        types <= {int}
        and len(ctx) == ctx_len
        and all(map(ids.__contains__, ctx))
        and all(map(ids.__contains__, counter))
        and BOS_ID not in counter
        and (not counter or min(counter.values()) >= 1)
    )
    return (ctx, counter) if valid else None


_VOCABULARY = f"a list of distinct strings other than {BOS}, {EOS} and {UNK}"
_INT = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a number", lambda v: type(v) in (int, float))
# Model file key -> (what its value must be, check). JSON loads exact
# types, so `type(v) is int` keeps true and false out of the integers.
_MODEL_FIELDS = {
    "vocabulary": (
        _VOCABULARY,
        lambda v: type(v) is list and all(type(t) is str for t in v),
    ),
    "order": _INT,
    "eps": _NUMBER,
    "lambda": _NUMBER,
    "cache_order": _INT,
    "counts": ("a list", lambda v: type(v) is list),
}


def load_model(path: str) -> CacheInterpolatedLM:
    """Read a save_model file; every malformed value is a ValueError naming path."""
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
    for key, (kind, valid) in _MODEL_FIELDS.items():
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
        if not valid(payload[key]):
            raise ValueError(f"{path}: {key!r} must be {kind}")
    vocabulary = Vocabulary(payload["vocabulary"])
    # Vocabulary merges a repeated or reserved token, shifting every later id.
    if len(vocabulary) != 3 + len(payload["vocabulary"]):
        raise ValueError(f"{path}: 'vocabulary' must be {_VOCABULARY}")
    try:
        background = NGramLM(payload["order"], vocabulary, payload["eps"])
        lm = CacheInterpolatedLM(background, payload["cache_order"], payload["lambda"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for index, entry in enumerate(payload["counts"], start=1):
        parsed = _count_entry(entry, background.order - 1, range(len(vocabulary)))
        if parsed is None:
            raise ValueError(f"{path}: 'counts' entry {index} must be {_COUNT_ENTRY}")
        ctx, counter = parsed
        if len(counter) < len(entry[1]):
            raise ValueError(f"{path}: 'counts' entry {index} repeats a token id")
        if ctx in background.counts:
            raise ValueError(f"{path}: 'counts' entry {index} repeats a context")
        background.counts[ctx] = counter
    return lm
