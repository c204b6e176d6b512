"""Background n-gram model and the cache-interpolated conditional LM.

The conditional model stands in for a fine-tuned summarizer: a fixed
background n-gram model interpolated with a cache model estimated on the
fly from the conditioning reviews, so next-token probabilities genuinely
depend on which entity's reviews condition the step.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import sys
from typing import Dict, Iterable, Sequence, Tuple

from .dists import TokenDist
from .files import STRINGS, atomic_write_text, checked, read_json
from .vocab import BOS, BOS_ID, EOS, EOS_ID, RESERVED, UNK, Vocabulary, encode_corpus

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
            row = counts.setdefault(padded[i - ctx_len : i], {})
            row[padded[i]] = row.get(padded[i], 0) + 1
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
        """counts[k] maps length-(k-1) contexts to next-token counts."""
        sequences = [self.vocabulary.encode(text) for text in self.texts]
        return {k: count_ngrams(sequences, k) for k in range(1, self.order + 1)}

    def next_dist(self, prefix: Sequence[int]) -> TokenDist:
        ctx = _context(prefix, self.order - 1)
        for k in range(self.order, 0, -1):  # every sequence's EOS fills the () row
            ctx_counts = self.counts[k].get(ctx[self.order - k :])
            if ctx_counts:
                break
        total = sum(ctx_counts.values())
        return TokenDist({t: c / total for t, c in ctx_counts.items()})


class CacheInterpolatedLM:
    """lambda * cache(prefix | reviews) + (1 - lambda) * background(prefix).

    Both models read the background's order. ``condition(texts)`` builds
    the cache model once; ``next_dist`` takes it for every step conditioned
    on those texts and memoises its answers there, keyed by that context.
    """

    def __init__(self, background: NGramLM, lam: float) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("interpolation weight must be in [0, 1]")
        self.background = background
        self.lam = lam

    @property
    def cache_order(self) -> int:
        return self.background.order

    @property
    def vocabulary(self) -> Vocabulary:
        return self.background.vocabulary

    def condition(self, texts: Sequence[str]) -> CacheModel:
        """The cache model over texts (unknown words map to UNK)."""
        return CacheModel(texts, self.vocabulary, self.background.order)

    def next_dist(self, prefix: Sequence[int], condition: CacheModel) -> TokenDist:
        key = _context(prefix, self.background.order - 1)
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
    vocabulary, sequences = encode_corpus(texts)
    background = train_ngram(sequences, order, eps, vocabulary)
    return CacheInterpolatedLM(background, lam)


MODEL_FORMAT_VERSION = 1


def save_model(lm: CacheInterpolatedLM, path: str) -> None:
    """Serialize to a canonical JSON container (bit-exact round trip, no cycles to check)."""
    rows = lm.background.counts  # contexts are unique, so they alone set the order
    counts = [[ctx, sorted(rows[ctx].items())] for ctx in sorted(rows)]
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "vocabulary": list(lm.vocabulary.tokens[len(RESERVED) :]),
        "order": lm.background.order,
        "eps": lm.background.eps,
        "lambda": lm.lam,
        "cache_order": lm.cache_order,
        "counts": counts,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False)
    atomic_write_text(path, text + "\n")


_COUNT_ENTRY = (
    "[context ids, [[token id, count], ...]] with order - 1 context ids"
    " in [0, |V|), token ids in [1, |V|) and counts >= 1"
)


def _table(entries: list) -> Counts:
    """{context: {token id: count}} from [context ids, items] entries; {} if one is not."""
    try:
        return {tuple(ctx): dict(items) for ctx, items in entries}
    except (TypeError, ValueError):
        return {}


def _valid_table(counts: Counts, ctx_len: int, size: int) -> bool:
    """Whether every context and row of counts is a _COUNT_ENTRY for |V| = size."""
    chain = itertools.chain.from_iterable
    ctx_ids, token_ids = [*chain(counts)], [*chain(counts.values())]
    values = [*chain(map(dict.values, counts.values()))]
    return (
        {*map(type, ctx_ids), *map(type, token_ids), *map(type, values)} <= {int}
        and {*map(len, counts)} <= {ctx_len} and min(values, default=1) >= 1
        and 0 <= min(ctx_ids, default=0) and max(ctx_ids, default=0) < size
        and BOS_ID < min(token_ids, default=1) and max(token_ids, default=1) < size
    )


_VOCABULARY = f"a list of distinct strings other than {BOS}, {EOS} and {UNK}"
_INT = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a number", lambda v: type(v) in (int, float))
# Model file key -> (what its value must be, check). JSON loads exact
# types, so `type(v) is int` keeps true and false out of the integers.
_MODEL_FIELDS = {
    "vocabulary": (_VOCABULARY, STRINGS[1]),
    "order": _INT,
    "eps": _NUMBER,
    "lambda": _NUMBER,
    "cache_order": _INT,
    "counts": ("a list", lambda v: type(v) is list),
}


def load_model(path: str) -> CacheInterpolatedLM:
    """Read a save_model file; every malformed value is a ValueError naming path.

    The cyclic collector is paused meanwhile and left as found: the parse
    builds tens of thousands of containers, none in a cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_model(path)
    finally:
        if enabled:
            gc.enable()


def _load_model(path: str) -> CacheInterpolatedLM:
    payload = checked(read_json(path), path, {})
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version!r}")
    checked(payload, path, _MODEL_FIELDS)
    vocabulary = Vocabulary(payload["vocabulary"])
    # Vocabulary merges a repeated or reserved token, shifting every later id.
    if len(vocabulary) != len(RESERVED) + len(payload["vocabulary"]):
        raise ValueError(f"{path}: 'vocabulary' must be {_VOCABULARY}")
    try:
        background = NGramLM(payload["order"], vocabulary, payload["eps"])
        lm = CacheInterpolatedLM(background, payload["lambda"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not payload["counts"]:
        raise ValueError(f"{path}: 'counts' must not be empty")
    entries, ctx_len, size = payload["counts"], background.order - 1, len(vocabulary)
    # Checked at once: with no context or token id merged, the table is the
    # rescan's. Only a bad file is rescanned, to name its first bad entry.
    counts = background.counts = _table(entries)
    if not (
        _valid_table(counts, ctx_len, size)
        and len(counts) == len(entries)
        and sum(map(len, counts.values())) == sum(len(items) for _, items in entries)
        and max(map(sum, map(dict.values, counts.values())), default=0) <= sys.float_info.max
    ):
        counts = background.counts = {}
        for index, entry in enumerate(entries, start=1):
            one = _table([entry])
            if not one or not _valid_table(one, ctx_len, size):
                raise ValueError(f"{path}: 'counts' entry {index} must be {_COUNT_ENTRY}")
            [(ctx, counter)] = one.items()
            if len(counter) < len(entry[1]):
                raise ValueError(f"{path}: 'counts' entry {index} repeats a token id")
            if ctx in counts:
                raise ValueError(f"{path}: 'counts' entry {index} repeats a context")
            if sum(counter.values()) > sys.float_info.max:
                raise ValueError(f"{path}: 'counts' entry {index} sums past the float range")
            counts[ctx] = counter
    if payload["cache_order"] != background.order:
        raise ValueError(f"{path}: 'cache_order' must equal 'order'")
    return lm
