"""Sparse token probability distributions and nucleus truncation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .vocab import BOS_ID


@dataclass(frozen=True)
class TokenDist:
    """Sparse probability distribution over token ids.

    Entries are strictly positive. Every id in ``[1, size)`` without an
    entry has probability ``tail`` (add-epsilon smoothing gives all unseen
    ids one value); any other id has probability 0.
    """

    entries: Dict[int, float] = field(default_factory=dict)
    tail: float = 0.0
    size: int = 0

    @staticmethod
    def from_weights(
        weights: Dict[int, float], tail: float = 0.0, size: int = 0
    ) -> "TokenDist":
        """Drop zeros and normalize, with ``tail`` on each of the n ids in
        [1, size) left without a weight. fsum rounds the total once (the tail
        enters as tail * 2**k per set bit k of n), so all orders and Pythons agree.
        An infinite total or a weight that normalizes to 0.0 is a ValueError."""
        positive = {t: w for t, w in weights.items() if w > 0.0}
        n = size - 1 - len(positive) if tail else 0
        bits = [tail * (1 << k) for k in range(n.bit_length()) if n >> k & 1]
        try:
            total = math.fsum([*positive.values(), *bits])
        except OverflowError:  # finite terms whose sum is past the float range
            total = math.inf
        if not total:
            return TokenDist({})
        if not math.isfinite(total):
            raise ValueError(f"a weight overflowed: the total is {total}")
        entries = {t: w / total for t, w in positive.items()}
        if not min(entries.values(), default=1.0) or (tail and not tail / total):
            raise ValueError("a probability underflowed to 0.0")
        return TokenDist(entries, tail / total, size)

    @property
    def implicit(self) -> bool:
        """Whether some id takes the tail value without an entry."""
        return bool(self.tail) and len(self.entries) < self.size - 1

    def get(self, token_id: int) -> float:
        tail = self.tail if BOS_ID < token_id < self.size else 0.0
        return self.entries.get(token_id, tail)

    def dense(self) -> "TokenDist":
        """The same distribution with an entry for every positive id."""
        if not self.implicit:
            return self
        ids = range(BOS_ID + 1, self.size)
        return TokenDist({t: self.entries.get(t, self.tail) for t in ids})

    def without(self, token_id: int) -> "TokenDist":
        """Drop one token and renormalize the remainder."""
        entries = self.dense().entries
        if token_id not in entries:
            return self
        rest = {t: p for t, p in entries.items() if t != token_id}
        return TokenDist.from_weights(rest)


def top_p_truncate(d: TokenDist, p: float) -> TokenDist:
    """Keep the smallest descending-probability prefix with mass >= p.

    Ties are broken by ascending token id. Kept mass is renormalized. If
    the whole support is kept the input is returned unchanged. Entries
    above the tail lead that order, so only a nucleus that reaches the
    tail walks the dense view.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"top-p must be in (0, 1], got {p}")
    kept: Dict[int, float] = {}
    cum = 0.0
    items = d.entries.items()
    if d.implicit:
        items = [(t, prob) for t, prob in items if prob > d.tail]
    items = sorted(items, key=lambda kv: (-kv[1], kv[0]))
    for token_id, prob in items:
        kept[token_id] = prob
        cum += prob
        if cum >= p - 1e-12:
            break
    if d.implicit:
        if cum < p - 1e-12:
            return top_p_truncate(d.dense(), p)
    elif len(kept) == len(items):
        return d
    return TokenDist({t: pr / cum for t, pr in kept.items()})
