"""Sparse token probability distributions and nucleus truncation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class TokenDist:
    """Sparse probability distribution over token ids.

    Entries are strictly positive; zero-probability tokens are simply
    absent. Construction through ``from_weights`` drops zeros and
    renormalizes.
    """

    entries: Dict[int, float] = field(default_factory=dict)

    @staticmethod
    def from_weights(weights: Dict[int, float]) -> "TokenDist":
        # Sorted iteration keeps float summation order (and thus the exact
        # result) independent of how the weights dict was assembled.
        positive = {t: weights[t] for t in sorted(weights) if weights[t] > 0.0}
        if not positive:
            return TokenDist({})
        total = sum(positive.values())
        return TokenDist({t: w / total for t, w in positive.items()})

    def get(self, token_id: int) -> float:
        return self.entries.get(token_id, 0.0)

    def without(self, token_id: int) -> "TokenDist":
        """Drop one token and renormalize the remainder."""
        if token_id not in self.entries:
            return self
        rest = {t: p for t, p in self.entries.items() if t != token_id}
        return TokenDist.from_weights(rest)


def top_p_truncate(d: TokenDist, p: float) -> TokenDist:
    """Keep the smallest descending-probability prefix with mass >= p.

    Ties are broken by ascending token id. Kept mass is renormalized. If
    the whole support is kept the input is returned unchanged.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"top-p must be in (0, 1], got {p}")
    kept: Dict[int, float] = {}
    cum = 0.0
    items = sorted(d.entries.items(), key=lambda kv: (-kv[1], kv[0]))
    for token_id, prob in items:
        kept[token_id] = prob
        cum += prob
        if cum >= p - 1e-12:
            break
    if len(kept) == len(items):
        return d
    return TokenDist({t: pr / cum for t, pr in kept.items()})
