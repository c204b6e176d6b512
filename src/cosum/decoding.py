"""Collaborative decoding: distribution aggregation and beam search.

Contrastive generation multiplies the target distribution by a powered
target/counterpart ratio (product-of-experts style); common generation
adds the two entity-specific distributions to the common one
(mixture-of-experts style). Ablation variants swap those roles.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Tuple

from .data import EntityReviewSet
from .dists import TokenDist, top_p_truncate
from .lm import CacheInterpolatedLM, CacheModel
from .vocab import EOS_ID, UNK_ID

StepFn = Callable[[Tuple[int, ...]], TokenDist]

# Least counterpart probability a ratio divides by, so it stays finite.
RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding hyperparameters; defaults follow the reported setup."""

    delta: float = 1.0
    gamma: float = 0.5
    top_p: float = 0.9
    beam_width: int = 4
    max_len_contrastive: int = 150
    max_len_common: int = 50
    min_len: int = 10
    length_penalty: float = 1.0
    mode: str = "contrastive_poe"

    def __post_init__(self) -> None:
        tradeoffs = (self.delta, self.gamma, self.length_penalty)
        if not all(0 <= v < math.inf for v in tradeoffs):
            raise ValueError("delta, gamma and length_penalty must be finite and >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not 1 <= self.min_len <= min(self.max_len_contrastive, self.max_len_common):
            raise ValueError("need 1 <= min_len <= max_len")
        if self.mode not in ALL_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


# f.type is a string under `from __future__ import annotations`.
CONFIG_TYPES = {f.name: type(f.default) for f in fields(DecodeConfig)}


def load_decode_config(path: str) -> DecodeConfig:
    """Parse a key=value config file over the defaults; unknown keys are an error."""
    overrides: Dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_TYPES:
                raise ValueError(f"{where}: unknown config key {key!r}")
            try:
                overrides[key] = CONFIG_TYPES[key](value)
            except ValueError as exc:
                raise ValueError(f"{where}: {key}: {exc}") from exc
    try:
        return DecodeConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _ratio_aggregate(
    p_target: TokenDist,
    p_counter: TokenDist,
    delta: float,
    top_p: float,
    combine: Callable[[float, float], float],
) -> TokenDist:
    """combine(target(t), target(t) / counter(t)) over the target nucleus.

    Counterpart values come from its own renormalized nucleus when the
    token is inside it, otherwise from the raw distribution, floored so
    the ratio stays finite.
    """
    candidates = top_p_truncate(p_target, top_p)
    if delta == 0.0:
        return candidates
    counter_nucleus = top_p_truncate(p_counter, top_p)
    scores = {}
    for t, pt in candidates.entries.items():
        c = counter_nucleus.entries.get(t)
        if c is None:
            c = max(p_counter.get(t), RATIO_FLOOR)
        scores[t] = combine(pt, pt / c)
    return TokenDist.from_weights(scores)


def aggregate_contrastive(
    p_target: TokenDist, p_counter: TokenDist, delta: float, top_p: float
) -> TokenDist:
    """target(t) * (target(t) / counter(t))^delta over the target nucleus."""
    return _ratio_aggregate(
        p_target, p_counter, delta, top_p, lambda pt, r: pt * r**delta
    )


def aggregate_contrastive_moe(
    p_target: TokenDist, p_counter: TokenDist, delta: float, top_p: float
) -> TokenDist:
    """Additive ablation: target(t) + delta * target(t)/counter(t)."""
    return _ratio_aggregate(
        p_target, p_counter, delta, top_p, lambda pt, r: pt + delta * r
    )


def aggregate_contrastive_vs_common(
    p_target: TokenDist, p_comm: TokenDist, delta: float, top_p: float
) -> TokenDist:
    """Ratio against the common-model distribution instead of the counterpart."""
    return aggregate_contrastive(p_target, p_comm, delta, top_p)


def aggregate_common(
    p_comm: TokenDist, p_a: TokenDist, p_b: TokenDist, gamma: float, top_p: float
) -> TokenDist:
    """comm(t) + gamma * (a(t) + b(t)) over the union of the three nuclei."""
    comm = top_p_truncate(p_comm, top_p)
    if gamma == 0.0:
        return comm
    a = top_p_truncate(p_a, top_p)
    b = top_p_truncate(p_b, top_p)
    scores = {
        t: comm.get(t) + gamma * (a.get(t) + b.get(t))
        for t in {*comm.entries, *a.entries, *b.entries}
    }
    return TokenDist.from_weights(scores)


def aggregate_common_poe(
    p_comm: TokenDist, p_a: TokenDist, p_b: TokenDist, gamma: float, top_p: float
) -> TokenDist:
    """Multiplicative ablation: comm(t) * (a(t) * b(t))^gamma on comm's nucleus."""
    comm = top_p_truncate(p_comm, top_p)
    if gamma == 0.0:
        return comm
    scores = {
        t: pc
        * (max(p_a.get(t), RATIO_FLOOR) * max(p_b.get(t), RATIO_FLOOR)) ** gamma
        for t, pc in comm.entries.items()
    }
    return TokenDist.from_weights(scores)


def symmetric_common_dist(
    lm: CacheInterpolatedLM, prefix: Tuple[int, ...], both: CacheModel
) -> TokenDist:
    """The model conditioned on both sets, pooled (order-invariant)."""
    return lm.next_dist(prefix, both)


@dataclass(frozen=True)
class PairConditions:
    """One pair's conditions: entity a's reviews, b's, and both pooled."""

    pair_id: str
    a: CacheModel
    b: CacheModel
    both: CacheModel


def condition_pair(
    lm: CacheInterpolatedLM, reviews_a: EntityReviewSet, reviews_b: EntityReviewSet
) -> PairConditions:
    """Build the pair's three conditions once; every decode of it reuses them."""
    pair_id = f"{reviews_a.entity_id}|{reviews_b.entity_id}"
    a, b = reviews_a.texts, reviews_b.texts
    both = lm.condition(a + b)
    return PairConditions(pair_id, lm.condition(a), lm.condition(b), both)


@dataclass(frozen=True)
class Hypothesis:
    tokens: Tuple[int, ...]
    logscore: float
    finished: bool

    def normalized_score(self, alpha: float) -> float:
        if not self.tokens:
            return 0.0
        return self.logscore / float(len(self.tokens)) ** alpha


def _masked(dist: TokenDist, prefix: Tuple[int, ...], cfg: DecodeConfig) -> TokenDist:
    """dist without UNK, and without EOS before min_len, renormalized."""
    if len(prefix) < cfg.min_len:
        dist = dist.without(EOS_ID)
    return dist.without(UNK_ID)


def beam_decode(
    step_fn: StepFn, cfg: DecodeConfig, max_len: int, fallback: Optional[StepFn] = None
) -> Tuple[int, ...]:
    """Beam search over step_fn's aggregated distributions.

    UNK is always masked, and EOS until min_len tokens have been emitted
    (masked mass is renormalized away). A step that masking empties is
    taken from fallback instead, if given, and masked again. Finished
    hypotheses are frozen but keep competing on their length-normalized
    score. Returns the best finished hypothesis, or the best unfinished
    one if nothing finished within max_len.
    """
    alpha = cfg.length_penalty

    # No two hypotheses in a pool share tokens, so rank is a total order
    # and the order steps list their entries in cannot change the beam.
    def rank(h: Hypothesis) -> Tuple[float, Tuple[int, ...]]:
        return (-h.normalized_score(alpha), h.tokens)

    beams = [Hypothesis(tokens=(), logscore=0.0, finished=False)]
    for _ in range(max_len):
        if all(h.finished for h in beams):
            break
        pool = []
        for hyp in beams:
            if hyp.finished:
                pool.append(hyp)
                continue
            dist = _masked(step_fn(hyp.tokens), hyp.tokens, cfg)
            if not dist.entries and fallback is not None:
                dist = _masked(fallback(hyp.tokens), hyp.tokens, cfg)
            if not dist.entries:
                raise ValueError(
                    "empty step distribution: all its mass is on masked"
                    " tokens (<unk>, or EOS before min_len)"
                )
            for t, p in dist.entries.items():
                pool.append(
                    Hypothesis(
                        tokens=hyp.tokens + (t,),
                        logscore=hyp.logscore + math.log(p),
                        finished=t == EOS_ID,
                    )
                )
        beams = heapq.nsmallest(cfg.beam_width, pool, key=rank)
    finished = [h for h in beams if h.finished]
    return min(finished or beams, key=rank).tokens


@dataclass(frozen=True)
class SummaryTriple:
    pair_id: str
    contrastive_a: str
    contrastive_b: str
    common: str


def _contrastive_base(lm, prefix, x, y, both, cfg):
    return top_p_truncate(lm.next_dist(prefix, x), cfg.top_p)


def _contrastive_poe(lm, prefix, x, y, both, cfg):
    p_x, p_y = lm.next_dist(prefix, x), lm.next_dist(prefix, y)
    return aggregate_contrastive(p_x, p_y, cfg.delta, cfg.top_p)


def _contrastive_moe(lm, prefix, x, y, both, cfg):
    p_x, p_y = lm.next_dist(prefix, x), lm.next_dist(prefix, y)
    return aggregate_contrastive_moe(p_x, p_y, cfg.delta, cfg.top_p)


def _contrastive_vs_common(lm, prefix, x, y, both, cfg):
    p_x = lm.next_dist(prefix, x)
    p_comm = symmetric_common_dist(lm, prefix, both)
    return aggregate_contrastive_vs_common(p_x, p_comm, cfg.delta, cfg.top_p)


def _common_base(lm, prefix, x, y, both, cfg):
    return top_p_truncate(symmetric_common_dist(lm, prefix, both), cfg.top_p)


def _common_moe(lm, prefix, x, y, both, cfg):
    p_comm = symmetric_common_dist(lm, prefix, both)
    p_x, p_y = lm.next_dist(prefix, x), lm.next_dist(prefix, y)
    return aggregate_common(p_comm, p_x, p_y, cfg.gamma, cfg.top_p)


def _common_poe(lm, prefix, x, y, both, cfg):
    p_comm = symmetric_common_dist(lm, prefix, both)
    p_x, p_y = lm.next_dist(prefix, x), lm.next_dist(prefix, y)
    return aggregate_common_poe(p_comm, p_x, p_y, cfg.gamma, cfg.top_p)


# mode -> (contrastive-side step, common-side step). A step maps (lm,
# prefix, x, y, both, cfg) to one step distribution, where x, y condition
# on the target and the counterpart (on a and b for the common side) and
# both on the two pooled. One conditional LM serves every side:
# conditioned on one set it is that entity's model, on both the common
# model. A mode that ablates one side decodes the other with the paper's
# aggregator (PoE contrastive, MoE common), so common_moe decodes exactly
# as contrastive_poe does. Steps look up aggregators as module globals at
# call time, so wrappers see every call.
DECODE_MODES = {
    "contrastive_poe": (_contrastive_poe, _common_moe),
    "contrastive_moe_ablation": (_contrastive_moe, _common_moe),
    "contrastive_vs_common": (_contrastive_vs_common, _common_moe),
    "common_moe": (_contrastive_poe, _common_moe),
    "common_poe_ablation": (_contrastive_poe, _common_poe),
    "base": (_contrastive_base, _common_base),
}
ALL_MODES = tuple(DECODE_MODES)


def summarize_pair(
    lm: CacheInterpolatedLM, pair: PairConditions, cfg: DecodeConfig
) -> SummaryTriple:
    """Decode the two contrastive summaries and the common summary.

    `pair` comes from condition_pair on the same lm. A step that masking
    empties is recomputed from LM distributions masked the same way. A
    side that cannot be decoded raises ValueError naming the pair and the
    side.
    """
    contrastive_side, common_side = DECODE_MODES[cfg.mode]
    masked_lm = SimpleNamespace(
        next_dist=lambda prefix, cond: _masked(lm.next_dist(prefix, cond), prefix, cfg)
    )

    def decode(name: str, side, x, y, max_len: int) -> str:
        def step(model) -> StepFn:
            return lambda prefix: side(model, prefix, x, y, pair.both, cfg)

        try:
            tokens = beam_decode(step(lm), cfg, max_len, step(masked_lm))
        except ValueError as exc:
            raise ValueError(f"pair {pair.pair_id}, {name}: {exc}") from exc
        return lm.vocabulary.decode(tokens)

    max_len = cfg.max_len_contrastive
    return SummaryTriple(
        pair.pair_id,
        decode("contrastive_a", contrastive_side, pair.a, pair.b, max_len),
        decode("contrastive_b", contrastive_side, pair.b, pair.a, max_len),
        decode("common", common_side, pair.a, pair.b, cfg.max_len_common),
    )
