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
from typing import Callable, Dict, Tuple

from .data import EntityReviewSet
from .dists import TokenDist, top_p_truncate
from .lm import ConditionalLM
from .vocab import EOS_ID, UNK_ID

StepFn = Callable[[Tuple[int, ...]], TokenDist]


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
    ratio_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.delta < 0 or self.gamma < 0 or self.length_penalty < 0:
            raise ValueError("delta, gamma and length_penalty must be >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not 1 <= self.min_len <= min(self.max_len_contrastive, self.max_len_common):
            raise ValueError("need 1 <= min_len <= max_len")
        if self.mode not in ALL_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.ratio_floor <= 0:
            raise ValueError("ratio_floor must be > 0")


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
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_TYPES:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            overrides[key] = CONFIG_TYPES[key](value)
    return DecodeConfig(**overrides)


def _ratio_aggregate(
    p_target: TokenDist,
    p_counter: TokenDist,
    delta: float,
    top_p: float,
    ratio_floor: float,
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
            c = max(p_counter.get(t), ratio_floor)
        scores[t] = combine(pt, pt / c)
    return TokenDist.from_weights(scores)


def aggregate_contrastive(
    p_target: TokenDist,
    p_counter: TokenDist,
    delta: float,
    top_p: float,
    ratio_floor: float,
) -> TokenDist:
    """target(t) * (target(t) / counter(t))^delta over the target nucleus."""
    return _ratio_aggregate(
        p_target, p_counter, delta, top_p, ratio_floor, lambda pt, r: pt * r**delta
    )


def aggregate_contrastive_moe(
    p_target: TokenDist,
    p_counter: TokenDist,
    delta: float,
    top_p: float,
    ratio_floor: float,
) -> TokenDist:
    """Additive ablation: target(t) + delta * target(t)/counter(t)."""
    return _ratio_aggregate(
        p_target, p_counter, delta, top_p, ratio_floor, lambda pt, r: pt + delta * r
    )


def aggregate_contrastive_vs_common(
    p_target: TokenDist,
    p_comm: TokenDist,
    delta: float,
    top_p: float,
    ratio_floor: float,
) -> TokenDist:
    """Ratio against the common-model distribution instead of the counterpart."""
    return aggregate_contrastive(p_target, p_comm, delta, top_p, ratio_floor)


def aggregate_common(
    p_comm: TokenDist, p_a: TokenDist, p_b: TokenDist, gamma: float, top_p: float
) -> TokenDist:
    """comm(t) + gamma * (a(t) + b(t)) over the union of the three nuclei."""
    comm = top_p_truncate(p_comm, top_p)
    if gamma == 0.0:
        return comm
    a = top_p_truncate(p_a, top_p)
    b = top_p_truncate(p_b, top_p)
    candidates = sorted(set(comm.support) | set(a.support) | set(b.support))
    scores = {
        t: comm.get(t) + gamma * (a.get(t) + b.get(t)) for t in candidates
    }
    return TokenDist.from_weights(scores)


def aggregate_common_poe(
    p_comm: TokenDist,
    p_a: TokenDist,
    p_b: TokenDist,
    gamma: float,
    top_p: float,
    ratio_floor: float,
) -> TokenDist:
    """Multiplicative ablation: comm(t) * (a(t) * b(t))^gamma on comm's nucleus."""
    comm = top_p_truncate(p_comm, top_p)
    if gamma == 0.0:
        return comm
    scores = {
        t: pc
        * (max(p_a.get(t), ratio_floor) * max(p_b.get(t), ratio_floor)) ** gamma
        for t, pc in comm.entries.items()
    }
    return TokenDist.from_weights(scores)


def symmetric_common_dist(
    lm_comm: ConditionalLM,
    prefix: Tuple[int, ...],
    reviews_a: EntityReviewSet,
    reviews_b: EntityReviewSet,
) -> TokenDist:
    """The common model conditioned on both sets.

    One call suffices: ConditionalLM makes two-set conditions
    order-invariant.
    """
    return lm_comm.next_dist(prefix, (reviews_a, reviews_b))


@dataclass(frozen=True)
class Hypothesis:
    tokens: Tuple[int, ...]
    logscore: float
    finished: bool

    def normalized_score(self, alpha: float) -> float:
        if not self.tokens:
            return 0.0
        return self.logscore / float(len(self.tokens)) ** alpha


def beam_decode(step_fn: StepFn, cfg: DecodeConfig, max_len: int) -> Tuple[int, ...]:
    """Beam search over step_fn's aggregated distributions.

    UNK is always masked, and EOS until min_len tokens have been emitted
    (masked mass is renormalized away). Finished hypotheses are frozen but
    keep competing on their length-normalized score. Returns the best
    finished hypothesis, or the best unfinished one if nothing finished
    within max_len.
    """
    alpha = cfg.length_penalty

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
            dist = step_fn(hyp.tokens)
            if len(hyp.tokens) < cfg.min_len:
                dist = dist.without(EOS_ID)
            dist = dist.without(UNK_ID)
            if not dist.entries:
                raise ValueError("empty step distribution")
            for t, p in dist.sorted_items():
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

    def to_record(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "contrastive_a": self.contrastive_a,
            "contrastive_b": self.contrastive_b,
            "common": self.common,
        }


@dataclass
class SummarizerModels:
    """The two conditional models collaborative decoding draws from."""

    contrastive: ConditionalLM
    common: ConditionalLM


def _entity_dists(models, prefix, *review_sets):
    return [models.contrastive.next_dist(prefix, r) for r in review_sets]


def _contrastive_base(models, prefix, x, y, cfg):
    return top_p_truncate(models.contrastive.next_dist(prefix, x), cfg.top_p)


def _contrastive_poe(models, prefix, x, y, cfg):
    p_x, p_y = _entity_dists(models, prefix, x, y)
    return aggregate_contrastive(p_x, p_y, cfg.delta, cfg.top_p, cfg.ratio_floor)


def _contrastive_moe(models, prefix, x, y, cfg):
    p_x, p_y = _entity_dists(models, prefix, x, y)
    return aggregate_contrastive_moe(p_x, p_y, cfg.delta, cfg.top_p, cfg.ratio_floor)


def _contrastive_vs_common(models, prefix, x, y, cfg):
    p_x = models.contrastive.next_dist(prefix, x)
    p_comm = symmetric_common_dist(models.common, prefix, x, y)
    return aggregate_contrastive_vs_common(
        p_x, p_comm, cfg.delta, cfg.top_p, cfg.ratio_floor
    )


def _common_base(models, prefix, x, y, cfg):
    return top_p_truncate(symmetric_common_dist(models.common, prefix, x, y), cfg.top_p)


def _common_moe(models, prefix, x, y, cfg):
    p_comm = symmetric_common_dist(models.common, prefix, x, y)
    p_x, p_y = _entity_dists(models, prefix, x, y)
    return aggregate_common(p_comm, p_x, p_y, cfg.gamma, cfg.top_p)


def _common_poe(models, prefix, x, y, cfg):
    p_comm = symmetric_common_dist(models.common, prefix, x, y)
    p_x, p_y = _entity_dists(models, prefix, x, y)
    return aggregate_common_poe(p_comm, p_x, p_y, cfg.gamma, cfg.top_p, cfg.ratio_floor)


# mode -> (contrastive-side step, common-side step). A step maps (models,
# prefix, x, y, cfg) to one step distribution, where x, y is the target and
# counterpart, or the pair for the common side. A mode that ablates one
# side decodes the other with the paper's aggregator (PoE contrastive, MoE
# common), so common_moe decodes exactly as contrastive_poe does. Steps look
# up aggregators as module globals at call time, so wrappers see every call.
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
    models: SummarizerModels,
    reviews_a: EntityReviewSet,
    reviews_b: EntityReviewSet,
    cfg: DecodeConfig,
) -> SummaryTriple:
    """Decode the two contrastive summaries and the common summary."""
    contrastive_side, common_side = DECODE_MODES[cfg.mode]

    def decode(side, x, y, max_len: int) -> str:
        tokens = beam_decode(
            lambda prefix: side(models, prefix, x, y, cfg), cfg, max_len
        )
        return models.contrastive.vocabulary.decode(tokens)

    max_len = cfg.max_len_contrastive
    return SummaryTriple(
        pair_id=f"{reviews_a.entity_id}|{reviews_b.entity_id}",
        contrastive_a=decode(contrastive_side, reviews_a, reviews_b, max_len),
        contrastive_b=decode(contrastive_side, reviews_b, reviews_a, max_len),
        common=decode(common_side, reviews_a, reviews_b, cfg.max_len_common),
    )
