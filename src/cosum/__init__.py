"""Comparative opinion summarization via collaborative decoding."""

__version__ = "0.1.0"

from .data import EntityReviewSet, Review, build_synthetic, load_reviews
from .decoding import (
    DecodeConfig,
    PairConditions,
    SummaryTriple,
    aggregate_common,
    aggregate_common_poe,
    aggregate_contrastive,
    aggregate_contrastive_moe,
    aggregate_contrastive_vs_common,
    beam_decode,
    condition_pair,
    summarize_pair,
    symmetric_common_dist,
)
from .dists import TokenDist, top_p_truncate
from .lm import CacheInterpolatedLM, NGramLM, load_model, save_model, train_ngram
from .metrics import (
    RougeScore,
    distinctiveness,
    intra_pair_score,
    novel_ngram_rate,
    rouge_l,
    rouge_multi,
    rouge_n,
)
from .vocab import Vocabulary, tokenize_text

__all__ = [
    "CacheInterpolatedLM",
    "DecodeConfig",
    "EntityReviewSet",
    "NGramLM",
    "PairConditions",
    "Review",
    "RougeScore",
    "SummaryTriple",
    "TokenDist",
    "Vocabulary",
    "aggregate_common",
    "aggregate_common_poe",
    "aggregate_contrastive",
    "aggregate_contrastive_moe",
    "aggregate_contrastive_vs_common",
    "beam_decode",
    "build_synthetic",
    "condition_pair",
    "distinctiveness",
    "intra_pair_score",
    "load_model",
    "load_reviews",
    "novel_ngram_rate",
    "rouge_l",
    "rouge_multi",
    "rouge_n",
    "save_model",
    "summarize_pair",
    "symmetric_common_dist",
    "tokenize_text",
    "top_p_truncate",
    "train_ngram",
]
