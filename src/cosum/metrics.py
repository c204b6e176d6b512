"""Summary evaluation: distinctiveness, ROUGE-1/2/L, novel n-gram rates."""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence, Set, Tuple

Tokens = Sequence[str]


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right sum: `sum()` of floats is compensated from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0)


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_pr(precision: float, recall: float) -> "RougeScore":
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return RougeScore(precision, recall, f1)


def distinctiveness(bag_a: Counter, bag_b: Counter, bag_c: Counter) -> float:
    """1 - normalized overlap between the three summaries' token bags.

    Pairwise and triple intersections use min multiplicity, the union max
    multiplicity.
    """
    a, b, c = bag_a, bag_b, bag_c
    if not (a and b and c):
        raise ValueError("empty summary")
    pairwise = (
        sum((a & b).values()) + sum((a & c).values()) + sum((b & c).values())
    )
    triple = sum((a & b & c).values())
    union = sum((a | b | c).values())
    return 1.0 - (pairwise - 2 * triple) / union


def ngrams(tokens: Tokens, n: int) -> Iterator[Tuple[str, ...]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    return zip(*[tokens[i:] for i in range(n)])


def rouge_n(candidate: Tokens, reference: Tokens, n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1."""
    return _rouge_n_counted(Counter(ngrams(candidate, n)), reference, n)


def _rouge_n_counted(cand_grams: Counter, reference: Tokens, n: int) -> RougeScore:
    ref_grams = Counter(ngrams(reference, n))
    total_cand = sum(cand_grams.values())
    total_ref = sum(ref_grams.values())
    if total_cand == 0 or total_ref == 0:
        return RougeScore(0.0, 0.0, 0.0)
    overlap = sum((cand_grams & ref_grams).values())
    return RougeScore.from_pr(overlap / total_cand, overlap / total_ref)


def _lcs_length(a: Tokens, b: Tokens) -> int:
    # Bit-parallel (Allison-Dix, Hyyrö): v's zero bits count the LCS so far.
    masks: Dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Tokens, reference: Tokens) -> RougeScore:
    """Longest-common-subsequence precision/recall/F1."""
    if not candidate or not reference:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = _lcs_length(candidate, reference)
    return RougeScore.from_pr(lcs / len(candidate), lcs / len(reference))


# Each ROUGE variant's report name and its n-gram size; None is ROUGE-L.
ROUGE = {"rouge1": 1, "rouge2": 2, "rougeL": None}


def rouge_multi(
    candidate: Tokens, references: Sequence[Tokens], n: int | None
) -> RougeScore:
    """Arithmetic mean of per-reference scores; n=None selects ROUGE-L."""
    if not references:
        raise ValueError("empty reference list")
    if n is None:
        scores = [rouge_l(candidate, ref) for ref in references]
    else:
        cand_grams = Counter(ngrams(candidate, n))
        scores = [_rouge_n_counted(cand_grams, ref, n) for ref in references]
    k = len(scores)
    return RougeScore(
        precision=fold_sum(s.precision for s in scores) / k,
        recall=fold_sum(s.recall for s in scores) / k,
        f1=fold_sum(s.f1 for s in scores) / k,
    )


def intra_pair_score(
    contrastive_a: Tokens, contrastive_b: Tokens
) -> Tuple[RougeScore, ...]:
    """Each ROUGE variant between the two contrastive summaries; lower = more distinct."""
    if not contrastive_a or not contrastive_b:
        raise ValueError("empty contrastive summary")
    return tuple(
        rouge_l(contrastive_a, contrastive_b) if n is None
        else rouge_n(contrastive_a, contrastive_b, n)
        for n in ROUGE.values()
    )


def novel_ngram_rate(summary_grams: Set[tuple], input_grams: Set[tuple]) -> float:
    """Fraction of the summary's distinct n-grams absent from the input's n-gram set."""
    if not summary_grams:
        raise ValueError("summary too short")
    return len(summary_grams - input_grams) / len(summary_grams)
