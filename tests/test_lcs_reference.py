"""The bit-parallel ROUGE-L against the dynamic programme it replaced.

`metrics._lcs_length` runs the Allison-Dix / Hyyrö bit-vector recurrence
over Python ints. The O(|a|·|b|) table below is the reference; LCS
lengths and ROUGE-L scores must be equal, not merely close.
"""

from hypothesis import given
from hypothesis import strategies as st

from cosum.metrics import RougeScore, _lcs_length, rouge_l


def reference_lcs_length(a, b):
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def reference_rouge_l(candidate, reference):
    if not candidate or not reference:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = reference_lcs_length(candidate, reference)
    return RougeScore.from_pr(lcs / len(candidate), lcs / len(reference))


WORDS = ["the", "room", "was", "clean"]


def tokens(k):
    return st.lists(st.sampled_from(WORDS[:k]), max_size=40)


# Alphabets of one to four words, so repeats, long matches and empty
# inputs all occur.
token_pairs = st.integers(1, len(WORDS)).flatmap(lambda k: st.tuples(tokens(k), tokens(k)))


@given(token_pairs)
def test_lcs_and_rouge_l_equal_the_dynamic_programme(pair):
    a, b = pair
    assert _lcs_length(a, b) == reference_lcs_length(a, b)
    assert rouge_l(a, b) == reference_rouge_l(a, b)


def test_pinned_examples():
    cases = [
        ([], []),
        ("a".split(), []),
        ("a b c d".split(), "a c d".split()),
        ("a b a b a b".split(), "b a b a".split()),
        (["x"] * 70, ["x"] * 65),
    ]
    for a, b in cases:
        assert _lcs_length(a, b) == reference_lcs_length(a, b), (a, b)
        assert _lcs_length(b, a) == reference_lcs_length(a, b), (b, a)
