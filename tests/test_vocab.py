from hypothesis import given, settings
from hypothesis import strategies as st

from cosum.data import Review
from cosum.vocab import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    Vocabulary,
    tokenize_text,
)


def test_basic_tokenization():
    assert tokenize_text("The cat sat.") == ["the", "cat", "sat", "."]


def test_empty_text():
    assert tokenize_text("") == []


def test_unicode_lowercasing_merges_tokens():
    a, b = tokenize_text("Café café")
    assert a == b == "café"


def test_punctuation_kept_as_tokens():
    assert tokenize_text("good, bad; ugly!") == [
        "good", ",", "bad", ";", "ugly", "!",
    ]


def test_reserved_ids_distinct_and_present():
    v = Vocabulary()
    assert len({BOS_ID, EOS_ID, UNK_ID}) == 3
    assert len(v) == 3


def test_ids_dense_and_roundtrip():
    v = Vocabulary()
    ids = v.encode("the cat sat .", extend=True)
    assert ids == [3, 4, 5, 6]
    for i in range(len(v)):
        assert v.lookup(v.tokens[i]) == i


def test_unknown_maps_to_unk_outside_training():
    v = Vocabulary()
    v.encode("the cat", extend=True)
    assert v.encode("the dog") == [v.lookup("the"), UNK_ID]


def test_training_mode_extends():
    v = Vocabulary()
    before = len(v)
    v.encode("one two three", extend=True)
    assert len(v) == before + 3


def test_decode_skips_bos_eos():
    v = Vocabulary()
    ids = v.encode("hello world", extend=True)
    assert v.decode([BOS_ID] + ids + [EOS_ID]) == "hello world"


# Word and split characters, plus those whose lowercase depends on their
# neighbours: Greek capital sigma lowers to a final sigma at a word's end,
# and case mapping looks through soft hyphens, combining marks and
# apostrophes to find that end.
EDGE_ALPHABET = "aZ\u03a3\u03c3\u03c2\u0391\u0130\u00ad\u0301'\u2019-. \t\n"


@settings(max_examples=500)
@given(st.lists(st.text(EDGE_ALPHABET, min_size=1), max_size=5))
def test_review_tokens_concatenate_to_the_tokens_of_the_joined_texts(texts):
    reviews = [Review("e", str(i), text) for i, text in enumerate(texts)]
    assert [t for r in reviews for t in r.tokens] == tokenize_text(" ".join(texts))
