from hypothesis import given, settings
from hypothesis import strategies as st

from cosum.data import Review
from cosum.vocab import (
    BOS,
    BOS_ID,
    EOS,
    EOS_ID,
    UNK,
    UNK_ID,
    Vocabulary,
    encode_corpus,
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
    v, [ids] = encode_corpus(["the cat sat ."])
    assert ids == [3, 4, 5, 6]
    for i in range(len(v)):
        assert v.lookup(v.tokens[i]) == i


def test_unknown_maps_to_unk_outside_training():
    v = Vocabulary(["the", "cat"])
    assert v.encode("the dog") == [v.lookup("the"), UNK_ID]


def test_encoding_unseen_words_never_grows_a_vocabulary():
    v, _ = encode_corpus(["one two"])
    tokens = v.tokens
    assert v.encode("three one four") == [UNK_ID, v.lookup("one"), UNK_ID]
    assert v.tokens == tokens and len(v) == 5


def test_decode_skips_bos_eos():
    v, [ids] = encode_corpus(["hello world"])
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


def reference_encode_corpus(texts):
    """Token list and id sequences, assigning ids one token at a time."""
    tokens = [BOS, EOS, UNK]
    index = {tok: tid for tid, tok in enumerate(tokens)}
    sequences = []
    for text in texts:
        sequence = []
        for w in tokenize_text(text):
            tid = index.get(w)
            if tid is None:
                tid = index[w] = len(tokens)
                tokens.append(w)
            sequence.append(tid)
        sequences.append(sequence)
    return tokens, sequences


@settings(max_examples=500)
@given(st.lists(st.text(EDGE_ALPHABET), max_size=5))
def test_encode_corpus_matches_one_token_at_a_time(texts):
    vocabulary, sequences = encode_corpus(texts)
    tokens, expected = reference_encode_corpus(texts)
    assert vocabulary.tokens == tuple(tokens)
    assert sequences == expected
    assert [vocabulary.encode(text) for text in texts] == expected
