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
