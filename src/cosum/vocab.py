"""Tokenization and vocabulary management.

A single tokenizer is used everywhere (language model, metrics, dataset
filters) so that token counts and n-gram statistics are comparable across
the whole pipeline.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence, Tuple

# Word runs or single non-space punctuation marks; text is lowercased first.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = (BOS, EOS, UNK)  # ids 0, 1, 2 in every vocabulary

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2


def tokenize_text(text: str) -> List[str]:
    """Lowercase and split on whitespace/punctuation boundaries.

    Punctuation marks are kept as standalone tokens. Empty input yields an
    empty list.
    """
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Dense, 0-based token-id mapping with reserved BOS/EOS/UNK ids; fixed once built."""

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        # A repeated or reserved token keeps its first id.
        self.tokens: Tuple[str, ...] = tuple(dict.fromkeys((*RESERVED, *tokens)))
        self._index = {tok: tid for tid, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        """Token -> id, mapping unknown tokens to UNK."""
        return self._index.get(token, UNK_ID)

    def encode(self, text: str) -> List[int]:
        """Tokenize and map to ids, unknown tokens to UNK."""
        return [self.lookup(w) for w in tokenize_text(text)]

    def decode(self, ids: Sequence[int]) -> str:
        """Space-join the tokens for the given ids, skipping BOS/EOS."""
        return " ".join(
            self.tokens[i] for i in ids if i not in (BOS_ID, EOS_ID)
        )


def encode_corpus(texts: Iterable[str]) -> Tuple[Vocabulary, List[List[int]]]:
    """The vocabulary of texts, with ids in order of first use, and each text's ids."""
    index = {tok: tid for tid, tok in enumerate(RESERVED)}
    sequences = [[index.setdefault(w, len(index)) for w in tokenize_text(t)] for t in texts]
    return Vocabulary(index), sequences
