"""Tokenization and vocabulary management.

A single tokenizer is used everywhere (language model, metrics, dataset
filters) so that token counts and n-gram statistics are comparable across
the whole pipeline.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence

# Word runs or single non-space punctuation marks; text is lowercased first.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

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
    """Dense, 0-based token-id mapping with reserved BOS/EOS/UNK ids."""

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        # A repeated or reserved token keeps its first id, as add() gives it.
        self._tokens: List[str] = list(dict.fromkeys((BOS, EOS, UNK, *tokens)))
        self._index = {tok: tid for tid, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> Sequence[str]:
        return tuple(self._tokens)

    def add(self, token: str) -> int:
        """Insert a token if new; return its id."""
        tid = self._index.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._tokens.append(token)
            self._index[token] = tid
        return tid

    def lookup(self, token: str) -> int:
        """Token -> id, mapping unknown tokens to UNK."""
        return self._index.get(token, UNK_ID)

    def encode(self, text: str, extend: bool = False) -> List[int]:
        """Tokenize and map to ids; extend=True grows the vocabulary."""
        words = tokenize_text(text)
        if extend:
            return [self.add(w) for w in words]
        return [self.lookup(w) for w in words]

    def decode(self, ids: Sequence[int]) -> str:
        """Space-join the tokens for the given ids, skipping BOS/EOS."""
        return " ".join(
            self._tokens[i] for i in ids if i not in (BOS_ID, EOS_ID)
        )
