"""Shared text normalization.

One tokenizer + lowercasing path, `normalize`, gives the terms of the BM25
index, of every query and of the IDF table, and the POS layer looks IDF up
with the same terms, so the omission gate and the searcher agree on term
identity.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[a-z0-9]+")


def normalize(text: str) -> list[str]:
    """Lowercase and split into alphanumeric terms."""
    return _WORD_RE.findall(text.lower())


def count_tokens(text: str) -> int:
    """Whitespace token count used for reader input budgeting."""
    return len(text.split())


def truncate_tokens(text: str, budget: int) -> str:
    """Keep at most `budget` whitespace tokens, cutting from the end."""
    if budget <= 0:
        return ""
    tokens = text.split()
    if len(tokens) <= budget:
        return text
    return " ".join(tokens[:budget])


class Analyzer:
    """The index's term function as `terms(text)`; it is `normalize`."""

    terms = staticmethod(normalize)
