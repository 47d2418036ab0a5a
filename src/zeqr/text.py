"""Shared text normalization.

One term function, `normalize`, gives the terms of the BM25 index, of every
query and of the IDF table. The POS layer looks IDF up by the lowercase of
its tokens, which it cuts at ASCII letters and digits before lowercasing,
so the omission gate and the searcher agree on term identity except where
a non-ASCII character lowercases to an ASCII one: for "\u212aelvin" (a
Kelvin sign first) `normalize` gives `kelvin`, the POS layer `k` and `elvin`.

A term is a maximal run of ASCII letters and digits in the lowercased text.
`normalize` cuts them in one byte-level pass: the lowercased text is encoded
as UTF-8 and a 256-byte table keeps `a-z0-9` and turns every other byte into
a space. Every byte of a non-ASCII character is >= 0x80, so such a character
separates terms as any other non-alphanumeric one does.
"""

from __future__ import annotations

_TERM_CHARACTERS = b"abcdefghijklmnopqrstuvwxyz0123456789"
_TERM_BYTES = bytes(byte if byte in _TERM_CHARACTERS else 0x20 for byte in range(256))


def normalize(text: str) -> list[str]:
    """Lowercase and split into the runs of ASCII letters and digits.

    Equal to `re.findall(r"[a-z0-9]+", text.lower())`. "surrogatepass"
    encodes a lone surrogate as three bytes >= 0x80 like any other non-ASCII
    character, so no text fails here.
    """
    return (text.lower().encode("utf-8", "surrogatepass").translate(_TERM_BYTES)
            .decode("ascii").split())


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
