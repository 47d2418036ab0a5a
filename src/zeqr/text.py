"""Shared text normalization.

One term function, `normalize`, gives the terms of the BM25 index, of every
query and of the IDF table. A term is a maximal run of ASCII letters and
digits, lowercased. The POS layer cuts the same runs as its alphanumeric
tokens and looks IDF up by their lowercase, so the omission gate and the
searcher agree on term identity.

`normalize` cuts the terms in one byte-level pass: the text is encoded as
UTF-8 and a 256-byte table keeps `a-z0-9`, maps `A-Z` to `a-z` and turns
every other byte into a space. Every byte of a non-ASCII character is
>= 0x80, so such a character separates terms as any other
non-alphanumeric one does.
"""

from __future__ import annotations

_TERM_BYTES = bytes(ord(chr(byte).lower()) if chr(byte).isascii() and chr(byte).isalnum()
                    else 0x20 for byte in range(256))


def normalize(text: str) -> list[str]:
    """Split into the runs of ASCII letters and digits, lowercased.

    Equal to `[t.lower() for t in re.findall(r"[A-Za-z0-9]+", text)]`.
    "surrogatepass" encodes a lone surrogate as three bytes >= 0x80 like any
    other non-ASCII character, so no text fails here.
    """
    return (text.encode("utf-8", "surrogatepass").translate(_TERM_BYTES)
            .decode("ascii").split())


def count_tokens(text: str) -> int:
    """Whitespace token count used for reader input budgeting."""
    return len(text.split())


def truncate_tokens(text: str, budget: int) -> str:
    """Keep at most `budget` whitespace tokens, cutting from the end."""
    if budget <= 0:
        return ""
    # At most budget + 1 parts: the split has a remainder exactly when the
    # text has more than budget tokens.
    tokens = text.split(maxsplit=budget)
    if len(tokens) <= budget:
        return text
    return " ".join(tokens[:budget])


class Analyzer:
    """The index's term function as `terms(text)`; it is `normalize`."""

    terms = staticmethod(normalize)
