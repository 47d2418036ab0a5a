"""Session and turn types, the run-wide Config, and a turn's context text.

Every downstream stage consumes these types. All of them are immutable
NamedTuple records, safe to share between workers. A record whose fields
are checked is a thin subclass of a plain NamedTuple that checks them in
`__new__`, which `_replace` calls too. `context_for_turn` caps a context
at `reader_max_tokens`, which bounds its work per turn;
`reader.build_reader_input` alone fits it to the reader's token budget,
which is always below that cap.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

from .text import truncate_tokens

MODES = ("full", "coref_only", "omission_only", "passthrough")


def _checked_make(cls, values):
    """`_make` for a record whose `__new__` checks its fields, so that
    `_replace` checks the new values too (NamedTuple's own `_make` builds
    the tuple without calling `__new__`)."""
    return cls(*values)


class _Turn(NamedTuple):
    turn_id: int
    raw_query: str
    canonical_answer: str | None = None


class Turn(_Turn):
    """One conversational turn: the raw user query and, when the dataset
    provides one, the canonical system passage."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.turn_id < 1:
            raise ValueError(f"turn_id must be >= 1, got {self.turn_id}")
        if not self.raw_query.strip():
            raise ValueError(f"turn {self.turn_id}: raw_query is empty")
        return self

    _make = classmethod(_checked_make)


class _Session(NamedTuple):
    session_id: str
    turns: tuple[Turn, ...]


class Session(_Session):
    """An ordered multi-turn search session."""

    __slots__ = ()

    def __new__(cls, session_id: str, turns: tuple[Turn, ...]):
        self = super().__new__(cls, session_id, tuple(turns))
        if not self.turns:
            raise ValueError(f"session {self.session_id}: no turns")
        for expected, turn in enumerate(self.turns, start=1):
            if turn.turn_id != expected:
                raise ValueError(
                    f"session {self.session_id}: turn_id {turn.turn_id} at "
                    f"position {expected}, ids must be contiguous from 1"
                )
        return self

    _make = classmethod(_checked_make)


class _Config(NamedTuple):
    idf_threshold: float = 2.65
    bm25_k1: float = 0.9
    bm25_b: float = 0.4
    reader_max_tokens: int = 512
    mode: str = "full"
    map_relevance_cutoff: int = 1
    omission_strict: bool = True


class Config(_Config):
    """Run-wide knobs.

    idf_threshold gates which nouns/verbs are important enough for
    omission resolution. omission_strict controls whether any following
    preposition blocks a candidate (strict) or only the candidate's own
    template preposition does (lenient).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # NaN passes every comparison below (nan <= 0 is False), so
        # non-finite values are rejected first.
        for name in ("idf_threshold", "bm25_k1", "bm25_b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.idf_threshold < 0:
            raise ValueError("idf_threshold must be >= 0")
        if self.bm25_k1 <= 0:
            raise ValueError("bm25_k1 must be > 0")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ValueError("bm25_b must be in [0, 1]")
        if self.reader_max_tokens <= 0:
            raise ValueError("reader_max_tokens must be > 0")
        if self.map_relevance_cutoff < 1:
            raise ValueError("map_relevance_cutoff must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        return self

    _make = classmethod(_checked_make)


def context_for_turn(session: Session, turn_id: int, config: Config) -> str:
    """The dialogue context text for a turn: every earlier raw query in
    order, then the most recent canonical passage, joined by single spaces
    with empty parts skipped, and cut to its first config.reader_max_tokens
    whitespace tokens, joined by single spaces, when it holds more.

    A reader input's budget is below that cap, so the cut changes no reader
    input; it bounds a turn's work, as the queries are read only until past
    the cap and the passage is looked for only under it.
    """
    if not 1 <= turn_id <= len(session.turns):
        raise IndexError(
            f"turn_id {turn_id} out of range for session {session.session_id} "
            f"with {len(session.turns)} turns"
        )
    cap = config.reader_max_tokens
    parts, words = [], []
    for turn in islice(session.turns, turn_id - 1):
        parts.append(turn.raw_query)
        words += turn.raw_query.split()
        if len(words) > cap:
            return " ".join(words[:cap])
    # Under the cap, so at most `cap` earlier turns: each query holds a token.
    for turn in reversed(session.turns[: turn_id - 1]):
        if turn.canonical_answer is not None:
            parts.append(turn.canonical_answer)
            break
    return truncate_tokens(" ".join(p for p in parts if p), cap)
