"""Session, turn and dialogue-context types plus the run-wide Config.

Every downstream stage consumes these types. All of them are immutable
values after construction and safe to share between workers. A context
is never cut here: `reader.build_reader_input` alone fits it to the
reader's token budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MODES = ("full", "coref_only", "omission_only", "passthrough")


@dataclass(frozen=True)
class Turn:
    """One conversational turn: the raw user query and, when the dataset
    provides one, the canonical system passage."""

    turn_id: int
    raw_query: str
    canonical_answer: str | None = None
    canonical_answer_id: str | None = None

    def __post_init__(self):
        if self.turn_id < 1:
            raise ValueError(f"turn_id must be >= 1, got {self.turn_id}")
        if not self.raw_query.strip():
            raise ValueError(f"turn {self.turn_id}: raw_query is empty")


@dataclass(frozen=True)
class Session:
    """An ordered multi-turn search session."""

    session_id: str
    turns: tuple[Turn, ...]

    def __post_init__(self):
        if not self.turns:
            raise ValueError(f"session {self.session_id}: no turns")
        object.__setattr__(self, "turns", tuple(self.turns))
        for expected, turn in enumerate(self.turns, start=1):
            if turn.turn_id != expected:
                raise ValueError(
                    f"session {self.session_id}: turn_id {turn.turn_id} at "
                    f"position {expected}, ids must be contiguous from 1"
                )


@dataclass(frozen=True)
class DialogueContext:
    """The context window for one turn.

    prior_queries holds every earlier raw query in order; latest_answer is
    the most recent available canonical passage, whole.
    """

    prior_queries: tuple[str, ...] = ()
    latest_answer: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "prior_queries", tuple(self.prior_queries))

    def serialize(self) -> str:
        """Flatten to the single string handed to the reader."""
        parts = list(self.prior_queries)
        if self.latest_answer is not None:
            parts.append(self.latest_answer)
        return " ".join(p for p in parts if p)


@dataclass(frozen=True)
class Config:
    """Run-wide knobs.

    idf_threshold gates which nouns/verbs are important enough for
    omission resolution. omission_strict controls whether any following
    preposition blocks a candidate (strict) or only the candidate's own
    template preposition does (lenient).
    """

    idf_threshold: float = 2.65
    bm25_k1: float = 0.9
    bm25_b: float = 0.4
    reader_max_tokens: int = 512
    min_answer_score: float = 0.0
    mode: str = "full"
    map_relevance_cutoff: int = 1
    omission_strict: bool = True

    def __post_init__(self):
        # NaN passes every comparison below (nan <= 0 is False), so
        # non-finite values are rejected first.
        for name in ("idf_threshold", "bm25_k1", "bm25_b", "min_answer_score"):
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


def context_for_turn(session: Session, turn_id: int) -> DialogueContext:
    """Assemble the dialogue context for a turn.

    Includes all prior raw queries plus the single most recent canonical
    passage, uncut.
    """
    if not 1 <= turn_id <= len(session.turns):
        raise IndexError(
            f"turn_id {turn_id} out of range for session {session.session_id} "
            f"with {len(session.turns)} turns"
        )
    prior = session.turns[: turn_id - 1]
    prior_queries = tuple(t.raw_query for t in prior)

    latest_answer = None
    for turn in reversed(prior):
        if turn.canonical_answer is not None:
            latest_answer = turn.canonical_answer
            break

    return DialogueContext(
        prior_queries=prior_queries,
        latest_answer=latest_answer,
    )
