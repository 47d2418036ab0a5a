"""Two-step query reformulation: coreference resolution, then omission
resolution, each phrased as a templated question to a reading backend.

The order is fixed because pronoun replacement can surface new bare words
that omission resolution must then see. Each stage is one loop over the
items it detects: ask a question built from the stage input, keep a usable
answer, and splice it in left to right. Every turn produces a full audit
trace; a skipped or unanswerable step degrades to the original wording
instead of aborting the turn. A question whose reader call fails, or
whose answer `_ask` rejects, raises a ZeqrError, which fails the turn.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .datamodel import Config, Turn
from .errors import ProtocolError
from .ingest import IdfTable
from .linguistics import (
    OmissionCandidate,
    PronounMention,
    detect_pronouns,
    find_omission_candidates,
    tokenize_and_tag,
)
from .reader import ReaderBackend, SpanAnswer, build_reader_input
from .text import normalize

PREPOSITION_BY_KIND = {"noun": "of", "verb": "to"}


def make_coref_question(pronoun: str, query: str) -> str:
    """Fill the coreference template for one pronoun."""
    if not pronoun or not query:
        raise ValueError("pronoun and query must be non-empty")
    return f'What is {pronoun} refer to, in "{query}"'


def make_omission_question(word: str, kind: str, query: str) -> str:
    """Fill the omission template: `of` for nouns, `to` for verbs."""
    if not word or not query:
        raise ValueError("word and query must be non-empty")
    if kind not in PREPOSITION_BY_KIND:
        raise ValueError(f"kind must be 'noun' or 'verb', got {kind!r}")
    return f'{word} {PREPOSITION_BY_KIND[kind]} what, in "{query}"'


class CorefStep(NamedTuple):
    pronoun: PronounMention
    question: str
    answer: SpanAnswer | None
    applied: bool


class OmissionStep(NamedTuple):
    candidate: OmissionCandidate
    preposition: str
    question: str
    answer: SpanAnswer | None
    applied: bool


class ReformulationTrace(NamedTuple):
    """Complete audit of one turn's rewrite."""

    raw_query: str
    mode: str
    coref_steps: tuple[CorefStep, ...]
    q_star: str
    omission_steps: tuple[OmissionStep, ...]
    q_double_star: str

    def to_dict(self) -> dict:
        """The trace as the plain values a trace line holds: each record a
        dict of its fields, each tuple of steps a tuple of dicts."""
        return _plain(self)


def _plain(value):
    """A record as a dict of its fields and a tuple item by item, recursively."""
    if hasattr(value, "_fields"):
        return {name: _plain(item) for name, item in zip(value._fields, value)}
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _ask(question: str, context: str, reader: ReaderBackend,
         config: Config) -> SpanAnswer | None:
    """Ask one question; None when its reader input keeps no context (an
    empty context, or a question that fills the token budget).

    The one check of any backend's answer: its int offsets slice its text
    out of the input's context, and its score is a finite int or float, as
    a trace line must hold it. Otherwise ProtocolError fails the turn.
    """
    input = build_reader_input(question, context, config)
    if not input.context.strip():
        return None
    answer = reader.extract_span(input)
    text, start, end, score = answer
    if not (type(start) is type(end) is int and 0 <= start <= end <= len(input.context)
            and input.context[start:end] == text):
        raise ProtocolError(f"span ({start!r}, {end!r}) does not match answer {text!r} "
                            "in context")
    if type(score) not in (int, float) or not math.isfinite(score):
        raise ProtocolError(f"answer score {score!r} is not a finite number")
    return answer


def _usable_text(answer: SpanAnswer | None, config: Config, surface: str) -> str | None:
    """The answer's stripped text, or None when it is missing, empty,
    scored below the floor, or only echoes the asked-about word back."""
    text = answer.text.strip() if answer is not None else ""
    usable = text and answer.score >= config.min_answer_score and text.lower() != surface.lower()
    return text if usable else None


def _splice(text: str, edits: list[tuple[int, int, str]]) -> str:
    """Apply (start, end, replacement) edits, given left to right in text's
    own offsets."""
    parts, last = [], 0
    for start, end, replacement in edits:
        parts += text[last:start], replacement
        last = end
    return "".join(parts) + text[last:]


def _has_term_run(text: str, phrase: str) -> bool:
    """Whether phrase's terms occur in text's terms as one contiguous run.

    Terms come from `normalize`, so "art" is not in "party" and "cancer" is
    not in "cancers". A phrase with no terms adds nothing and counts as
    present.
    """
    terms, within = normalize(phrase), normalize(text)
    return any(within[i:i + len(terms)] == terms for i in range(len(within) - len(terms) + 1))


def resolve_coreference(
    query: str,
    context: str,
    reader: ReaderBackend,
    config: Config,
    inventory: frozenset[str] | None = None,
) -> tuple[str, list[CorefStep]]:
    """Replace each detected pronoun with the reader's referent.

    Every question is built from the query as it stood when the stage
    started; answers are spliced in left to right. A step is skipped when
    its reader input keeps no context, the answer is empty or below the
    score floor, or the reader just echoed the pronoun back. A failed
    question raises its ZeqrError.
    """
    tokens = tokenize_and_tag(query)
    steps, edits = [], []
    for mention in detect_pronouns(tokens, inventory):
        question = make_coref_question(mention.surface, query)
        answer = _ask(question, context, reader, config)
        text = _usable_text(answer, config, mention.surface)
        applied = text is not None
        if applied:
            token = tokens[mention.token_index]
            edits.append((token.char_start, token.char_end,
                          text + "'s" if mention.is_possessive else text))
        steps.append(CorefStep(mention, question, answer, applied))
    return _splice(query, edits), steps


def resolve_omission(
    q_star: str,
    context: str,
    idf: IdfTable,
    reader: ReaderBackend,
    config: Config,
) -> tuple[str, list[OmissionStep]]:
    """Append the reader's description after each bare important word.

    Candidates are detected on q_star (coreference output), not the raw
    query, and every question is built from q_star. A step is skipped when
    its reader input keeps no context, the answer is unusable, equals the
    focal word, or already occurs in the query as rewritten so far. A
    failed question raises its ZeqrError.
    """
    tokens = tokenize_and_tag(q_star)
    steps, edits = [], []
    for candidate in find_omission_candidates(tokens, idf, config.idf_threshold,
                                              config.omission_strict):
        preposition = PREPOSITION_BY_KIND[candidate.kind]
        question = make_omission_question(candidate.surface, candidate.kind, q_star)
        answer = _ask(question, context, reader, config)
        text = _usable_text(answer, config, candidate.surface)
        applied = text is not None and not _has_term_run(_splice(q_star, edits), text)
        if applied:
            end = tokens[candidate.token_index].char_end
            edits.append((end, end, f" {preposition} {text}"))
        steps.append(OmissionStep(candidate, preposition, question, answer, applied))
    return _splice(q_star, edits), steps


def reformulate(
    turn: Turn,
    context: str,
    idf: IdfTable,
    reader: ReaderBackend,
    config: Config,
    inventory: frozenset[str] | None = None,
) -> ReformulationTrace:
    """Run the configured pipeline for one turn and return the full trace.

    full runs coreference then omission; coref_only stops after the first
    step; omission_only runs omission directly on the raw query;
    passthrough copies it. Raises the reader's ZeqrError when a question
    fails, so a turn that fails coreference asks no omission question.
    """
    q_star, coref_steps = turn.raw_query, []
    if config.mode in ("full", "coref_only"):
        q_star, coref_steps = resolve_coreference(turn.raw_query, context, reader, config,
                                                  inventory)
    q_double_star, omission_steps = q_star, []
    if config.mode in ("full", "omission_only"):
        q_double_star, omission_steps = resolve_omission(q_star, context, idf, reader, config)
    return ReformulationTrace(
        raw_query=turn.raw_query,
        mode=config.mode,
        coref_steps=tuple(coref_steps),
        q_star=q_star,
        omission_steps=tuple(omission_steps),
        q_double_star=q_double_star,
    )
