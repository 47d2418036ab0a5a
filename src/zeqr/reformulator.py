"""Two-step query reformulation: coreference resolution, then omission
resolution, each phrased as a templated question to a reading backend.

The order is fixed because pronoun replacement can surface new bare words
that omission resolution must then see. Every turn produces a full audit
trace; a skipped or unanswerable step degrades to the original wording
instead of aborting the turn. A question whose reader call fails raises
its ZeqrError, which fails the turn.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Callable

from .datamodel import Config, DialogueContext, Turn
from .errors import ZeqrError
from .ingest import IdfTable
from .linguistics import (
    OmissionCandidate,
    PronounMention,
    TaggedToken,
    detect_pronouns,
    find_omission_candidates,
    tokenize_and_tag,
)
from .reader import ReaderBackend, SpanAnswer, build_reader_input
from .text import normalize

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class CorefStep:
    pronoun: PronounMention
    question: str
    answer: SpanAnswer | None
    applied: bool


@dataclass(frozen=True)
class OmissionStep:
    candidate: OmissionCandidate
    preposition: str
    question: str
    answer: SpanAnswer | None
    applied: bool


@dataclass(frozen=True)
class ReformulationTrace:
    """Complete audit of one turn's rewrite."""

    raw_query: str
    mode: str
    coref_steps: tuple[CorefStep, ...]
    q_star: str
    omission_steps: tuple[OmissionStep, ...]
    q_double_star: str

    def to_dict(self) -> dict:
        return asdict(self)


def _usable(answer: SpanAnswer, config: Config) -> bool:
    return bool(answer.text.strip()) and answer.score >= config.min_answer_score


@dataclass(frozen=True)
class _Stage:
    """What one rewrite stage adds to the shared ask-then-splice loop.

    detect finds the items to ask about in a tagged stage input; question
    phrases one; edit turns a usable answer into (start, end, text), a
    replacement of the item's token offsets, or None to skip the step;
    step records the outcome.
    """

    name: str
    detect: Callable[[list], list]
    question: Callable[[object, str], str]
    edit: Callable[[object, TaggedToken, str, str], tuple[int, int, str] | None]
    step: Callable[[object, str, SpanAnswer | None, bool], object]


def _ask_then_splice(stage: _Stage, query: str, context: DialogueContext,
                     reader: ReaderBackend, config: Config) -> tuple[str, list]:
    """Run one stage over one query: ask each question, splicing answers in
    left to right; return the rewritten query and the steps.

    Every question is built from the stage input, never from a splice in
    progress. A question whose reader input keeps no context (an empty
    context, or a question that fills the token budget) is not asked and
    its step records no answer. A failed question raises its ZeqrError.
    """
    tokens = tokenize_and_tag(query)
    steps = []
    current = query
    delta = 0
    for item in stage.detect(tokens):
        question = stage.question(item, query)
        input = build_reader_input(question, context, config)
        try:
            answer = reader.extract_span(input) if input.context.strip() else None
        except ZeqrError:
            logger.warning("%s step failed for %r in %r", stage.name, item.surface, query)
            raise
        edit = None
        if answer is not None and _usable(answer, config):
            edit = stage.edit(item, tokens[item.token_index], answer.text.strip(), current)
        if edit is not None:
            start, end, text = edit
            current = current[:start + delta] + text + current[end + delta:]
            delta += len(text) - (end - start)
        steps.append(stage.step(item, question, answer, edit is not None))
    return current, steps


def _coref_edit(mention: PronounMention, token: TaggedToken, replacement: str, current: str):
    if replacement.lower() == mention.surface.lower():
        return None
    if mention.is_possessive:
        replacement += "'s"
    return token.char_start, token.char_end, replacement


def _coref_stage(inventory: frozenset[str] | None) -> _Stage:
    return _Stage(
        name="coreference",
        detect=lambda tokens: detect_pronouns(tokens, inventory),
        question=lambda mention, query: make_coref_question(mention.surface, query),
        edit=_coref_edit,
        step=CorefStep,
    )


def _has_term_run(text: str, phrase: str) -> bool:
    """Whether phrase's terms occur in text's terms as one contiguous run.

    Terms come from `normalize`, so "art" is not in "party" and "cancer" is
    not in "cancers". A phrase with no terms adds nothing and counts as
    present.
    """
    terms, within = normalize(phrase), normalize(text)
    return any(within[i:i + len(terms)] == terms for i in range(len(within) - len(terms) + 1))


def _omission_edit(candidate: OmissionCandidate, token: TaggedToken, description: str,
                   current: str):
    if _has_term_run(current, description) or description.lower() == candidate.surface.lower():
        return None
    return token.char_end, token.char_end, f" {PREPOSITION_BY_KIND[candidate.kind]} {description}"


def _omission_stage(idf: IdfTable, config: Config) -> _Stage:
    return _Stage(
        name="omission",
        detect=lambda tokens: find_omission_candidates(tokens, idf, config.idf_threshold,
                                                       config.omission_strict),
        question=lambda candidate, query: make_omission_question(candidate.surface,
                                                                 candidate.kind, query),
        edit=_omission_edit,
        step=lambda candidate, question, answer, applied: OmissionStep(
            candidate, PREPOSITION_BY_KIND[candidate.kind], question, answer, applied),
    )


def resolve_coreference(
    query: str,
    context: DialogueContext,
    reader: ReaderBackend,
    config: Config,
    inventory: frozenset[str] | None = None,
) -> tuple[str, list[CorefStep]]:
    """Replace each detected pronoun with the reader's referent.

    Questions are built independently from the query as it stood when the
    stage started; answers are applied left to right. A step is skipped
    when its reader input keeps no context, the answer is empty or below
    the score floor, or the reader just echoed the pronoun back.
    """
    return _ask_then_splice(_coref_stage(inventory), query, context, reader, config)


def resolve_omission(
    q_star: str,
    context: DialogueContext,
    idf: IdfTable,
    reader: ReaderBackend,
    config: Config,
) -> tuple[str, list[OmissionStep]]:
    """Append the reader's description after each bare important word.

    Candidates are detected on q_star (coreference output), not the raw
    query. A step is skipped when its reader input keeps no context, the
    answer is unusable, already occurs in the query, or equals the focal
    word.
    """
    return _ask_then_splice(_omission_stage(idf, config), q_star, context, reader, config)


def reformulate(
    turn: Turn,
    context: DialogueContext,
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
