"""Two-step query reformulation: coreference resolution, then omission
resolution, each phrased as a templated question to a reading backend.

The order is fixed because pronoun replacement can surface new bare words
that omission resolution must then see. Every turn produces a full audit
trace; a skipped or unanswerable step degrades to the original wording
instead of aborting the turn.
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
from .reader import ReaderBackend, SpanAnswer, build_reader_input, extract_spans
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


def _ask_then_splice(stage: _Stage, queries: list[str], contexts: list[DialogueContext],
                     reader: ReaderBackend, config: Config) -> list[tuple[str, list] | ZeqrError]:
    """Run one stage over many turns: ask every question in one batch, then splice.

    Each turn's questions are built from its stage input, never from a
    splice in progress, so all turns' questions go to the reader at once.
    Answers are then applied left to right per turn. A question whose
    reader input keeps no context (an empty context, or a question that
    fills the token budget) is not asked and its step records no answer;
    a turn with a failed question yields that question's error and leaves
    every other turn untouched.
    """
    plans = []
    inputs = []
    for query, context in zip(queries, contexts):
        tokens = tokenize_and_tag(query)
        items = stage.detect(tokens)
        questions = [stage.question(item, query) for item in items]
        built = [build_reader_input(q, context, config) for q in questions]
        answerable = [bool(input.context.strip()) for input in built]
        inputs.extend(input for input, ok in zip(built, answerable) if ok)
        plans.append((tokens, items, questions, answerable))
    answers = iter(extract_spans(reader, inputs))

    results: list[tuple[str, list] | ZeqrError] = []
    for query, (tokens, items, questions, answerable) in zip(queries, plans):
        asked = [next(answers) if ok else None for ok in answerable]
        failed = [(item, a) for item, a in zip(items, asked) if isinstance(a, ZeqrError)]
        if failed:
            item, error = failed[0]
            logger.warning("%s step failed for %r in %r", stage.name, item.surface, query)
            results.append(error)
            continue
        steps = []
        current = query
        delta = 0
        for item, question, answer in zip(items, questions, asked):
            edit = None
            if answer is not None and _usable(answer, config):
                edit = stage.edit(item, tokens[item.token_index], answer.text.strip(), current)
            if edit is not None:
                start, end, text = edit
                current = current[:start + delta] + text + current[end + delta:]
                delta += len(text) - (end - start)
            steps.append(stage.step(item, question, answer, edit is not None))
        results.append((current, steps))
    return results


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


def _raise_failed(result):
    """Return a one-turn result, raising the error of a failed turn."""
    if isinstance(result, ZeqrError):
        raise result
    return result


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
    return _raise_failed(_ask_then_splice(_coref_stage(inventory), [query], [context],
                                          reader, config)[0])


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
    return _raise_failed(_ask_then_splice(_omission_stage(idf, config), [q_star],
                                          [context], reader, config)[0])


def reformulate_turns(
    turns: list[Turn],
    contexts: list[DialogueContext],
    idf: IdfTable,
    reader: ReaderBackend,
    config: Config,
    inventory: frozenset[str] | None = None,
) -> list[ReformulationTrace | ZeqrError]:
    """Run the configured pipeline for many independent turns at once.

    turns[i] is rewritten against contexts[i]. The reader gets every
    coreference question in one batch, then every omission question in
    another. Item i is turn i's trace, or the error of the question that
    failed it; a failed turn asks no omission questions.

    full runs coreference then omission; coref_only stops after the first
    step; omission_only runs omission directly on the raw query;
    passthrough copies it.
    """
    mode = config.mode
    raw = [turn.raw_query for turn in turns]
    coref: list[tuple[str, list] | ZeqrError] = [(query, []) for query in raw]
    if mode in ("full", "coref_only"):
        coref = _ask_then_splice(_coref_stage(inventory), raw, contexts, reader, config)
    # A turn that failed coreference keeps its error through omission.
    omission = [o if isinstance(o, ZeqrError) else (o[0], []) for o in coref]
    if mode in ("full", "omission_only"):
        live = [i for i, o in enumerate(coref) if not isinstance(o, ZeqrError)]
        outcomes = _ask_then_splice(_omission_stage(idf, config),
                                    [coref[i][0] for i in live],
                                    [contexts[i] for i in live], reader, config)
        for i, outcome in zip(live, outcomes):
            omission[i] = outcome

    results: list[ReformulationTrace | ZeqrError] = []
    for query, first, second in zip(raw, coref, omission):
        if isinstance(second, ZeqrError):
            results.append(second)
            continue
        results.append(ReformulationTrace(
            raw_query=query,
            mode=mode,
            coref_steps=tuple(first[1]),
            q_star=first[0],
            omission_steps=tuple(second[1]),
            q_double_star=second[0],
        ))
    return results


def reformulate(
    turn: Turn,
    context: DialogueContext,
    idf: IdfTable,
    reader: ReaderBackend,
    config: Config,
    inventory: frozenset[str] | None = None,
) -> ReformulationTrace:
    """Run the configured pipeline for one turn and return the full trace.

    Raises the reader's ZeqrError when a question fails.
    """
    return _raise_failed(reformulate_turns([turn], [context], idf, reader, config,
                                           inventory=inventory)[0])
