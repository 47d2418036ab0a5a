"""The machine-reading seam: input formatting and span-extraction backends.

A backend is anything with extract_span(ReaderInput) -> SpanAnswer.
Batches of questions go through extract_spans(reader, inputs), which uses
the backend's own extract_spans method when it has one and otherwise asks
in order. Shipped backends: OracleReader (fixture map for tests),
EchoReader (whole-context stub), RemoteReader (HTTP service, the only one
that asks a batch concurrently), TransformersReader (local extractive
checkpoint, optional dependency).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Protocol

from .datamodel import Config, DialogueContext
from .errors import NoContextError, ParseError, ProtocolError, ZeqrError
from .ingest import read_json
from .text import count_tokens, truncate_tokens
from .transport import check_endpoint, post_json

SEPARATOR = "<SEP>"

# Questions RemoteReader keeps in flight at once. A small threaded service
# serves a few connections and queues about five more in its listen
# backlog; past about eight in flight, connection attempts are dropped and
# each costs a second before it is retried.
MAX_IN_FLIGHT = 4


@dataclass(frozen=True)
class ReaderInput:
    """A formatted (question, context) pair.

    formatted is question + separator + context, with the context cut so
    the whole input fits the token budget; the question is never cut.
    """

    question: str
    context: str
    formatted: str


@dataclass(frozen=True)
class SpanAnswer:
    """An extracted answer span; offsets index into the context string."""

    text: str
    char_start: int
    char_end: int
    score: float

    def __post_init__(self):
        if self.text and self.char_start >= self.char_end:
            raise ValueError("char_start must be < char_end for non-empty answers")


class ReaderBackend(Protocol):
    def extract_span(self, input: ReaderInput) -> SpanAnswer: ...


def _answer_or_error(extract: Callable[[ReaderInput], SpanAnswer],
                     input: ReaderInput) -> SpanAnswer | ZeqrError:
    try:
        return extract(input)
    except ZeqrError as exc:
        return exc


def extract_spans(reader: ReaderBackend,
                  inputs: list[ReaderInput]) -> list[SpanAnswer | ZeqrError]:
    """Answer a batch of inputs; item i answers inputs[i].

    A question that fails holds its ZeqrError instead of an answer, so one
    failure never loses the others. A backend may define its own
    extract_spans(inputs) with this contract; otherwise the questions are
    asked one at a time, in order.
    """
    batch = getattr(reader, "extract_spans", None)
    if batch is not None:
        return batch(inputs)
    return [_answer_or_error(reader.extract_span, input) for input in inputs]


def build_reader_input(question: str, context: DialogueContext, config: Config) -> ReaderInput:
    """Serialize the dialogue context and join it to the question.

    Tokens are whitespace words for budgeting purposes; the separator
    counts as one. Any literal separator occurrences inside the inputs are
    neutralized so formatted contains exactly one.
    """
    if not question.strip():
        raise ValueError("question is empty")
    question = question.replace(SEPARATOR, " ").strip()
    context_str = context.serialize().replace(SEPARATOR, " ")
    budget = config.reader_max_tokens - count_tokens(question) - 1
    context_str = truncate_tokens(context_str, max(budget, 0))
    formatted = f"{question} {SEPARATOR} {context_str}".strip()
    return ReaderInput(question=question, context=context_str, formatted=formatted)


def _require_context(input: ReaderInput) -> str:
    if not input.context.strip():
        raise NoContextError("context segment is empty")
    return input.context


def _no_answer() -> SpanAnswer:
    return SpanAnswer(text="", char_start=0, char_end=0, score=0.0)


class OracleReader:
    """Fixture-backed reader: an explicit question -> answer map.

    The answer must occur verbatim in the context (offsets point at its
    first occurrence); a missing fixture entry yields a zero-score empty
    answer, which callers treat as "no answer".
    """

    def __init__(self, answers: dict[str, str]):
        self.answers = dict(answers)

    @classmethod
    def from_json(cls, path: str | Path) -> "OracleReader":
        data = read_json(path)
        if not isinstance(data, dict):
            raise ParseError("oracle fixture must be a JSON object", path=str(path))
        for question, answer in data.items():
            if not isinstance(answer, str):
                raise ParseError(f"answer to {question!r} is not a string: {answer!r}",
                                 path=str(path))
        return cls(data)

    def extract_span(self, input: ReaderInput) -> SpanAnswer:
        context = _require_context(input)
        answer = self.answers.get(input.question)
        if answer is None:
            return _no_answer()
        start = context.find(answer)
        if start < 0:
            raise ProtocolError(
                f"oracle answer {answer!r} does not occur in the context"
            )
        return SpanAnswer(text=answer, char_start=start, char_end=start + len(answer),
                          score=1.0)


class EchoReader:
    """Trivial stub: the whole context is the answer."""

    def extract_span(self, input: ReaderInput) -> SpanAnswer:
        context = _require_context(input)
        return SpanAnswer(text=context, char_start=0, char_end=len(context), score=1.0)


class RemoteReader:
    """HTTP backend speaking the /extract wire contract.

    POST {endpoint}/extract with {"question", "context"}; the response is
    {"answer", "start", "end", "score"} with offsets in Unicode code
    points over the request's context. An endpoint that is not an http://
    or https:// URL with a host raises ValueError here, before any question.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0, max_attempts: int = 3,
                 backoff: float = 0.5):
        check_endpoint(endpoint)
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff

    def extract_span(self, input: ReaderInput) -> SpanAnswer:
        context = _require_context(input)
        data = post_json(self.endpoint, "/extract",
                         {"question": input.question, "context": context},
                         self.timeout, self.max_attempts, self.backoff)
        return self._parse(data, context)

    def extract_spans(self, inputs: list[ReaderInput]) -> list[SpanAnswer | ZeqrError]:
        """Ask up to MAX_IN_FLIGHT questions at once; answers keep input order.

        Each question goes through extract_span, on its own connection. A
        batch of one is asked inline, without a pool.
        """
        if len(inputs) <= 1:
            return [_answer_or_error(self.extract_span, input) for input in inputs]
        with ThreadPoolExecutor(max_workers=min(MAX_IN_FLIGHT, len(inputs))) as pool:
            return list(pool.map(partial(_answer_or_error, self.extract_span), inputs))

    @staticmethod
    def _parse(data: object, context: str) -> SpanAnswer:
        if not isinstance(data, dict):
            raise ProtocolError("response is not a JSON object")
        try:
            answer = str(data["answer"])
            start = int(data["start"])
            end = int(data["end"])
            score = float(data["score"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"response missing or mistyped field: {exc}")
        if not (0 <= start <= end <= len(context)) or context[start:end] != answer:
            raise ProtocolError(
                f"span ({start}, {end}) does not match answer {answer!r} in context"
            )
        return SpanAnswer(text=answer, char_start=start, char_end=end, score=score)


class TransformersReader:
    """Local extractive checkpoint via the transformers QA pipeline.

    Requires the optional local-reader extra. Training the checkpoint is
    out of scope; any SQuAD-style extractive model works.
    """

    def __init__(self, checkpoint: str, device: int = -1):
        try:
            from transformers import pipeline
        except ImportError as exc:
            raise ImportError(
                "TransformersReader needs the 'local-reader' extra "
                "(pip install zeqr[local-reader])"
            ) from exc
        self._pipe = pipeline("question-answering", model=checkpoint,
                              tokenizer=checkpoint, device=device)

    def extract_span(self, input: ReaderInput) -> SpanAnswer:
        context = _require_context(input)
        result = self._pipe(question=input.question, context=context)
        answer = SpanAnswer(text=result["answer"], char_start=result["start"],
                            char_end=result["end"], score=float(result["score"]))
        if context[answer.char_start:answer.char_end] != answer.text:
            raise ProtocolError("model span offsets disagree with the answer text")
        return answer


def make_reader(spec: str) -> ReaderBackend:
    """Build a backend from a CLI spec string.

    Forms: `echo`, `oracle:answers.json`, `remote:http://host:port`,
    `local:/path/to/checkpoint`.
    """
    kind, _, arg = spec.partition(":")
    if kind == "echo":
        return EchoReader()
    if kind == "oracle":
        if not arg:
            raise ValueError("oracle reader needs a fixture path, e.g. oracle:answers.json")
        return OracleReader.from_json(arg)
    if kind == "remote":
        if not arg:
            raise ValueError("remote reader needs an endpoint, e.g. remote:http://host:8000")
        return RemoteReader(arg)
    if kind == "local":
        if not arg:
            raise ValueError("local reader needs a checkpoint path")
        return TransformersReader(arg)
    raise ValueError(f"unknown reader spec {spec!r}")
