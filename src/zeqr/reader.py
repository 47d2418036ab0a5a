"""The machine-reading seam: the reader input and span-extraction backends.

A backend is anything with extract_span(ReaderInput) -> SpanAnswer. It
takes the question and the context as a pair and joins them its own way
(a BERT-style model with its tokenizer's separator); build_reader_input
only cuts the context to the token budget; `reformulator._ask` checks
every backend's span and score. Questions are asked one at a time; `zeqr
run` rewrites up to MAX_IN_FLIGHT turns at once, in as many plain threads,
whenever a reader call or a search leaves the process. Shipped backends:
OracleReader (fixture map for tests), EchoReader (whole-context stub),
RemoteReader (HTTP service), TransformersReader (local extractive
checkpoint, optional dependency).
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Protocol

from .datamodel import Config
from .ingest import EXTRACT_REPLY, located, read_json
from .text import count_tokens, truncate_tokens
from .transport import check_endpoint, post_json

# The plain threads, and so the turns at once, that `zeqr run` rewrites
# with when a reader call or a search leaves the process (a RemoteReader or
# --endpoint; with --endpoint each thread searches its turns too, while
# zeqr's own BM25 runs in the main thread alone). Each makes one blocking
# request at a time, so reader and external retriever together have at
# most this many in flight. A small threaded service serves a few
# connections and queues about five more in its listen backlog; past about
# eight in flight, connection attempts are dropped and each costs a second
# before it is retried.
MAX_IN_FLIGHT = 4

# Seconds a RemoteReader waits for each attempt's reply.
TIMEOUT_S = 10.0


class ReaderInput(NamedTuple):
    """A (question, context) pair whose context is cut so that question,
    separator and context fit the token budget; the question is never cut.
    """

    question: str
    context: str


class SpanAnswer(NamedTuple):
    """An extracted answer span; offsets index into the context string."""

    text: str
    char_start: int
    char_end: int
    score: float


class ReaderBackend(Protocol):
    def extract_span(self, input: ReaderInput) -> SpanAnswer: ...


def build_reader_input(question: str, context: str, config: Config) -> ReaderInput:
    """Pair the question with the context text, cut to the budget.

    This is the only place the budget is applied; `context_for_turn`'s
    cap at reader_max_tokens is always above it. Tokens are whitespace
    words; the backend's separator counts as one, so the context keeps at
    most reader_max_tokens - |question| - 1 tokens, cut from the end.
    """
    if not question.strip():
        raise ValueError("question is empty")
    question = question.strip()
    budget = config.reader_max_tokens - count_tokens(question) - 1
    return ReaderInput(question=question,
                       context=truncate_tokens(context, budget))


class OracleReader:
    """Fixture-backed reader: an explicit question -> answer map.

    An entry that occurs in the reader's context is the answer at its
    first occurrence, scored 1.0. An entry that is missing, empty or
    absent from the context (the budget may have cut it) is the
    zero-score empty answer, "no answer", as the loopback services give.
    """

    def __init__(self, answers: dict[str, str]):
        self.answers = dict(answers)

    @classmethod
    def from_json(cls, path: str | Path) -> "OracleReader":
        with located(path):
            data = read_json(path)
            if not isinstance(data, dict):
                raise ValueError("oracle fixture must be a JSON object")
            for question, answer in data.items():
                if not isinstance(answer, str):
                    raise ValueError(f"answer to {question!r} is not a string: {answer!r}")
        return cls(data)

    def extract_span(self, input: ReaderInput) -> SpanAnswer:
        answer = self.answers.get(input.question, "")
        start = input.context.find(answer) if answer else -1
        if start < 0:
            return SpanAnswer(text="", char_start=0, char_end=0, score=0.0)
        return SpanAnswer(text=answer, char_start=start, char_end=start + len(answer),
                          score=1.0)


class EchoReader:
    """Trivial stub: the whole context is the answer."""

    def extract_span(self, input: ReaderInput) -> SpanAnswer:
        return SpanAnswer(text=input.context, char_start=0, char_end=len(input.context),
                          score=1.0)


class RemoteReader:
    """HTTP backend speaking the /extract wire contract.

    POST {endpoint}/extract with {"question", "context"}; the response is
    {"answer", "start", "end", "score"} with offsets in Unicode code
    points over the request's context, and may hold other fields.
    `transport.post_json` checks it against `ingest.EXTRACT_REPLY`; a reply
    that breaks it is a protocol error naming the URL and the field. An
    endpoint that is not an http:// or https:// URL with a host raises
    ValueError here, before any question.
    """

    def __init__(self, endpoint: str):
        check_endpoint(endpoint)
        self.endpoint = endpoint.rstrip("/")

    def extract_span(self, input: ReaderInput) -> SpanAnswer:
        # Taken as the JSON types they came in: no str() of a number, int()
        # of 1.9 or float() of "0.5", and no boolean as a number.
        data = post_json(self.endpoint, "/extract",
                         {"question": input.question, "context": input.context},
                         EXTRACT_REPLY, TIMEOUT_S)
        return SpanAnswer(text=data["answer"], char_start=data["start"],
                          char_end=data["end"], score=float(data["score"]))


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
        result = self._pipe(question=input.question, context=input.context)
        return SpanAnswer(text=result["answer"], char_start=result["start"],
                          char_end=result["end"], score=float(result["score"]))


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
