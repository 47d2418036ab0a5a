import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from conftest import FixedReader
from zeqr.datamodel import Config, Session, Turn, context_for_turn
from zeqr.errors import ProtocolError, TransportError
from zeqr.reader import (
    EchoReader,
    OracleReader,
    ReaderInput,
    RemoteReader,
    SpanAnswer,
    TransformersReader,
    build_reader_input,
    make_reader,
)
from zeqr.reformulator import _ask
from zeqr.text import count_tokens, truncate_tokens

CONTEXT = "first question The answer mentions Lobular Neoplasia here."


# ---- build_reader_input ----

def test_empty_question_rejected():
    with pytest.raises(ValueError):
        build_reader_input("  ", CONTEXT, Config())


def test_biopsy_context_segment(biopsy_session, biopsy_oracle):
    ctx = context_for_turn(biopsy_session, 4, Config())
    rinput = build_reader_input("What is that refer to?", ctx, Config())
    assert "Lobular Neoplasia" in rinput.context


def test_context_truncated_to_budget_never_question():
    config = Config(reader_max_tokens=64)
    question = " ".join(f"q{i}" for i in range(20))
    ctx = " ".join(f"c{i}" for i in range(64))
    rinput = build_reader_input(question, ctx, config)
    assert count_tokens(rinput.question) + 1 + count_tokens(rinput.context) <= 64
    assert rinput.question == question


def _two_stage_cut(question, session, turn_id, config):
    """The reader input as it was once built, with the budget applied twice:
    first to the passage alone (reader_max_tokens less the prior queries),
    then to the whole context text (less the question and separator)."""
    prior = session.turns[:turn_id - 1]
    queries = [t.raw_query for t in prior]
    passage = next((t.canonical_answer for t in reversed(prior)
                    if t.canonical_answer is not None), None)
    if passage is not None:
        budget = config.reader_max_tokens - sum(count_tokens(q) for q in queries)
        if count_tokens(passage) > max(budget, 0):
            passage = truncate_tokens(passage, budget)
    context = " ".join(p for p in queries + [passage] if p)
    budget = config.reader_max_tokens - count_tokens(question) - 1
    return ReaderInput(question=question.strip(),
                       context=truncate_tokens(context, max(budget, 0)))


@st.composite
def _spaced_text(draw, min_words=0):
    """Words joined and surrounded by runs of mixed whitespace."""
    words = draw(st.lists(st.text("abxyz.?", min_size=1, max_size=4),
                          min_size=min_words, max_size=40))
    gaps = draw(st.lists(st.sampled_from([" ", "   ", "\t", " \n "]),
                         min_size=len(words) + 1, max_size=len(words) + 1))
    return gaps[0] + "".join(word + gap for word, gap in zip(words, gaps[1:]))


@st.composite
def _session_and_turn(draw):
    count = draw(st.integers(1, 5))
    turns = tuple(Turn(i, draw(_spaced_text(1)), draw(st.none() | _spaced_text()))
                  for i in range(1, count + 1))
    return Session("s", turns), draw(st.integers(1, count))


@given(_session_and_turn(), _spaced_text(1), st.integers(1, 64))
def test_one_budget_cut_equals_the_two_stage_cut(session_and_turn, question, max_tokens):
    # the passage cut dropped from context_for_turn always kept at least
    # what the reader input's cut keeps, so dropping it changes no input
    session, turn_id = session_and_turn
    config = Config(reader_max_tokens=max_tokens)
    assert build_reader_input(question, context_for_turn(session, turn_id, config), config) == \
        _two_stage_cut(question, session, turn_id, config)


# ---- OracleReader ----

def test_oracle_answers_with_offsets():
    oracle = OracleReader({"q?": "Lobular Neoplasia"})
    rinput = build_reader_input("q?", CONTEXT, Config())
    answer = oracle.extract_span(rinput)
    assert answer.text == "Lobular Neoplasia"
    assert rinput.context[answer.char_start:answer.char_end] == answer.text
    assert answer.score == 1.0


def test_oracle_miss_is_no_answer():
    oracle = OracleReader({})
    answer = oracle.extract_span(build_reader_input("q?", CONTEXT, Config()))
    assert answer.text == ""
    assert answer.score == 0.0


def test_oracle_non_extractive_fixture_is_loud():
    oracle = OracleReader({"q?": "not in the context at all"})
    with pytest.raises(ProtocolError):
        oracle.extract_span(build_reader_input("q?", CONTEXT, Config()))


def test_oracle_from_json(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"q?": "first"}))
    reader = make_reader(f"oracle:{path}")
    ctx = "the first question"
    assert reader.extract_span(build_reader_input("q?", ctx, Config())).text == "first"


# ---- EchoReader ----

def test_echo_covers_whole_context():
    rinput = build_reader_input("q?", CONTEXT, Config())
    answer = EchoReader().extract_span(rinput)
    assert (answer.char_start, answer.char_end) == (0, len(rinput.context))
    assert answer.text == rinput.context


@given(st.text(min_size=1, max_size=80).filter(str.strip),
       st.text(min_size=1, max_size=200).filter(str.strip))
def test_offset_faithfulness_fuzz(question, context_text):
    rinput = build_reader_input(question, context_text, Config())
    if not rinput.context.strip():
        return
    answer = EchoReader().extract_span(rinput)
    assert rinput.context[answer.char_start:answer.char_end] == answer.text


def test_span_answer_offset_validation():
    # an empty span for a non-empty answer
    reader = FixedReader(SpanAnswer(text="x", char_start=3, char_end=3, score=1.0))
    with pytest.raises(ProtocolError, match=r"^span \(3, 3\) does not match answer 'x' in"):
        _ask("q?", CONTEXT, reader, Config())


# ---- RemoteReader ----

def test_remote_reader_contract(extract_service):
    def respond(question, context):
        start = context.find("Neoplasia")
        return 200, {"answer": "Neoplasia", "start": start, "end": start + len("Neoplasia"),
                     "score": 0.9}

    extract_service.respond = respond
    reader = RemoteReader(extract_service.url)
    answer = reader.extract_span(build_reader_input("q?", CONTEXT, Config()))
    assert answer.text == "Neoplasia"
    assert answer.score == pytest.approx(0.9)


def test_remote_reader_rejects_mismatched_span(extract_service):
    # the reader passes the reply on; the asking step checks it as any backend's
    extract_service.respond = lambda question, context: (
        200, {"answer": "Neoplasia", "start": 0, "end": 3, "score": 0.5})
    reader = RemoteReader(extract_service.url)
    with pytest.raises(ProtocolError, match=r"^span \(0, 3\) does not match answer "
                                            "'Neoplasia' in context$"):
        _ask("q?", CONTEXT, reader, Config())


def _parse(**changes):
    reply = {"answer": "Neoplasia", "start": 4, "end": 13, "score": 0.5, **changes}
    return RemoteReader._parse(reply)


def test_remote_reader_takes_an_integer_score_as_a_float():
    assert _parse(score=1) == SpanAnswer(text="Neoplasia", char_start=4, char_end=13,
                                         score=1.0)
    assert type(_parse(score=1).score) is float


@pytest.mark.parametrize("field, value, kind", [
    ("answer", 9, "a string"), ("answer", None, "a string"), ("answer", True, "a string"),
    ("start", 4.0, "an integer"), ("start", 4.9, "an integer"), ("start", "4", "an integer"),
    ("start", True, "an integer"), ("end", "13", "an integer"), ("end", 13.0, "an integer"),
    ("end", False, "an integer"), ("score", "0.5", "a number"), ("score", True, "a number"),
    ("score", None, "a number"), ("score", [0.5], "a number"),
])
def test_remote_reader_takes_each_field_only_as_its_json_type(field, value, kind):
    # each of these was coerced: "start": 4.9 read as 4, "score": "0.5" as 0.5
    with pytest.raises(ProtocolError, match=f"^response field '{field}' is "
                                            f"{re.escape(repr(value))}, not {kind}$"):
        _parse(**{field: value})


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf,
                                   pytest.param(10 ** 400, id="int_past_the_float_range")])
def test_remote_reader_rejects_a_non_finite_score(extract_service, score):
    # json reads NaN and Infinity, and a trace line would carry them as such
    def respond(question, context):
        start = context.find("Neoplasia")
        return 200, {"answer": "Neoplasia", "start": start, "end": start + len("Neoplasia"),
                     "score": score}

    extract_service.respond = respond
    with pytest.raises(ProtocolError, match=f"^answer score {score} is not a finite number$"):
        _ask("q?", CONTEXT, RemoteReader(extract_service.url), Config())


@pytest.mark.parametrize("field", ["answer", "start", "end", "score"])
def test_remote_reader_names_a_missing_field(field):
    reply = {"answer": "Neoplasia", "start": 4, "end": 13, "score": 0.5}
    del reply[field]
    with pytest.raises(ProtocolError, match=f"^response has no '{field}' field$"):
        RemoteReader._parse(reply)


def test_remote_reader_transport_error_carries_retry_metadata(monkeypatch, retries):
    monkeypatch.setattr("zeqr.reader.TIMEOUT_S", 0.2)
    retries(2)
    with pytest.raises(TransportError) as exc:
        RemoteReader("http://127.0.0.1:9").extract_span(
            build_reader_input("q?", CONTEXT, Config()))
    assert exc.value.attempts == 2
    assert "127.0.0.1:9" in exc.value.endpoint


def test_remote_reader_does_not_retry_a_client_error(extract_service, retries):
    extract_service.respond = lambda question, context: (400, {"error": "bad request"})
    retries(4)
    with pytest.raises(TransportError) as exc:
        RemoteReader(extract_service.url).extract_span(
            build_reader_input("q?", CONTEXT, Config()))
    assert exc.value.attempts == 1
    assert len(extract_service.questions) == 1


# ---- TransformersReader (local:) ----

def test_local_reader_returns_the_pipeline_span(stub_transformers):
    def respond(question, context):
        start = context.find("Neoplasia")
        return {"answer": "Neoplasia", "start": start, "end": start + len("Neoplasia"),
                "score": 0.75}

    stub_transformers.respond = respond
    reader = make_reader("local:ckpt")
    assert isinstance(reader, TransformersReader)
    assert stub_transformers.built == [("question-answering", "ckpt", "ckpt", -1)]
    rinput = build_reader_input("q?", CONTEXT, Config())
    answer = reader.extract_span(rinput)
    start = rinput.context.find("Neoplasia")
    assert answer == SpanAnswer(text="Neoplasia", char_start=start,
                                char_end=start + len("Neoplasia"), score=0.75)


def test_local_reader_rejects_offsets_that_disagree(stub_transformers):
    stub_transformers.respond = lambda question, context: {
        "answer": "Neoplasia", "start": 0, "end": len("Neoplasia"), "score": 0.9}
    reader = make_reader("local:ckpt")
    with pytest.raises(ProtocolError, match=r"^span \(0, 9\) does not match answer"):
        _ask("q?", CONTEXT, reader, Config())


def test_make_reader_specs():
    assert isinstance(make_reader("echo"), EchoReader)
    assert isinstance(make_reader("remote:http://x:1"), RemoteReader)
    with pytest.raises(ValueError):
        make_reader("bogus")
    with pytest.raises(ValueError):
        make_reader("oracle")
