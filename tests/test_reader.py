import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from zeqr.datamodel import Config, DialogueContext
from zeqr.errors import NoContextError, ProtocolError, TransportError
from zeqr import reader as reader_module
from zeqr.reader import (
    MAX_IN_FLIGHT,
    SEPARATOR,
    EchoReader,
    GenerativeReader,
    OracleReader,
    RemoteReader,
    SpanAnswer,
    build_reader_input,
    extract_spans,
    make_reader,
)
from zeqr.text import count_tokens

CONTEXT = DialogueContext(prior_queries=("first question",),
                          latest_answer="The answer mentions Lobular Neoplasia here.")


# ---- build_reader_input ----

def test_formatted_has_exactly_one_separator():
    rinput = build_reader_input("what is it?", CONTEXT, Config())
    assert rinput.formatted.count(SEPARATOR) == 1
    assert rinput.formatted == f"what is it? {SEPARATOR} {rinput.context}"


def test_separator_inside_inputs_is_neutralized():
    ctx = DialogueContext(prior_queries=(f"sneaky {SEPARATOR} query",))
    rinput = build_reader_input(f"q {SEPARATOR} x", ctx, Config())
    assert rinput.formatted.count(SEPARATOR) == 1


def test_empty_question_rejected():
    with pytest.raises(ValueError):
        build_reader_input("  ", CONTEXT, Config())


def test_biopsy_context_segment(biopsy_session, biopsy_oracle):
    from zeqr.datamodel import context_for_turn

    ctx = context_for_turn(biopsy_session, 4, Config())
    rinput = build_reader_input("What is that refer to?", ctx, Config())
    assert "Lobular Neoplasia" in rinput.context


def test_context_truncated_to_budget_never_question():
    config = Config(reader_max_tokens=64)
    question = " ".join(f"q{i}" for i in range(20))
    ctx = DialogueContext(prior_queries=(" ".join(f"c{i}" for i in range(64)),))
    rinput = build_reader_input(question, ctx, config)
    assert count_tokens(rinput.formatted) <= 64
    assert rinput.question == question


def test_empty_context_is_allowed_until_extraction():
    rinput = build_reader_input("anything?", DialogueContext(), Config())
    with pytest.raises(NoContextError):
        EchoReader().extract_span(rinput)


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
    ctx = DialogueContext(prior_queries=("the first question",))
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
    ctx = DialogueContext(prior_queries=(context_text,))
    rinput = build_reader_input(question, ctx, Config())
    if not rinput.context.strip():
        return
    answer = EchoReader().extract_span(rinput)
    assert rinput.context[answer.char_start:answer.char_end] == answer.text


def test_span_answer_offset_validation():
    with pytest.raises(ValueError):
        SpanAnswer(text="x", char_start=3, char_end=3, score=1.0)


# ---- RemoteReader ----

class _Handler(BaseHTTPRequestHandler):
    payload = None  # set per test

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        response = self.payload(body) if callable(self.payload) else self.payload
        data = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


def test_remote_reader_contract(http_server):
    def payload(body):
        context = body["context"]
        start = context.find("Neoplasia")
        return {"answer": "Neoplasia", "start": start, "end": start + len("Neoplasia"),
                "score": 0.9}

    _Handler.payload = staticmethod(payload)
    reader = RemoteReader(f"http://127.0.0.1:{http_server.server_port}")
    answer = reader.extract_span(build_reader_input("q?", CONTEXT, Config()))
    assert answer.text == "Neoplasia"
    assert answer.score == pytest.approx(0.9)


def test_remote_reader_rejects_mismatched_span(http_server):
    _Handler.payload = {"answer": "Neoplasia", "start": 0, "end": 3, "score": 0.5}
    reader = RemoteReader(f"http://127.0.0.1:{http_server.server_port}")
    with pytest.raises(ProtocolError):
        reader.extract_span(build_reader_input("q?", CONTEXT, Config()))


def test_remote_reader_transport_error_carries_retry_metadata():
    reader = RemoteReader("http://127.0.0.1:9", max_attempts=2, backoff=0.01,
                          timeout=0.2)
    with pytest.raises(TransportError) as exc:
        reader.extract_span(build_reader_input("q?", CONTEXT, Config()))
    assert exc.value.attempts == 2
    assert "127.0.0.1:9" in exc.value.endpoint


def test_remote_reader_does_not_retry_a_client_error(extract_service):
    extract_service.respond = lambda question, context: (400, {"error": "bad request"})
    reader = RemoteReader(extract_service.url, max_attempts=4, backoff=0.01)
    with pytest.raises(TransportError) as exc:
        reader.extract_span(build_reader_input("q?", CONTEXT, Config()))
    assert exc.value.attempts == 1
    assert len(extract_service.questions) == 1


def test_remote_batch_never_exceeds_in_flight_bound(extract_service):
    extract_service.delay = lambda question: 0.02
    extract_service.respond = lambda question, context: (
        200, {"answer": "", "start": 0, "end": 0, "score": 0.0})
    inputs = [build_reader_input(f"q{i}?", CONTEXT, Config()) for i in range(5 * MAX_IN_FLIGHT)]
    answers = extract_spans(RemoteReader(extract_service.url), inputs)
    assert [a.text for a in answers] == [""] * len(inputs)
    assert sorted(extract_service.questions) == sorted(i.question for i in inputs)
    assert 1 < extract_service.peak <= MAX_IN_FLIGHT


def test_remote_batch_of_one_runs_inline(extract_service, monkeypatch):
    monkeypatch.setattr(reader_module, "ThreadPoolExecutor", None)
    reader = RemoteReader(extract_service.url)
    assert reader.extract_spans([build_reader_input("q?", CONTEXT, Config())])[0].text == ""


def test_batch_failure_stays_with_its_item():
    # backends without extract_spans are asked in order; a failed item holds
    # its error and the others still get answers
    inputs = [build_reader_input(q, CONTEXT, Config()) for q in ("a?", "b?", "c?")]
    oracle = OracleReader({"a?": "Neoplasia", "b?": "not in the context", "c?": "answer"})
    first, second, third = extract_spans(oracle, inputs)
    assert first.text == "Neoplasia" and third.text == "answer"
    assert isinstance(second, ProtocolError)


# ---- GenerativeReader ----

def test_generative_reader_accepts_substring():
    reader = GenerativeReader(lambda prompt: "  Lobular Neoplasia \n")
    answer = reader.extract_span(build_reader_input("q?", CONTEXT, Config()))
    assert answer.text == "Lobular Neoplasia"


def test_generative_reader_rejects_non_extractive_output():
    reader = GenerativeReader(lambda prompt: "a paraphrase instead")
    with pytest.raises(ProtocolError):
        reader.extract_span(build_reader_input("q?", CONTEXT, Config()))


def test_make_reader_specs():
    assert isinstance(make_reader("echo"), EchoReader)
    assert isinstance(make_reader("remote:http://x:1"), RemoteReader)
    with pytest.raises(ValueError):
        make_reader("bogus")
    with pytest.raises(ValueError):
        make_reader("oracle")
