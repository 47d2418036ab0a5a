import binascii
import json
import ssl
import sys
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from zeqr.cli import main
from zeqr.datamodel import Config, Session, Turn
from zeqr.ingest import (_MEMBERS, INDEX_FORMAT_VERSION, IdfTable, build_idf_table,
                         load_collection, load_qrels, load_topics)
from zeqr.reader import OracleReader, ReaderInput
from zeqr.retrieval import InvertedIndex, build_index

FIXTURES = Path(__file__).parent / "fixtures"
MINI = FIXTURES / "mini"

# Breast-biopsy dialogue: queries and passages arranged so every referent the
# oracle returns occurs verbatim in the dialogue context.
BIOPSY_Q4 = "Wow, that is better than I thought.  What are common treatments?"
BIOPSY_Q4_STAR = "Wow, Lobular Neoplasia is better than I thought.  What are common treatments?"
BIOPSY_Q4_RESOLVED = (
    "Wow, Lobular Neoplasia is better than I thought.  "
    "What are common treatments of Lobular Carcinoma in Situ?"
)
BIOPSY_COREF_QUESTION = f'What is that refer to, in "{BIOPSY_Q4}"'
BIOPSY_OMISSION_QUESTION = f'treatments of what, in "{BIOPSY_Q4_STAR}"'


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    return MINI


@pytest.fixture(scope="session")
def mini_collection():
    return load_collection(MINI / "collection.jsonl")


@pytest.fixture(scope="session")
def mini_sessions(mini_index):
    return load_topics(MINI / "topics.json", mini_index.passages)


@pytest.fixture(scope="session")
def mini_qrels():
    return load_qrels(MINI / "qrels.txt")


@pytest.fixture(scope="session")
def mini_idf(mini_collection):
    return build_idf_table(mini_collection)


@pytest.fixture(scope="session")
def mini_index(mini_collection):
    return build_index(mini_collection)


def index_members(index: InvertedIndex) -> dict[str, np.ndarray]:
    """A writable array copy of each member `save_index` writes for `index`, by name."""
    doc_ids, terms = (" ".join(words).encode() for words in (index.doc_ids, index._vocab))
    return {name: np.array(memoryview(member), code) for (name, code), member in zip(
        _MEMBERS.items(), (doc_ids, terms, index.passages._blob, index._bounds,
                           index._post_docs, index._post_tfs, index.passages._offsets),
        strict=True)}


def write_index(path: Path, members: dict, meta=lambda meta: meta) -> None:
    """Lay `members` (name -> array, each cast to its little-endian
    `_MEMBERS` type, a name left out not written) out at `path` as
    `save_index` does.

    `meta` maps the metadata `save_index` would write for them, with no
    collection hash, to the line written: a JSON value, or the line's bytes.
    """
    arrays = [np.ascontiguousarray(members[name], "<" + code)
              for name, code in _MEMBERS.items() if name in members]
    line = meta({"format_version": INDEX_FORMAT_VERSION, "collection_sha256": None,
                 "counts": [len(array) for array in arrays],
                 "crc32": [binascii.crc32(array) for array in arrays]})
    data = bytearray(line if isinstance(line, bytes) else json.dumps(line).encode())
    data += b"\n"
    for array in arrays:
        data += bytes(-len(data) % 64) + array.tobytes()
    path.write_bytes(data)


@pytest.fixture(scope="session")
def mini_index_dir(tmp_path_factory) -> Path:
    """The directory `zeqr index` writes for the mini collection: its
    index.npz and idf.tsv, which `run` and `repl` (--index) and `census`
    (--idf-cache) read. Tests read it and never write to it."""
    out = tmp_path_factory.mktemp("mini_index")
    assert main(["index", "--collection", str(MINI / "collection.jsonl"),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def mini_oracle():
    return OracleReader.from_json(MINI / "oracle.json")


@pytest.fixture(scope="session")
def mini_config():
    # eta below the 2.65 default: ln(N/df) on a 20-doc corpus tops out at ln(40)
    return Config(idf_threshold=1.5)


@pytest.fixture
def hand_idf():
    """Hand-built table for paper-string fixtures, default eta 2.65."""
    high = 3.5
    low = 0.5
    return IdfTable(
        term_idf={
            "treatments": high, "lobular": high, "carcinoma": high, "situ": high,
            "neoplasia": high, "types": high, "biopsy": high, "breast": high,
            "difference": high, "bologna": low, "mortadella": high,
            "rules": high, "gmo": high, "labeling": low,
            "licenses": high, "permits": high, "activity": high, "spread": 3.0,
            "common": low, "economic": low, "eu": low, "main": low, "city": low,
            "food": low, "thought": low, "needed": low, "cancer": low,
        },
        num_docs=100,
        default_idf=0.3,
    )


@pytest.fixture
def biopsy_session():
    return Session(session_id="79", turns=(
        Turn(1, "I just had a breast biopsy for cancer. What are the most common types?",
             "The most common types of breast cancer are invasive and non-invasive. "
             "Non-invasive breast cancer is when the cancer is still contained in the "
             "milk ducts."),
        Turn(2, "Once it breaks out, how likely is it to spread?",
             "How is Lobular Carcinoma in Situ diagnosed? You often find it through a "
             "biopsy done for some other breast problem."),
        Turn(3, "How deadly is Lobular Carcinoma in Situ?",
             "It is not deadly in most cases. In this case it will be described as "
             "Lobular Neoplasia rather than a true cancer."),
        Turn(4, BIOPSY_Q4),
    ))


@pytest.fixture
def biopsy_oracle():
    return OracleReader({
        BIOPSY_COREF_QUESTION: "Lobular Neoplasia",
        BIOPSY_OMISSION_QUESTION: "Lobular Carcinoma in Situ",
    })


# ---- stub `transformers` for the local: reader ----

@pytest.fixture
def stub_transformers(monkeypatch):
    """A fake `transformers` module in sys.modules, so `local:` needs no weights.

    Its question-answering pipeline answers with respond(question, context),
    a dict shaped like the real pipeline's output (no answer by default).
    Every pipeline built is recorded in `built` as (task, model, tokenizer,
    device).
    """
    stub = ModuleType("transformers")
    stub.respond = lambda question, context: {"answer": "", "start": 0, "end": 0,
                                              "score": 0.0}
    stub.built = []

    def pipeline(task, model, tokenizer, device):
        stub.built.append((task, model, tokenizer, device))
        return lambda question, context: stub.respond(question, context)

    stub.pipeline = pipeline
    monkeypatch.setitem(sys.modules, "transformers", stub)
    return stub


# ---- the loopback HTTP service ----

# Self-signed for IP 127.0.0.1, valid 2000-2100; certificate and key in one file.
TLS_PEM = FIXTURES / "tls" / "localhost.pem"


class Service:
    """A loopback HTTP/1.1 service answering every POST with reply(path, body).

    reply returns (status, extra headers, body bytes) and defaults to a 200
    echo of the request body. delay seconds are waited before each reply;
    a reply still waiting when the service stops is never sent, since its
    client has given up.
    Every request is recorded as (path, Connection header, client port).
    Being HTTP/1.1, it keeps a connection open unless the client asks it to
    close.
    """

    def __init__(self):
        self.reply = lambda path, body: (200, {}, body)
        self.delay = 0.0
        self.stopping = threading.Event()
        self.requests: list[tuple[str, str | None, int]] = []
        self.url = ""


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        service = self.server.service
        body = self.rfile.read(int(self.headers["Content-Length"]))
        service.requests.append((self.path, self.headers["Connection"], self.client_address[1]))
        if service.stopping.wait(service.delay):
            return
        status, headers, data = service.reply(self.path, body)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def loopback(tls: bool = False) -> Iterator[Service]:
    """Serve a new Service on a free loopback port until the block exits."""
    service = Service()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.service = service
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_PEM)
        server.socket = context.wrap_socket(server.socket, server_side=True)
    # shutdown() waits for the serving loop's next poll: 0.5 s at the default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    service.url = f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}"
    try:
        yield service
    finally:
        service.stopping.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def json_reply(respond):
    """A reply answering each JSON body with respond(path, body) -> (status, JSON payload)."""
    def reply(path, body):
        status, payload = respond(path, json.loads(body))
        return status, {"Content-Type": "application/json"}, json.dumps(payload).encode()
    return reply


@pytest.fixture
def service():
    with loopback() as service:
        yield service


@pytest.fixture
def tls_service():
    with loopback(tls=True) as service:
        yield service


@pytest.fixture
def retries(monkeypatch):
    """Cut the transport's backoff to 10 ms; call the fixture with a number
    to set the attempts each remote call makes."""
    monkeypatch.setattr("zeqr.transport.BACKOFF_S", 0.01)
    return lambda attempts: monkeypatch.setattr("zeqr.transport.MAX_ATTEMPTS", attempts)


class FixedReader:
    """A library backend answering every question with one SpanAnswer."""

    def __init__(self, answer):
        self.answer = answer

    def extract_span(self, input):
        return self.answer


def oracle_reply(oracle: OracleReader, question: str, context: str) -> tuple[int, dict]:
    """Answer /extract with the oracle's own span for the question over
    the request's context: its fixture span, or no answer."""
    answer = oracle.extract_span(ReaderInput(question, context))
    return 200, {"answer": answer.text, "start": answer.char_start, "end": answer.char_end,
                 "score": answer.score}


class ExtractService:
    """A reader on a loopback Service; every POST is answered by respond(question, context).

    respond returns (status, JSON payload) and defaults to the mini oracle.
    delay(question) seconds are slept before answering. The service records
    every question in arrival order and in answer order, and the peak
    number of requests it held at once.
    """

    def __init__(self, service: Service):
        oracle = OracleReader.from_json(MINI / "oracle.json")
        self.respond = lambda question, context: oracle_reply(oracle, question, context)
        self.delay = lambda question: 0.0
        self.questions: list[str] = []
        self.answered: list[str] = []
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        self.url = service.url
        service.reply = json_reply(self._answer)

    def _answer(self, path: str, body: dict) -> tuple[int, dict]:
        question = body.get("question", "")
        with self._lock:
            self.questions.append(question)
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        # Released before the reply is written: once the client has the
        # reply it may send its next request, which must not be counted
        # while this one still is.
        try:
            time.sleep(self.delay(question))
            return self.respond(question, body.get("context", ""))
        finally:
            with self._lock:
                self._in_flight -= 1
                self.answered.append(question)


@pytest.fixture
def extract_service():
    with loopback() as service:
        yield ExtractService(service)
