import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import ModuleType

import pytest

from zeqr.datamodel import Config, Session, Turn
from zeqr.ingest import IdfTable, build_idf_table, load_collection, load_qrels, load_topics
from zeqr.reader import OracleReader
from zeqr.retrieval import build_index

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


# ---- loopback reader service ----

@pytest.fixture
def retries(monkeypatch):
    """Cut the transport's backoff to 10 ms; call the fixture with a number
    to set the attempts each remote call makes."""
    monkeypatch.setattr("zeqr.transport.BACKOFF_S", 0.01)
    return lambda attempts: monkeypatch.setattr("zeqr.transport.MAX_ATTEMPTS", attempts)


def oracle_reply(answers: dict, question: str, context: str) -> tuple[int, dict]:
    """Answer /extract as OracleReader would: the fixture span, or no answer."""
    answer = answers.get(question, "")
    start = context.find(answer) if answer else -1
    if start < 0:
        return 200, {"answer": "", "start": 0, "end": 0, "score": 0.0}
    return 200, {"answer": answer, "start": start, "end": start + len(answer), "score": 1.0}


class ExtractService:
    """A loopback HTTP service; every POST is answered by respond(question, context).

    respond returns (status, JSON payload) and defaults to the mini oracle.
    delay(question) seconds are slept before answering. The service records
    every question in arrival order and in answer order, and the peak
    number of requests it held at once.
    """

    def __init__(self):
        answers = json.loads((MINI / "oracle.json").read_text(encoding="utf-8"))
        self.respond = lambda question, context: oracle_reply(answers, question, context)
        self.delay = lambda question: 0.0
        self.questions: list[str] = []
        self.answered: list[str] = []
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        self.url = ""

    def handle(self, body: dict) -> tuple[int, dict]:
        with self._lock:
            self.questions.append(body.get("question", ""))
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        time.sleep(self.delay(body.get("question", "")))
        return self.respond(body.get("question", ""), body.get("context", ""))

    def done(self, body: dict) -> None:
        with self._lock:
            self._in_flight -= 1
            self.answered.append(body.get("question", ""))


@pytest.fixture
def extract_service():
    service = ExtractService()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            # Released before the reply is written: once the client has the
            # reply it may send its next request, which must not be counted
            # while this one still is.
            try:
                status, payload = service.handle(body)
            finally:
                service.done(body)
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.url = f"http://127.0.0.1:{server.server_port}"
    try:
        yield service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
