"""Loopback reader service speaking zeqr's /extract wire contract.

Usage: python3 perfbench/reader_service.py ANSWERS_JSON SERVICE_MS

Binds 127.0.0.1 on a free port and prints ``port N`` on its first line.

- ``POST /extract`` with {"question", "context"} answers
  {"answer", "start", "end", "score"} after a fixed service time that is
  slept, not spun, so concurrent requests overlap. The answer is the
  ANSWERS_JSON entry for the question when it occurs in the context,
  otherwise the empty span at 0; either way it is an exact span of the
  request context. A request that is not a JSON object with non-empty
  string fields, or whose question fits neither of the paper's two
  templates, is answered 400.
- ``GET /stats`` returns the counters below; it is not counted in them.
  requests (POST /extract), connections (distinct TCP connections that
  carried one), busy_s (request read to response written) and non_2xx.

At most ``os.cpu_count()`` connections are served at once; further ones
wait in the listen backlog.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_QUESTION_RE = re.compile(r'^(What is \S+ refer to|\S+ (of|to) what), in ".*"$', re.S)


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.busy_s = 0.0
        self.non_2xx = 0

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "connections": self.connections,
                    "busy_s": self.busy_s, "non_2xx": self.non_2xx}


def extract(answers: dict, question: str, context: str) -> dict:
    answer = answers.get(question, "")
    start = context.find(answer) if answer else -1
    if start < 0:
        return {"answer": "", "start": 0, "end": 0, "score": 0.0}
    return {"answer": answer, "start": start, "end": start + len(answer), "score": 1.0}


def _validate(body: bytes) -> tuple[str, str]:
    data = json.loads(body)
    if not isinstance(data, dict):
        raise ValueError("request is not a JSON object")
    question, context = data.get("question"), data.get("context")
    if not (isinstance(question, str) and question and isinstance(context, str) and context):
        raise ValueError("question and context must be non-empty strings")
    if not _QUESTION_RE.match(question):
        raise ValueError("question fits neither template")
    return question, context


def make_handler(answers: dict, service_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 30  # closes an idle keep-alive connection

        def setup(self):
            super().setup()
            self.counted = False

        def log_message(self, format, *args):
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            start = time.perf_counter()
            if not self.counted:
                self.counted = True
                with stats.lock:
                    stats.connections += 1
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            status, payload = 200, None
            if self.path != "/extract":
                status, payload = 404, {"error": "not found"}
            else:
                try:
                    question, context = _validate(body)
                except ValueError as exc:
                    status, payload = 400, {"error": str(exc)}
                else:
                    time.sleep(service_s)
                    payload = extract(answers, question, context)
            self._reply(status, payload)
            with stats.lock:
                stats.requests += 1
                stats.busy_s += time.perf_counter() - start
                stats.non_2xx += status >= 300

    return Handler


class BoundedServer(ThreadingHTTPServer):
    """Serves at most `slots` connections at once."""

    daemon_threads = True

    def __init__(self, address, handler, slots: int):
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(slots)

    def process_request(self, request, client_address):
        self._slots.acquire()
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        answers = json.load(fh)
    service_s = float(sys.argv[2]) / 1000.0
    server = BoundedServer(("127.0.0.1", 0), make_handler(answers, service_s, Stats()),
                           slots=os.cpu_count() or 1)
    print(f"port {server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
