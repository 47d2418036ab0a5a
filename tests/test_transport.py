import json
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from zeqr.datamodel import Config, DialogueContext
from zeqr.errors import ProtocolError, TransportError
from zeqr.reader import RemoteReader, build_reader_input
from zeqr.transport import check_endpoint, post_json

# Self-signed for IP 127.0.0.1, valid 2000-2100; certificate and key in one file.
TLS_PEM = Path(__file__).parent / "fixtures" / "tls" / "localhost.pem"


class Service:
    """A loopback HTTP/1.1 service answering every POST with reply(path, body).

    reply returns (status, extra headers, body bytes) and defaults to a 200
    echo of the request JSON. delay seconds are slept before each reply.
    Every request is recorded as (path, Connection header, client port).
    Being HTTP/1.1, it keeps a connection open unless the client asks it to
    close.
    """

    def __init__(self):
        self.reply = lambda path, body: (200, {}, body)
        self.delay = 0.0
        self.requests: list[tuple[str, str | None, int]] = []
        self.url = ""


def _running(tls: bool):
    service = Service()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            service.requests.append((self.path, self.headers["Connection"],
                                     self.client_address[1]))
            time.sleep(service.delay)
            status, headers, data = service.reply(self.path, body)
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_PEM)
        server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.url = f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}"
    try:
        yield service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def service():
    yield from _running(tls=False)


@pytest.fixture
def tls_service():
    yield from _running(tls=True)


def test_non_json_2xx_is_a_protocol_error(service):
    service.reply = lambda path, body: (200, {}, b"<html>ok</html>")
    with pytest.raises(ProtocolError):
        post_json(service.url, "/extract", {}, timeout=5, max_attempts=3, backoff=0.01)
    assert len(service.requests) == 1


def test_a_stalled_reply_is_retried_until_attempts_run_out(service):
    service.delay = 0.5
    with pytest.raises(TransportError) as exc:
        post_json(service.url, "/extract", {}, timeout=0.1, max_attempts=2, backoff=0.01)
    assert exc.value.attempts == 2
    assert len(service.requests) == 2


def test_a_redirect_is_neither_followed_nor_retried(service):
    service.reply = lambda path, body: (
        (302, {"Location": "/elsewhere"}, b"") if path == "/extract" else (200, {}, b"{}"))
    with pytest.raises(TransportError) as exc:
        post_json(service.url, "/extract", {}, timeout=5, max_attempts=3, backoff=0.01)
    assert exc.value.attempts == 1
    assert "HTTP 302" in str(exc.value)
    assert [path for path, _, _ in service.requests] == ["/extract"]


def test_an_endpoint_path_prefix_is_kept(service):
    post_json(service.url + "/api/v1/", "/extract", {}, timeout=5)
    assert [path for path, _, _ in service.requests] == ["/api/v1/extract"]


def test_every_attempt_closes_its_own_connection(service):
    service.reply = lambda path, body: (503, {}, b"busy")
    with pytest.raises(TransportError) as exc:
        post_json(service.url, "/extract", {}, timeout=5, max_attempts=3, backoff=0.01)
    assert exc.value.attempts == 3
    assert [connection for _, connection, _ in service.requests] == ["close"] * 3
    assert len({port for _, _, port in service.requests}) == 3


def test_remote_reader_needs_no_requests_package(service, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # `import requests` now fails
    service.reply = lambda path, body: (200, {}, json.dumps(
        {"answer": "", "start": 0, "end": 0, "score": 0.0}).encode())
    context = DialogueContext(prior_queries=("Lobular Neoplasia",))
    answer = RemoteReader(service.url).extract_span(build_reader_input("q?", context, Config()))
    assert answer.text == ""
    assert [path for path, _, _ in service.requests] == ["/extract"]


def test_https_verifies_the_certificate(tls_service, monkeypatch):
    # not in the default CA store: every attempt fails verification
    with pytest.raises(TransportError) as exc:
        post_json(tls_service.url, "/extract", {}, timeout=5, max_attempts=2, backoff=0.01)
    assert exc.value.attempts == 2
    assert "CERTIFICATE_VERIFY_FAILED" in str(exc.value)
    assert tls_service.requests == []
    # trusted through the CA file that OpenSSL reads from the environment
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_PEM))
    assert post_json(tls_service.url, "/extract", {"a": 1}, timeout=5) == {"a": 1}


@pytest.mark.parametrize("endpoint", [
    "localhost:8000", "127.0.0.1:8000", "ftp://host/", "http://", "http://:8000",
    "http://host:port", "http://host:99999", "http://[::1", "",
])
def test_a_bad_endpoint_is_a_value_error_naming_it(endpoint):
    with pytest.raises(ValueError, match="endpoint"):
        check_endpoint(endpoint)
    with pytest.raises(ValueError):
        RemoteReader(endpoint)

