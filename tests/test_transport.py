import json
import sys
import time

import pytest

from conftest import TLS_PEM, loopback
from zeqr.datamodel import Config
from zeqr.errors import ProtocolError, TransportError
from zeqr.reader import RemoteReader, build_reader_input
from zeqr.transport import check_endpoint, post_json


def test_non_json_2xx_is_a_protocol_error(service, retries):
    service.reply = lambda path, body: (200, {}, b"<html>ok</html>")
    with pytest.raises(ProtocolError):
        post_json(service.url, "/extract", {}, timeout=5)
    assert len(service.requests) == 1


def test_a_stalled_reply_is_retried_until_attempts_run_out(service, retries):
    service.delay = 0.5
    retries(2)
    with pytest.raises(TransportError) as exc:
        post_json(service.url, "/extract", {}, timeout=0.1)
    assert exc.value.attempts == 2
    assert len(service.requests) == 2


def test_a_redirect_is_neither_followed_nor_retried(service, retries):
    service.reply = lambda path, body: (
        (302, {"Location": "/elsewhere"}, b"") if path == "/extract" else (200, {}, b"{}"))
    with pytest.raises(TransportError) as exc:
        post_json(service.url, "/extract", {}, timeout=5)
    assert exc.value.attempts == 1
    assert "HTTP 302" in str(exc.value)
    assert [path for path, _, _ in service.requests] == ["/extract"]


def test_an_endpoint_path_prefix_is_kept(service):
    post_json(service.url + "/api/v1/", "/extract", {}, timeout=5)
    assert [path for path, _, _ in service.requests] == ["/api/v1/extract"]


def test_every_attempt_closes_its_own_connection(service, retries):
    service.reply = lambda path, body: (503, {}, b"busy")
    with pytest.raises(TransportError) as exc:
        post_json(service.url, "/extract", {}, timeout=5)
    assert exc.value.attempts == 3
    assert [connection for _, connection, _ in service.requests] == ["close"] * 3
    assert len({port for _, _, port in service.requests}) == 3


def test_remote_reader_needs_no_requests_package(service, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # `import requests` now fails
    service.reply = lambda path, body: (200, {}, json.dumps(
        {"answer": "", "start": 0, "end": 0, "score": 0.0}).encode())
    context = "Lobular Neoplasia"
    answer = RemoteReader(service.url).extract_span(build_reader_input("q?", context, Config()))
    assert answer.text == ""
    assert [path for path, _, _ in service.requests] == ["/extract"]


def test_https_verifies_the_certificate(tls_service, monkeypatch, retries):
    # not in the default CA store: every attempt fails verification
    retries(2)
    with pytest.raises(TransportError) as exc:
        post_json(tls_service.url, "/extract", {}, timeout=5)
    assert exc.value.attempts == 2
    assert "CERTIFICATE_VERIFY_FAILED" in str(exc.value)
    assert tls_service.requests == []
    # trusted through the CA file that OpenSSL reads from the environment
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_PEM))
    assert post_json(tls_service.url, "/extract", {"a": 1}, timeout=5) == {"a": 1}


def test_the_loopback_service_starts_and_stops_in_milliseconds():
    # each stop waits out one poll of the serving loop, 0.5 s at its default
    start = time.perf_counter()
    for _ in range(20):
        with loopback():
            pass
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("endpoint", [
    "localhost:8000", "127.0.0.1:8000", "ftp://host/", "http://", "http://:8000",
    "http://host:port", "http://host:99999", "http://[::1", "",
])
def test_a_bad_endpoint_is_a_value_error_naming_it(endpoint):
    with pytest.raises(ValueError, match="endpoint"):
        check_endpoint(endpoint)
    with pytest.raises(ValueError):
        RemoteReader(endpoint)

