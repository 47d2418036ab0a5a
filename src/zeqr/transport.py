"""The HTTP transport shared by the remote backends: one JSON POST, retried
only when a retry can help, and `external_search`, the retriever seam that
`zeqr run --endpoint` searches through.

Connection errors, timeouts, 429 and 5xx are retried, up to MAX_ATTEMPTS
attempts in all, after a backoff of BACKOFF_S that doubles each time. Two
failures would fail the same way again, so they fail at once: any other
non-2xx status, 3xx included, which means the service rejected this
request (no redirect is followed), and an https certificate that fails
verification. A 2xx reply is decoded as UTF-8, parsed by
`ingest.parse_json` and checked against its table by `ingest.check_json`;
one that fails is a ProtocolError naming the URL and the field. An
endpoint that no request can carry is a ValueError before the first
attempt. Every attempt opens its own connection and asks the
service to close it after the reply (see the README's "Reader backends"
section for why there is no keep-alive).
"""

from __future__ import annotations

import json
import time
from urllib.parse import urlsplit

from .errors import ProtocolError, TransportError
from .ingest import SEARCH_REPLY, RunResult, check_json, json_id, parse_json

# One retry policy for every remote call: 3 attempts, 0.5 s then 1 s apart.
MAX_ATTEMPTS = 3
BACKOFF_S = 0.5
# Seconds external_search waits for each attempt's reply.
SEARCH_TIMEOUT_S = 30.0


def check_endpoint(endpoint: str) -> tuple[str, str, int | None, str]:
    """Split an endpoint URL into (scheme, host, port, path prefix).

    Raises ValueError naming the URL unless it is http:// or https:// with a
    host and holds no space, control or non-ASCII character, user info,
    query or fragment, so a bad endpoint fails before any request is made.
    (urlsplit drops a tab or a newline, and http.client cannot send the
    others. A request goes to the path prefix alone, so a query, a fragment
    or credentials would be dropped without a word.)
    """
    try:
        parts = urlsplit(endpoint)
        port = parts.port  # raises on a port that is not a number in range
    except ValueError:
        parts = None
    if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
            or "@" in parts.netloc or "?" in endpoint or "#" in endpoint
            or any(c <= " " or c >= "\x7f" for c in endpoint)):
        raise ValueError(f"endpoint {endpoint!r} is not an http:// or https:// URL "
                         "with a host and no space, control or non-ASCII character, "
                         "user info, query or fragment, e.g. http://127.0.0.1:8000")
    return parts.scheme, parts.hostname, port, parts.path.rstrip("/")


def _retryable(status: int) -> bool:
    return status == 429 or status >= 500


def post_json(endpoint: str, path: str, payload: dict, reply: dict, timeout: float) -> dict:
    """POST payload as JSON to endpoint + path and return the decoded reply.

    Each attempt waits at most `timeout` seconds for a reply. Raises
    TransportError, carrying the attempts made, when no 2xx reply
    arrives, and ProtocolError when a 2xx reply is not JSON that
    `ingest.parse_json` reads from UTF-8, or breaks `reply`, a table of
    `ingest` (fields beyond it are allowed).
    """
    import http.client
    import ssl

    scheme, host, port, prefix = check_endpoint(endpoint)
    connection_class = (http.client.HTTPSConnection if scheme == "https"
                        else http.client.HTTPConnection)
    url = prefix + path
    endpoint = endpoint.rstrip("/")
    # bytes, so http.client sends the request line, headers and body in one
    # write and Nagle's algorithm has nothing to hold back
    body = json.dumps(payload).encode()
    headers = {"Content-Type": "application/json", "Connection": "close"}
    last_error = ""
    for attempt in range(1, MAX_ATTEMPTS + 1):
        connection = connection_class(host, port, timeout=timeout)
        try:
            connection.request("POST", url, body, headers)
            response = connection.getresponse()
            status, data = response.status, response.read()
        except ssl.SSLCertVerificationError as exc:
            raise TransportError(f"{type(exc).__name__}: {exc}", endpoint=endpoint,
                                 attempts=attempt)
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"{type(exc).__name__}: {exc}"
        else:
            if 200 <= status < 300:
                try:
                    data = parse_json(data.decode("utf-8"))
                    check_json(data, reply, "response", closed=False)
                    return data
                except ValueError as exc:
                    raise ProtocolError(f"{endpoint}{path}: {exc}") from None
            last_error = f"HTTP {status} from {endpoint}{path}"
            if not _retryable(status):
                raise TransportError(last_error, endpoint=endpoint, attempts=attempt)
        finally:
            connection.close()
        if attempt < MAX_ATTEMPTS:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
    raise TransportError(last_error, endpoint=endpoint, attempts=MAX_ATTEMPTS)


def external_search(
    endpoint: str,
    query: str,
    k: int,
    *,
    query_id: str,
    tag: str = "external",
) -> RunResult:
    """Delegate ranking to a retriever behind the /search wire contract.

    POST {endpoint}/search with {"query", "k"}; the response is
    {"hits": [{"doc_id", "score"}, ...]} ranked best-first, and it and
    each hit may hold other fields. The reply is checked against
    `ingest.SEARCH_REPLY`, so every hit id is an integer or a string that
    fits a run line (read by `ingest.json_id`); it holds at most k hits,
    and the ranking must keep the RunResult invariants.

    Raises TransportError from `post_json` when no 2xx reply arrives, as a
    remote reader does, and ProtocolError naming the URL when the reply
    breaks the contract.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    data = post_json(endpoint, "/search", {"query": query, "k": k}, SEARCH_REPLY,
                     SEARCH_TIMEOUT_S)
    try:
        hits = data["hits"]
        if len(hits) > k:
            raise ValueError(f"response holds {len(hits)} hits for k={k}")
        return RunResult(query_id=query_id, tag=tag,
                         ranked=[(json_id(hit["doc_id"]), float(hit["score"])) for hit in hits])
    except ValueError as exc:
        raise ProtocolError(f"{endpoint.rstrip('/')}/search: {exc}") from None
