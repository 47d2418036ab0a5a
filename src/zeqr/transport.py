"""The HTTP transport shared by the remote backends: one JSON POST, retried
only when a retry can help.

Connection errors, timeouts, 429 and 5xx are retried, up to MAX_ATTEMPTS
attempts in all, after a backoff of BACKOFF_S that doubles each time. Any
other non-2xx status, 3xx included, means the service rejected this
request, so asking again would get the same answer: it fails at once, and
no redirect is followed. Every attempt opens its own
connection and asks the service to close it after the reply (see the
README's "Reader backends" section for why there is no keep-alive).
"""

from __future__ import annotations

import json
import time
from urllib.parse import urlsplit

from .errors import ProtocolError, TransportError

# One retry policy for every remote call: 3 attempts, 0.5 s then 1 s apart.
MAX_ATTEMPTS = 3
BACKOFF_S = 0.5


def check_endpoint(endpoint: str) -> tuple[str, str, int | None, str]:
    """Split an endpoint URL into (scheme, host, port, path prefix).

    Raises ValueError naming the URL unless it is http:// or https:// with a
    host, so a bad endpoint fails before any request is made.
    """
    try:
        parts = urlsplit(endpoint)
        port = parts.port  # raises on a port that is not a number in range
    except ValueError:
        parts = None
    if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint {endpoint!r} is not an http:// or https:// URL "
                         "with a host, e.g. http://127.0.0.1:8000")
    return parts.scheme, parts.hostname, port, parts.path.rstrip("/")


def _retryable(status: int) -> bool:
    return status == 429 or status >= 500


def post_json(endpoint: str, path: str, payload: dict, timeout: float) -> object:
    """POST payload as JSON to endpoint + path and return the decoded reply.

    Each attempt waits at most `timeout` seconds for a reply. Raises
    TransportError, carrying the attempts made, when no 2xx reply
    arrives, and ProtocolError when a 2xx reply is not JSON.
    """
    import http.client

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
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"{type(exc).__name__}: {exc}"
        else:
            if 200 <= status < 300:
                try:
                    return json.loads(data)
                except ValueError as exc:
                    raise ProtocolError(f"non-JSON response from {endpoint}: {exc}")
            last_error = f"HTTP {status} from {endpoint}{path}"
            if not _retryable(status):
                raise TransportError(last_error, endpoint=endpoint, attempts=attempt)
        finally:
            connection.close()
        if attempt < MAX_ATTEMPTS:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
    raise TransportError(last_error, endpoint=endpoint, attempts=MAX_ATTEMPTS)
