"""The HTTP transport shared by the remote backends: one JSON POST, retried
only when a retry can help.

Connection errors, timeouts, 429 and 5xx are retried with capped
exponential backoff. Any other non-2xx status means the service rejected
this request, so asking again would get the same answer: it fails at
once. Every attempt opens its own connection (see the README's "Reader
backends" section for why there is no keep-alive).
"""

from __future__ import annotations

import time

from .errors import ProtocolError, TransportError

MAX_BACKOFF_S = 4.0


def _retryable(status: int) -> bool:
    return status == 429 or status >= 500


def post_json(endpoint: str, path: str, payload: dict, timeout: float,
              max_attempts: int = 3, backoff: float = 0.5) -> object:
    """POST payload as JSON to endpoint + path and return the decoded reply.

    Raises TransportError, carrying the attempts made, when no 2xx reply
    arrives, and ProtocolError when a 2xx reply is not JSON.
    """
    import requests

    endpoint = endpoint.rstrip("/")
    last_error = ""
    for attempt in range(1, max_attempts + 1):
        try:
            response = requests.post(f"{endpoint}{path}", json=payload, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = str(exc)
        else:
            if response.ok:
                try:
                    return response.json()
                except ValueError as exc:
                    raise ProtocolError(f"non-JSON response from {endpoint}: {exc}")
            last_error = f"HTTP {response.status_code} from {endpoint}{path}"
            if not _retryable(response.status_code):
                raise TransportError(last_error, endpoint=endpoint, attempts=attempt)
        if attempt < max_attempts:
            time.sleep(min(backoff * 2 ** (attempt - 1), MAX_BACKOFF_S))
    raise TransportError(last_error, endpoint=endpoint, attempts=max_attempts)
