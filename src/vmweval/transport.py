"""The one HTTP call every backend makes: POST a JSON payload, retry once
when the failure may pass.

Backends check the shape of the decoded body themselves and raise
BackendContractError, without a retry, when it is wrong.

Each attempt opens its own connection and asks the server to close it.  A
server that writes a response's headers and body in two sends without
TCP_NODELAY (as `http.server` does) makes a reused connection wait for the
client's delayed ACK, about 40 ms a call; a fresh connection does not.
"""
from __future__ import annotations

import json
from urllib.parse import urlsplit

from .errors import TransportError

# Client errors that may pass on a second attempt: timeout, rate limit.
_RETRIED_4XX = (408, 429)


def post_json(url: str, payload: dict, api_key: str | None, timeout: float,
              what: str):
    """POST `payload` to `url` and return the decoded JSON body.

    Two attempts; a non-200 status, a connection error or an undecodable
    body on the last one raises TransportError.  A 4xx status other than
    408 and 429 says the request itself is wrong, so it raises at once.
    `what` names the backend in the message ("chat", "mt", "qe").
    """
    import http.client  # deferred: importing it slows every CLI start-up

    try:
        parts = urlsplit(url)
        port = parts.port
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise TransportError(f"{what} backend unreachable: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise TransportError(
            f"{what} backend unreachable: unsupported URL {url!r}")
    connection_class = (http.client.HTTPSConnection if parts.scheme == "https"
                        else http.client.HTTPConnection)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    headers = {"Content-Type": "application/json", "Connection": "close"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error = None
    for _ in range(2):
        conn = connection_class(parts.hostname, port, timeout=timeout)
        try:
            conn.request("POST", target, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            if resp.status != 200:
                last_error = TransportError(
                    f"{what} backend returned HTTP {resp.status}")
                if 400 <= resp.status < 500 and resp.status not in _RETRIED_4XX:
                    raise last_error
                continue
            return json.loads(data)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            last_error = TransportError(f"{what} backend unreachable: {exc}")
        finally:
            conn.close()
    raise last_error
