"""The one HTTP call every backend makes: POST a JSON payload, retry once.

Backends check the shape of the decoded body themselves and raise
BackendContractError, without a retry, when it is wrong.
"""
from __future__ import annotations

from .errors import TransportError


def post_json(url: str, payload: dict, api_key: str | None, timeout: float,
              what: str):
    """POST `payload` to `url` and return the decoded JSON body.

    Two attempts; a non-200 status, a connection error or an undecodable
    body on the last one raises TransportError.  `what` names the backend
    in the message ("chat", "mt", "qe").
    """
    import requests  # deferred: importing it slows every CLI start-up

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error = None
    for _ in range(2):
        try:
            resp = requests.post(url, json=payload, headers=headers,
                                 timeout=timeout)
            if resp.status_code != 200:
                last_error = TransportError(
                    f"{what} backend returned HTTP {resp.status_code}")
                continue
            return resp.json()
        except (requests.RequestException, ValueError) as exc:
            last_error = TransportError(f"{what} backend unreachable: {exc}")
    raise last_error
