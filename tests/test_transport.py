"""post_json on its own HTTP/1.1 client, checked against the two versions
it replaced: the `http.client` one (same header lines in the same order,
same results, same errors, same connection counts, over every response
framing the client reads and over HTTPS) and the `requests` one before it
(same bytes, results and errors on plain responses).  Plus which statuses
get a second attempt, what is refused before a byte is sent, the import
hygiene that keeps the CLI start-up lean, and the connections a stage
worker keeps: the same results over fewer connections, a closed one
replaced, no delayed-ACK wait, and none left open.
"""
import http
import http.server
import json
import os
import socket
import ssl
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import pytest
import yaml

from vmweval import cli
from vmweval.errors import TransportError
from vmweval.llm import ChatMessage, ChatRequest
from vmweval.transport import kept_connections, post_json

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# A self-signed certificate for 127.0.0.1, valid until 2126, made with
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes
#     -days 36500 -subj "/CN=127.0.0.1" -addext "subjectAltName=IP:127.0.0.1"
#     -keyout loopback_tls.key -out loopback_tls.crt
TLS_CERT = TESTS / "fixtures" / "loopback_tls.crt"
TLS_KEY = TESTS / "fixtures" / "loopback_tls.key"

# The oracle's client errors that may pass on a second attempt.
_RETRIED_4XX = (408, 429)


def post_json_http_client(url, payload, api_key, timeout, what):
    """The former post_json, on http.client, kept verbatim as the oracle."""
    import http.client  # deferred: importing it slows every CLI start-up
    from urllib.parse import urlsplit

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


def post_json_requests(url, payload, api_key, timeout, what):
    """The post_json before that, on requests, kept verbatim as the oracle."""
    import requests

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


# --- response framings ------------------------------------------------------------

def _head(status, *fields):
    lines = [f"HTTP/1.1 {status} {http.HTTPStatus(status).phrase}", *fields]
    return "".join(f"{line}\r\n" for line in lines).encode("latin-1") + b"\r\n"


def _chunks(data):
    """`data` in two chunks, each with a chunk extension, then a trailer."""
    half = len(data) // 2
    return b"".join(b"%x;piece=%d\r\n%s\r\n" % (len(piece), i, piece)
                    for i, piece in enumerate((data[:half], data[half:]))
                    ) + b"0\r\nX-Checksum: none\r\n\r\n"


FRAMINGS = {
    "length": lambda status, data: _head(
        status, "Content-Type: application/json",
        f"Content-Length: {len(data)}") + data,
    "chunked": lambda status, data: _head(
        status, "Transfer-Encoding: chunked") + _chunks(data),
    # the connection closes in the middle of the second chunk
    "chunked-cut": lambda status, data: _head(
        status, "Transfer-Encoding: chunked") + _chunks(data)[:-31],
    "close-delimited": lambda status, data: _head(
        status, "Content-Type: application/json") + data,
    "continue": lambda status, data: _head(100) + FRAMINGS["length"](
        status, data),
    "early-hints": lambda status, data: _head(
        103, "Link: </style.css>; rel=preload") + FRAMINGS["length"](
        status, data),
    # bytes after the body that a client reading to the end would decode
    "mixed-case": lambda status, data: _head(
        status, "content-TYPE: application/json",
        f"cOnTeNt-LeNgTh: {len(data)}") + data + b"\r\nnot JSON",
    # the server keeps the connection open after the body
    "keep-open": lambda status, data: FRAMINGS["length"](status, data),
    "short": lambda status, data: _head(
        status, f"Content-Length: {len(data) + 7}") + data,
}


# The framings whose end the server marks by closing the connection.
CLOSING = ("chunked-cut", "close-delimited", "short")


class RecordingServer:
    """Loopback server that answers from a script and records each request's
    path, header lines (in order, as received) and raw body bytes, and each
    connection, and each connection's end.  A script entry is (status, body)
    or (status, body, framing), one of FRAMINGS.  It closes the connection
    after each response, but "keep-open" holds it until close().  With
    keep_alive=True it serves requests on the connection until the client
    closes it or asks it to, or a framing in CLOSING ends it.  With tls=True
    it serves HTTPS with the fixture certificate."""

    def __init__(self, script, tls=False, keep_alive=False):
        self.script = list(script)
        self.requests = []
        self.connections = 0
        self.ended = []  # one entry per connection the server is done with
        self.released = threading.Event()
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            if keep_alive:
                protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                server.connections += 1

            def finish(self):
                super().finish()
                server.ended.append(self.client_address)

            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                server.requests.append({"path": self.path,
                                        "headers": self.headers.items(),
                                        "body": raw})
                status, data, *framing = server.script.pop(0) \
                    if len(server.script) > 1 else server.script[0]
                framing = framing[0] if framing else "length"
                self.wfile.write(FRAMINGS[framing](status, data))
                if framing in CLOSING:
                    self.close_connection = True
                if framing == "keep-open" and not keep_alive:
                    server.released.wait(30)

            def log_message(self, *args):
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.scheme = "http"
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            self.httpd.socket = context.wrap_socket(self.httpd.socket,
                                                    server_side=True)
            self.scheme = "https"
        self.thread = threading.Thread(
            target=lambda: self.httpd.serve_forever(poll_interval=0.02),
            daemon=True)
        self.thread.start()

    @property
    def port(self):
        return self.httpd.server_address[1]

    def url(self, path="/"):
        return f"{self.scheme}://127.0.0.1:{self.port}{path}"

    def header(self, index, name):
        values = [v for k, v in self.requests[index]["headers"]
                  if k.lower() == name.lower()]
        return values[0] if values else None

    def received(self):
        """Each request as (path, header lines, body), with this server's
        port in the Host line written as PORT."""
        return [(r["path"],
                 [(k, v.replace(str(self.port), "PORT"))
                  for k, v in r["headers"]],
                 r["body"]) for r in self.requests]

    def close(self):
        self.released.set()
        self.httpd.shutdown()
        self.httpd.server_close()


def _outcome(fn, url, payload, api_key, what, timeout=5.0):
    try:
        return ("ok", fn(url, payload, api_key, timeout, what))
    except TransportError as exc:
        return ("error", str(exc))


def _exchange(fn, script, path, payload, api_key, what):
    """(outcome, requests as received, connections) of one call."""
    server = RecordingServer(script)
    try:
        outcome = _outcome(fn, server.url(path), payload, api_key, what)
        return outcome, server.received(), server.connections
    finally:
        server.close()


CHAT = ("chat", "/v1/chat/completions", ChatRequest(
    model_id="m1",
    messages=(ChatMessage(role="system", content="Réponds « oui » ou non."),
              ChatMessage(role="user", content="He kicked the bucket — 死んだ?")),
    temperature=0.9, top_p=0.95).payload())
MT = ("mt", "/translate?system=a",
      {"text": "Ça coûte «cher»: 3½ € in Zürich.", "source_lang": "en",
       "target_lang": "de"})
QE = ("qe", "/qe", {"source": "He took the lion's share.",
                    "hypothesis": "Er nahm den Löwenanteil.   tab\t"})
PAYLOADS = [CHAT, MT, QE]


def _json(body, ascii_only=True):
    return json.dumps(body, ensure_ascii=ascii_only).encode("utf-8")


GOOD = {"chat": {"choices": [{"message": {"content": "Final Answer: Ja — 是"}}]},
        "mt": {"translation": "Größe ist 0.1 + 0.2 = 0.30000000000000004"},
        "qe": {"score": 0.30000000000000004}}

SCRIPTS = {
    "200": lambda what: [(200, _json(GOOD[what], ascii_only=False))],
    "500-then-200": lambda what: [(500, _json({"error": "flaky"})),
                                  (200, _json(GOOD[what]))],
    "503-twice": lambda what: [(503, _json({"error": "down"}))],
    "undecodable-200": lambda what: [(200, b"garbage{{{")],
}


@pytest.mark.parametrize("api_key", [None, "tok-123"])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
@pytest.mark.parametrize("what,path,payload", PAYLOADS,
                         ids=[p[0] for p in PAYLOADS])
def test_matches_http_client_oracle(what, path, payload, script, api_key):
    new = _exchange(post_json, SCRIPTS[script](what), path, payload,
                    api_key, what)
    old = _exchange(post_json_http_client, SCRIPTS[script](what), path,
                    payload, api_key, what)
    assert new == old
    assert new[1][0][2] == json.dumps(payload, allow_nan=False).encode("utf-8")


@pytest.mark.parametrize("api_key", [None, "tok-123"])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
@pytest.mark.parametrize("what,path,payload", PAYLOADS,
                         ids=[p[0] for p in PAYLOADS])
def test_matches_requests_oracle(what, path, payload, script, api_key):
    pytest.importorskip("requests")
    new = _exchange(post_json, SCRIPTS[script](what), path, payload,
                    api_key, what)
    old = _exchange(post_json_requests, SCRIPTS[script](what), path, payload,
                    api_key, what)

    def compared(exchange):
        # requests sends headers of its own; compare the ones we set
        outcome, received, _ = exchange
        return outcome, [(path, body, dict(headers).get("Content-Type"),
                          dict(headers).get("Authorization"))
                         for path, headers, body in received]
    assert compared(new) == compared(old)


# How each framing ends for the qe payload: outcome and connections.
FRAMED = {
    "length": (("ok", GOOD["qe"]), 1),
    "chunked": (("ok", GOOD["qe"]), 1),
    "chunked-cut": (("error", "qe backend unreachable: "
                              "IncompleteRead(15 bytes read)"), 2),
    "close-delimited": (("ok", GOOD["qe"]), 1),
    "continue": (("ok", GOOD["qe"]), 1),
    "mixed-case": (("ok", GOOD["qe"]), 1),
    "keep-open": (("ok", GOOD["qe"]), 1),
    "short": (("error", "qe backend unreachable: "
                        "IncompleteRead(30 bytes read, 7 more expected)"), 2),
}


@pytest.mark.parametrize("framing", sorted(FRAMED))
@pytest.mark.parametrize("what,path,payload", PAYLOADS,
                         ids=[p[0] for p in PAYLOADS])
def test_framings_match_http_client_oracle(what, path, payload, framing):
    script = [(200, _json(GOOD[what], ascii_only=False), framing)]
    new = _exchange(post_json, script, path, payload, "tok-123", what)
    old = _exchange(post_json_http_client, script, path, payload, "tok-123",
                    what)
    assert new == old
    if what == "qe":
        assert (new[0], new[2]) == FRAMED[framing]


def test_any_interim_response_is_skipped():
    # http.client skips 100 alone, so there is no oracle for 103
    outcome, _, connections = _exchange(
        post_json, [(200, _json(GOOD["qe"]), "early-hints")], "/qe", QE[2],
        None, "qe")
    assert (outcome, connections) == (("ok", GOOD["qe"]), 1)


def test_body_with_a_length_returns_while_the_server_keeps_the_connection():
    server = RecordingServer([(200, _json(GOOD["qe"]), "keep-open")])
    try:
        start = time.perf_counter()
        outcome = _outcome(post_json, server.url("/qe"), QE[2], None, "qe",
                           timeout=10.0)
        elapsed = time.perf_counter() - start
    finally:
        server.close()
    assert outcome == ("ok", GOOD["qe"])
    assert elapsed < 2.0


@pytest.mark.parametrize("path, api_key", [
    ("/qe", "tok\r\nX-Injected: 1"),
    ("/qe", "tok\nsecond"),
    ("/qe", "tok\rsecond"),
    ("/q e", None),
    ("/q\x00e", None),
    ("/q\x7fe", None),
    ("/qé", None),
], ids=["crlf-key", "lf-key", "cr-key", "space-path", "nul-path", "del-path",
        "non-ascii-path"])
def test_unsendable_request_fails_before_a_byte_is_sent(path, api_key):
    new = _exchange(post_json, [(200, _json(GOOD["qe"]))], path, QE[2],
                    api_key, "qe")
    old = _exchange(post_json_http_client, [(200, _json(GOOD["qe"]))], path,
                    QE[2], api_key, "qe")
    assert new == old
    assert new[0][0] == "error"
    assert new[0][1].startswith("qe backend unreachable: ")
    assert new[1:] == ([], 0)


def test_folded_api_key_is_refused():
    # http.client sent a line break followed by a space as a folded header
    outcome, received, connections = _exchange(
        post_json, [(200, _json(GOOD["qe"]))], "/qe", QE[2], "tok\r\n x",
        "qe")
    assert outcome == ("error", "qe backend unreachable: Invalid header value "
                                "b'Bearer tok\\r\\n x'")
    assert (received, connections) == ([], 0)


def test_one_connection_per_attempt():
    script = [(500, _json({})), (200, _json({"score": 1.5}))]
    server = RecordingServer(script)
    try:
        outcome = _outcome(post_json, server.url("/qe"), QE[2], None, "qe")
    finally:
        server.close()
    assert outcome == ("ok", {"score": 1.5})
    assert len(server.requests) == 2
    assert server.connections == 2
    assert [server.header(i, "Connection") for i in range(2)] == ["close"] * 2


@pytest.mark.parametrize("status, attempts", [
    (301, 2), (400, 1), (404, 1), (408, 2), (429, 2), (500, 2), (503, 2)])
def test_only_retriable_statuses_are_retried(status, attempts):
    new = _exchange(post_json, [(status, _json({}))], "/qe", QE[2], None, "qe")
    assert new == _exchange(post_json_http_client, [(status, _json({}))],
                            "/qe", QE[2], None, "qe")
    outcome, received, connections = new
    assert outcome == ("error", f"qe backend returned HTTP {status}")
    assert len(received) == attempts
    assert connections == attempts


@pytest.mark.parametrize("fn", [post_json, post_json_http_client,
                                post_json_requests],
                         ids=["post_json", "http.client", "requests"])
@pytest.mark.parametrize("url", ["localhost:8080/mt", "http:///mt",
                                 "ftp://127.0.0.1/mt", "http://127.0.0.1:x/"])
def test_unsupported_url_is_transport_error(url, fn):
    if fn is post_json_requests:
        pytest.importorskip("requests")
    with pytest.raises(TransportError, match="mt backend unreachable"):
        fn(url, MT[2], None, 1.0, "mt")


def test_non_finite_payload_is_transport_error():
    with pytest.raises(TransportError, match="qe backend unreachable"):
        post_json("http://127.0.0.1:9/", {"score": float("nan")}, None, 1.0,
                  "qe")


# --- connections kept inside a worker ----------------------------------------------

# The framings after which a connection may carry another request.
REUSABLE = ("chunked", "continue", "early-hints", "keep-open", "length")


def _two_calls(script, kept):
    """(outcomes, requests as received without their Connection line,
    Connection lines, connections) of two qe calls to a keep-alive server,
    made inside kept_connections() when `kept`."""
    server = RecordingServer(script, keep_alive=True)
    try:
        with kept_connections() if kept else nullcontext():
            outcomes = [_outcome(post_json, server.url("/qe"), QE[2],
                                 "tok-123", "qe") for _ in range(2)]
        received = [(path, [h for h in headers if h[0] != "Connection"], body)
                    for path, headers, body in server.received()]
        lines = [server.header(i, "Connection")
                 for i in range(len(server.requests))]
        return outcomes, received, lines, server.connections
    finally:
        server.close()


# (script, whether its responses leave the connection reusable) of every
# framing and of every status test_only_retriable_statuses_are_retried sends
KEPT = {**{f"200-{framing}": ([(200, _json(GOOD["qe"]), framing)],
                              framing in REUSABLE)
           for framing in FRAMINGS},
        **{f"status-{status}": ([(status, _json({}))], True)
           for status in (301, 400, 404, 408, 429, 500, 503)}}


@pytest.mark.parametrize("case", sorted(KEPT))
def test_a_kept_connection_changes_only_the_connections(case):
    script, reusable = KEPT[case]
    outcomes, received, lines, connections = _two_calls(script, kept=True)
    fresh = _two_calls(script, kept=False)
    assert (outcomes, received) == fresh[:2]
    assert lines == [None] * len(received)
    assert fresh[2] == ["close"] * len(received)
    # one connection per attempt, unless the response leaves it reusable
    assert fresh[3] == len(received)
    assert connections == (1 if reusable else len(received))


@pytest.mark.parametrize("statuses, requests",
                         [((200,), 2), ((200, 503, 200), 3)],
                         ids=["200", "then-503-200"])
def test_a_kept_connection_the_server_closed_is_replaced(statuses, requests):
    # the server closes after each response without saying so; the request
    # sent on the closed connection is sent again, and that is no attempt,
    # so the second call's 503 still gets its retry
    server = RecordingServer([(status, _json(GOOD["qe"]))
                              for status in statuses])
    try:
        with kept_connections():
            outcomes = [_outcome(post_json, server.url("/qe"), QE[2], None,
                                 "qe") for _ in range(2)]
    finally:
        server.close()
    assert outcomes == [("ok", GOOD["qe"])] * 2
    assert len(server.requests) == server.connections == requests


def test_https_calls_share_one_handshake(monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    server = RecordingServer([(200, _json(GOOD["qe"]))], tls=True,
                             keep_alive=True)
    try:
        with kept_connections():
            outcomes = [_outcome(post_json, server.url("/qe"), QE[2], None,
                                 "qe") for _ in range(10)]
    finally:
        server.close()
    assert outcomes == [("ok", GOOD["qe"])] * 10
    assert (len(server.requests), server.connections) == (10, 1)


class TwoSendHandler(http.server.BaseHTTPRequestHandler):
    """Writes the headers and the body of each response in two sends,
    without TCP_NODELAY, as `http.server` does."""
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        data = _json(GOOD["qe"])
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_a_kept_connection_does_not_wait_for_a_delayed_ack():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), TwoSendHandler)
    thread = threading.Thread(
        target=lambda: httpd.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{httpd.server_address[1]}/qe"
    try:
        with kept_connections():
            post_json(url, QE[2], None, 5.0, "qe")  # opens the connection
            start = time.perf_counter()
            for _ in range(10):
                assert post_json(url, QE[2], None, 5.0, "qe") == GOOD["qe"]
            elapsed = time.perf_counter() - start
    finally:
        httpd.shutdown()
        httpd.server_close()
    # ten delayed ACKs would take about 0.4 s
    assert elapsed < 0.2


def test_without_quickack_nothing_is_kept(monkeypatch):
    monkeypatch.delattr(socket, "TCP_QUICKACK")
    script = [(500, _json({})), (200, _json(GOOD["qe"]))]
    outcomes, _, lines, connections = _two_calls(script, kept=True)
    assert outcomes == [("ok", GOOD["qe"])] * 2
    assert lines == ["close"] * 3
    assert connections == 3


def test_a_stage_keeps_a_connection_per_worker_and_closes_them(tmp_path):
    raw = yaml.safe_load((TESTS / "fixtures" / "runall_config.yaml").read_text())
    for section, key in (("corpus", "path"), ("lexicon", "idioms"),
                         ("da", "annotations"), ("classifier_eval", "gold")):
        raw[section][key] = str(TESTS / "fixtures" / raw[section][key])
    raw["concurrency"] = 2
    server = RecordingServer([(200, _json(GOOD["chat"]))], keep_alive=True)
    raw["backends"]["mock_llm"] = {"kind": "llm", "mode": "http",
                                   "model_id": "m1", "base_url": server.url()}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    try:
        common = ["--config", str(config)]
        assert cli.main(["extract", *common, "--stage-out",
                         str(tmp_path / "c.jsonl")]) == 0
        assert cli.main(["classify", *common, "--stage-in",
                         str(tmp_path / "c.jsonl"), "--stage-out",
                         str(tmp_path / "cls.jsonl")]) == 0
        deadline = time.monotonic() + 5
        while len(server.ended) < server.connections and \
                time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        server.close()
    assert len(server.requests) > 2
    assert 1 <= server.connections <= 2
    assert len(server.ended) == server.connections


# --- fresh interpreters: HTTPS trust and import hygiene ------------------------------

def _run_python(code, *args, env_update=None, env_drop=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(env_update or {})
    for name in env_drop:
        env.pop(name, None)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


HTTPS_CALLS = (
    "import json, sys\n"
    f"sys.path.insert(0, {str(TESTS)!r})\n"
    "from test_transport import QE, _outcome, post_json_http_client\n"
    "from vmweval.transport import post_json\n"
    "print(json.dumps([_outcome(fn, sys.argv[1], QE[2], None, 'qe')\n"
    "                  for fn in (post_json, post_json_http_client)]))\n")


def test_https_trusts_the_ca_store_like_the_oracle():
    server = RecordingServer([(200, _json(GOOD["qe"]))], tls=True)
    try:
        trusted = _run_python(HTTPS_CALLS, server.url("/qe"),
                              env_update={"SSL_CERT_FILE": str(TLS_CERT)})
        untrusted = _run_python(HTTPS_CALLS, server.url("/qe"),
                                env_drop=("SSL_CERT_FILE", "SSL_CERT_DIR"))
    finally:
        server.close()
    assert trusted.returncode == 0, trusted.stderr
    assert json.loads(trusted.stdout) == [["ok", GOOD["qe"]]] * 2
    assert len(server.requests) == 2
    assert untrusted.returncode == 0, untrusted.stderr
    new, old = json.loads(untrusted.stdout)
    assert new == old
    assert new[0] == "error"
    assert new[1].startswith("qe backend unreachable: [SSL: "
                             "CERTIFICATE_VERIFY_FAILED]")


def test_cli_import_leaves_http_client_unloaded():
    done = _run_python(
        "import sys, vmweval.cli\n"
        "print(sorted(m for m in ('http.client', 'requests', 'socket', 'ssl')"
        " if m in sys.modules))\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_http_backend_works_without_requests():
    done = _run_python(
        "import sys\n"
        "import http.server, json, threading\n"
        "sys.modules['requests'] = None\n"
        "sys.modules['http.client'] = None\n"
        "sys.modules['ssl'] = None\n"
        "from vmweval.mt import HttpMTBackend\n"
        "class H(http.server.BaseHTTPRequestHandler):\n"
        "    def do_POST(self):\n"
        "        body = json.loads(self.rfile.read(\n"
        "            int(self.headers['Content-Length'])))\n"
        "        data = json.dumps({'translation': body['text'].upper()})"
        ".encode()\n"
        "        self.send_response(200)\n"
        "        self.send_header('Content-Length', str(len(data)))\n"
        "        self.end_headers()\n"
        "        self.wfile.write(data)\n"
        "    def log_message(self, *args):\n"
        "        pass\n"
        "srv = http.server.HTTPServer(('127.0.0.1', 0), H)\n"
        "threading.Thread(target=srv.serve_forever, daemon=True).start()\n"
        "url = 'http://127.0.0.1:%d/' % srv.server_address[1]\n"
        "backend = HttpMTBackend(base_url=url, system_id='a', timeout=5.0)\n"
        "print(backend.translate_text('hallo', 'de'))\n"
        "srv.shutdown()\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "HALLO"
