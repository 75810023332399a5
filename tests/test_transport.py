"""post_json on http.client, checked against the requests-based version it
replaced: same bytes on the wire, same results, same errors, same request
counts.  Plus which statuses get a second attempt, and the import hygiene
that keeps the CLI start-up lean.
"""
import http.server
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from vmweval.errors import TransportError
from vmweval.llm import ChatMessage, ChatRequest
from vmweval.transport import post_json

SRC = Path(__file__).resolve().parent.parent / "src"


def post_json_requests(url, payload, api_key, timeout, what):
    """The former post_json, kept verbatim as the oracle."""
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


class RecordingServer:
    """Loopback server that answers from a script and records each request's
    path, headers (as received) and raw body bytes, and each connection."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.connections = 0
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def setup(self):
                super().setup()
                server.connections += 1

            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                server.requests.append({"path": self.path,
                                        "headers": self.headers.items(),
                                        "body": raw})
                status, data = server.script.pop(0) if len(server.script) > 1 \
                    else server.script[0]
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=lambda: self.httpd.serve_forever(poll_interval=0.02),
            daemon=True)
        self.thread.start()

    def url(self, path="/"):
        return f"http://127.0.0.1:{self.httpd.server_address[1]}{path}"

    def header(self, index, name):
        values = [v for k, v in self.requests[index]["headers"]
                  if k.lower() == name.lower()]
        return values[0] if values else None

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


def _outcome(fn, url, payload, api_key, what):
    try:
        return ("ok", fn(url, payload, api_key, 5.0, what))
    except TransportError as exc:
        return ("error", str(exc))


def _exchange(fn, script, path, payload, api_key, what):
    server = RecordingServer(script)
    try:
        outcome = _outcome(fn, server.url(path), payload, api_key, what)
        sent = [(r["path"], r["body"],
                 server.header(i, "Content-Type"),
                 server.header(i, "Authorization"))
                for i, r in enumerate(server.requests)]
        return outcome, sent, server
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
                    "hypothesis": "Er nahm den Löwenanteil.   tab\t"})
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
def test_matches_requests_oracle(what, path, payload, script, api_key):
    pytest.importorskip("requests")
    new = _exchange(post_json, SCRIPTS[script](what), path, payload,
                    api_key, what)
    old = _exchange(post_json_requests, SCRIPTS[script](what), path, payload,
                    api_key, what)
    assert new[0] == old[0]
    assert new[1] == old[1]
    assert new[1][0][1] == json.dumps(payload, allow_nan=False).encode("utf-8")


def test_one_connection_per_attempt():
    script = [(500, _json({})), (200, _json({"score": 1.5}))]
    outcome, sent, server = _exchange(post_json, script, "/qe", QE[2],
                                      None, "qe")
    assert outcome == ("ok", {"score": 1.5})
    assert len(sent) == 2
    assert server.connections == 2
    assert [server.header(i, "Connection") for i in range(2)] == ["close"] * 2


@pytest.mark.parametrize("status, attempts", [
    (400, 1), (404, 1), (408, 2), (429, 2), (500, 2), (503, 2)])
def test_only_retriable_statuses_are_retried(status, attempts):
    outcome, sent, server = _exchange(post_json, [(status, _json({}))], "/qe",
                                      QE[2], None, "qe")
    assert outcome == ("error", f"qe backend returned HTTP {status}")
    assert len(sent) == attempts
    assert server.connections == attempts


@pytest.mark.parametrize("fn", [post_json, post_json_requests],
                         ids=["http.client", "requests"])
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


# --- import hygiene (fresh interpreters) -----------------------------------------

def _run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_http_client_unloaded():
    done = _run_python(
        "import sys, vmweval.cli\n"
        "print(sorted(m for m in ('http.client', 'requests')"
        " if m in sys.modules))\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_http_backend_works_without_requests():
    done = _run_python(
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "import http.server, json, threading\n"
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
