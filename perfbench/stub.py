"""Loopback HTTP stub that serves the package's mock backends.

Run as its own process:

    PYTHONPATH=src python3 perfbench/stub.py --spec WORKDIR/stub.json

It prints ``port <n>`` once it listens on 127.0.0.1.  POSTs to the paths in
the spec's "paths" map are answered by the matching mock backend (the
package's MockChatBackend, MockMTBackend and MockQEBackend) after a fixed
5 ms delay, over HTTP/1.1 with keep-alive.

Faults are chosen by a hash of the request path and body, so they do not
depend on request order:

* 1 in 100 payloads answers 503 every time (the client gives up);
* 5 in 100 others answer 503 the first time the stub sees them and 200
  after that (the client's retry succeeds).

``GET /_stats`` returns the request, connection and 503 counts; ``POST
/_reset`` zeroes them and forgets which payloads were seen.  Neither is
counted.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from vmweval import llm, mt, qe, stats

DELAY_S = 0.005
PERMANENT_PER_1000 = 10
TRANSIENT_PER_1000 = 50


def payload_key(path: str, body: bytes) -> bytes:
    return hashlib.sha256(path.encode("utf-8") + b"\0" + body).digest()


def fault_class(key: bytes) -> str | None:
    """"permanent", "transient" or None for one payload key."""
    bucket = int.from_bytes(key[:4], "big") % 1000
    if bucket < PERMANENT_PER_1000:
        return "permanent"
    if bucket < PERMANENT_PER_1000 + TRANSIENT_PER_1000:
        return "transient"
    return None


class Mocks:
    """The workload's mock backends, keyed by request path."""

    def __init__(self, spec_path: Path):
        spec = json.loads(spec_path.read_text("utf-8"))
        self.routes = {}
        for name, entry in spec["backends"].items():
            path = spec["paths"][name]
            if entry["kind"] == "llm":
                backend = llm.MockChatBackend.from_file(
                    spec_path.parent / entry["script"], model_id=entry["model_id"])
            elif entry["kind"] == "mt":
                backend = mt.MockMTBackend(system_id=entry["system_id"],
                                           break_rules=entry.get("break_rules"))
            else:
                backend = qe.MockQEBackend(
                    metric_id=entry["metric_id"],
                    orientation=stats.Orientation(entry["orientation"]))
            self.routes[path] = (entry["kind"], backend)

    def answer(self, path: str, payload: dict) -> dict:
        kind, backend = self.routes[path]
        if kind == "llm":
            request = llm.ChatRequest(
                model_id=payload["model"],
                messages=tuple(llm.ChatMessage(role=m["role"], content=m["content"])
                               for m in payload["messages"]),
                temperature=payload["temperature"], top_p=payload["top_p"])
            text = backend.complete(request)
            return {"choices": [{"message": {"role": "assistant", "content": text}}]}
        if kind == "mt":
            return {"translation": backend.translate_text(payload["text"],
                                                          payload["target_lang"])}
        return {"score": backend.assess(payload["source"], payload["hypothesis"])}


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = 0
        self.connections = 0
        self.status_503 = 0
        self.seen: set[bytes] = set()

    def snapshot(self) -> dict:
        return {"requests": self.requests, "connections": self.connections,
                "status_503": self.status_503}


def make_handler(mocks: Mocks, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.counted = False

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, body: dict):
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/_stats":
                with counters.lock:
                    self._send(200, counters.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/_reset":
                with counters.lock:
                    counters.reset()
                self._send(200, {})
                return
            if self.path not in mocks.routes:
                self._send(404, {"error": "not found"})
                return
            key = payload_key(self.path, body)
            fault = fault_class(key)
            with counters.lock:
                counters.requests += 1
                if not self.counted:
                    counters.connections += 1
                    self.counted = True
                first = key not in counters.seen
                counters.seen.add(key)
                fail = fault == "permanent" or (fault == "transient" and first)
                if fail:
                    counters.status_503 += 1
            time.sleep(DELAY_S)
            if fail:
                self._send(503, {"error": "injected fault"})
                return
            self._send(200, mocks.answer(self.path, json.loads(body)))

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopback stub backend")
    parser.add_argument("--spec", required=True, help="the workload's stub.json")
    args = parser.parse_args(argv)
    counters = Counters()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0),
        make_handler(Mocks(Path(args.spec)), counters))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
