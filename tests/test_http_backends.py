import http.server
import json
import threading

import pytest

from vmweval.errors import BackendContractError, TransportError
from vmweval.llm import ChatMessage, ChatRequest, HttpChatBackend
from vmweval.mt import HttpMTBackend
from vmweval.qe import HttpQEBackend, Orientation


class FakeService:
    """Loopback HTTP stub: queued responses, logged request bodies.

    With a single queued response it repeats; with several it pops, so
    retry sequences can be scripted exactly.
    """

    def __init__(self):
        self.requests = []
        self._queue = []
        service = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    body = json.loads(raw)
                except ValueError:
                    body = raw.decode("utf-8", "replace")
                service.requests.append({"path": self.path,
                                         "headers": dict(self.headers),
                                         "body": body})
                status, payload = service._next()
                data = payload if isinstance(payload, bytes) else \
                    json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.02),
            daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/"

    def enqueue(self, status, payload):
        self._queue.append((status, payload))

    def _next(self):
        if not self._queue:
            return 200, {}
        if len(self._queue) > 1:
            return self._queue.pop(0)
        return self._queue[0]

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def service():
    svc = FakeService()
    yield svc
    svc.close()


def _chat_request():
    return ChatRequest(model_id="m1",
                       messages=(ChatMessage(role="system", content="be brief"),
                                 ChatMessage(role="user", content="hello")),
                       temperature=0.0, top_p=1.0)


GOOD_CHAT = {"choices": [{"message": {"content": "Final Answer: Yes"}}]}


def test_chat_wire_shape(service):
    service.enqueue(200, GOOD_CHAT)
    backend = HttpChatBackend(base_url=service.url, model_id="m1")
    assert backend.complete(_chat_request()) == "Final Answer: Yes"
    assert len(service.requests) == 1
    sent = service.requests[0]
    assert sent["body"] == {
        "model": "m1",
        "messages": [{"role": "system", "content": "be brief"},
                     {"role": "user", "content": "hello"}],
        "temperature": 0.0,
        "top_p": 1.0,
    }
    assert sent["headers"]["Content-Type"] == "application/json"
    assert "Authorization" not in sent["headers"]


def test_chat_sends_bearer_token(service):
    service.enqueue(200, GOOD_CHAT)
    backend = HttpChatBackend(base_url=service.url, model_id="m1",
                              api_key="tok-123")
    backend.complete(_chat_request())
    assert service.requests[0]["headers"]["Authorization"] == "Bearer tok-123"


def test_chat_retries_once_then_succeeds(service):
    service.enqueue(500, {"error": "flaky"})
    service.enqueue(200, GOOD_CHAT)
    backend = HttpChatBackend(base_url=service.url, model_id="m1")
    assert backend.complete(_chat_request()) == "Final Answer: Yes"
    assert len(service.requests) == 2


def test_chat_gives_up_after_two_attempts(service):
    service.enqueue(503, {"error": "down"})
    backend = HttpChatBackend(base_url=service.url, model_id="m1")
    with pytest.raises(TransportError):
        backend.complete(_chat_request())
    assert len(service.requests) == 2


def test_chat_malformed_body_is_contract_error_not_retried(service):
    service.enqueue(200, {"nope": 1})
    backend = HttpChatBackend(base_url=service.url, model_id="m1")
    with pytest.raises(BackendContractError):
        backend.complete(_chat_request())
    assert len(service.requests) == 1


@pytest.mark.parametrize("content", [None, ["Final Answer: Yes"]],
                         ids=["null", "list"])
def test_chat_content_not_a_string_is_contract_error(service, content):
    service.enqueue(200, {"choices": [{"message": {"content": content}}]})
    backend = HttpChatBackend(base_url=service.url, model_id="m1")
    with pytest.raises(BackendContractError):
        backend.complete(_chat_request())
    assert len(service.requests) == 1


def test_chat_undecodable_body_is_retried_as_transport(service):
    service.enqueue(200, b"garbage{{{")
    backend = HttpChatBackend(base_url=service.url, model_id="m1")
    with pytest.raises(TransportError):
        backend.complete(_chat_request())
    assert len(service.requests) == 2


def test_mt_wire_shape(service):
    service.enqueue(200, {"translation": "Hallo Welt."})
    backend = HttpMTBackend(base_url=service.url, system_id="sys-a",
                            api_key="k")
    assert backend.translate_text("Hello world.", "de") == "Hallo Welt."
    sent = service.requests[0]
    assert sent["body"] == {"text": "Hello world.", "source_lang": "en",
                            "target_lang": "de"}
    assert sent["headers"]["Authorization"] == "Bearer k"


def test_mt_missing_translation_key(service):
    service.enqueue(200, {"output": "Hallo"})
    backend = HttpMTBackend(base_url=service.url, system_id="sys-a")
    with pytest.raises(BackendContractError):
        backend.translate_text("Hello", "de")
    assert len(service.requests) == 1


@pytest.mark.parametrize("translation", [None, 5], ids=["null", "number"])
def test_mt_translation_not_a_string(service, translation):
    service.enqueue(200, {"translation": translation})
    backend = HttpMTBackend(base_url=service.url, system_id="sys-a")
    with pytest.raises(BackendContractError):
        backend.translate_text("Hello", "de")
    assert len(service.requests) == 1


def test_mt_retry_then_success(service):
    service.enqueue(502, {})
    service.enqueue(200, {"translation": "Ahoj."})
    backend = HttpMTBackend(base_url=service.url, system_id="sys-a")
    assert backend.translate_text("Hi.", "cs") == "Ahoj."
    assert len(service.requests) == 2


def test_qe_wire_shape(service):
    service.enqueue(200, {"score": 7.25})
    backend = HttpQEBackend(base_url=service.url, metric_id="qe20",
                            orientation=Orientation.LOWER_BETTER_0_25)
    assert backend.assess("src text", "hyp text") == 7.25
    assert service.requests[0]["body"] == {"source": "src text",
                                           "hypothesis": "hyp text"}


def test_qe_non_numeric_score(service):
    service.enqueue(200, {"score": "high"})
    backend = HttpQEBackend(base_url=service.url, metric_id="qe20",
                            orientation=Orientation.LOWER_BETTER_0_25)
    with pytest.raises(BackendContractError):
        backend.assess("a", "b")
    assert len(service.requests) == 1


def test_qe_bool_score(service):
    service.enqueue(200, {"score": True})
    backend = HttpQEBackend(base_url=service.url, metric_id="qe20",
                            orientation=Orientation.LOWER_BETTER_0_25)
    with pytest.raises(BackendContractError):
        backend.assess("a", "b")
    assert len(service.requests) == 1


def test_qe_http_error_exhausts_retries(service):
    service.enqueue(500, {})
    backend = HttpQEBackend(base_url=service.url, metric_id="qe20",
                            orientation=Orientation.LOWER_BETTER_0_25)
    with pytest.raises(TransportError):
        backend.assess("a", "b")
    assert len(service.requests) == 2


def test_unreachable_host_is_transport_error():
    dead = FakeService()
    port = dead.server.server_address[1]
    dead.close()
    backend = HttpMTBackend(base_url=f"http://127.0.0.1:{port}/",
                            system_id="sys-a", timeout=2.0)
    with pytest.raises(TransportError):
        backend.translate_text("Hi", "de")
