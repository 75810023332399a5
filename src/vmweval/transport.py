"""The one HTTP call every backend makes: POST a JSON payload, retry once
when the failure may pass.

Backends check the shape of the decoded body themselves and raise
BackendContractError, without a retry, when it is wrong.

The client is a minimal HTTP/1.1 one, because this one JSON POST needs none
of `http.client`'s general machinery, whose header parsing and per-header
checks cost more client CPU than the rest of a loopback request.  It sends
the request line, the headers `http.client` sent, in the same order, and the
body as one buffer, and it reads the response's status line and headers by
splitting bytes.  The body is framed by Content-Length, by chunked transfer
coding, or, only when neither is given, by the end of the connection; 1xx
interim responses are skipped.  A response it cannot read fails the attempt
with the message `http.client` gave for it.  It reads no proxy variables and
no netrc, follows no redirect, and checks an HTTPS server's certificate and
host name against the default CA store.

Inside `kept_connections()`, the block each stage worker runs its calls in,
a request omits `Connection: close` and its connection stays open for the
thread's next call to the same scheme, host and port, one idle connection
each, when the response was HTTP/1.1, did not say `Connection: close`, was
framed by Content-Length or complete chunked coding and left no byte unread.
Anything else closes it, and the block's end closes what it kept.  A server
that writes a response's headers and body in two sends without TCP_NODELAY
(as `http.server` does) would make a kept connection wait about 40 ms a call
for the client's delayed ACK, so TCP_QUICKACK is set again before each read;
where the platform has no TCP_QUICKACK nothing is kept.  Outside the block
each attempt opens its own connection and asks the server to close it.
"""
from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from urllib.parse import urlsplit

from .errors import TransportError

# Client errors that may pass on a second attempt: timeout, rate limit.
_RETRIED_4XX = (408, 429)

# Limits on what is read of a response: one line, header lines per response.
_MAX_LINE = 65536
_MAX_HEADERS = 100

# .connections, inside kept_connections(): (scheme, host, port) -> idle socket
_kept = threading.local()


@contextmanager
def kept_connections():
    """Let post_json calls on this thread keep their connections open for
    the block, and close what is kept when it ends."""
    outer = getattr(_kept, "connections", None)
    _kept.connections = {}
    try:
        yield
    finally:
        for sock in _kept.connections.values():
            sock.close()
        _kept.connections = outer


def post_json(url: str, payload: dict, api_key: str | None, timeout: float,
              what: str):
    """POST `payload` to `url` and return the decoded JSON body.

    Two attempts; a non-200 status, a connection error or an undecodable
    body on the last one raises TransportError.  A 4xx status other than
    408 and 429 says the request itself is wrong, so it raises at once.
    `what` names the backend in the message ("chat", "mt", "qe").

    Inside `kept_connections()` an attempt goes over the thread's kept
    connection to the URL's scheme, host and port when there is one.  If that
    fails before a byte of the response arrives, as when the server closed
    the idle connection, the request is sent again on a fresh connection,
    and that does not count as an attempt.  Sending it twice is safe because
    every backend's request is a pure function of its body: the same body
    asks for the same answer (RFC 9112 section 9.3.1).
    """
    try:
        parts = urlsplit(url)
        port = parts.port
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise TransportError(f"{what} backend unreachable: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise TransportError(
            f"{what} backend unreachable: unsupported URL {url!r}")
    host = parts.hostname
    default_port = 443 if parts.scheme == "https" else 80
    port = default_port if port is None else port
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    import socket  # deferred, with ssl: importing them slows every CLI start-up
    kept = getattr(_kept, "connections", None)
    quickack = getattr(socket, "TCP_QUICKACK", None)
    if quickack is None:
        kept = None
    try:
        request = _request(host, port, port == default_port, target, body,
                           api_key, kept is not None)
    except ValueError as exc:
        raise TransportError(f"{what} backend unreachable: {exc}") from None

    key = (parts.scheme, host, port)
    context = None
    last_error = None
    attempts = 0
    while attempts < 2:
        attempts += 1
        sock = kept.pop(key, None) if kept is not None else None
        reused = sock is not None
        response = None
        try:
            if reused:
                sock.settimeout(timeout)
            else:
                sock = socket.create_connection((host, port), timeout)
            try:
                if not reused:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    if parts.scheme == "https":
                        if context is None:
                            import ssl
                            context = ssl.create_default_context()
                            context.set_alpn_protocols(["http/1.1"])
                        sock = context.wrap_socket(sock, server_hostname=host)
                sock.sendall(request)
                response = _Response(sock, kept is not None and (
                    socket.IPPROTO_TCP, quickack, 1))
                status, data = response.read()
            except BaseException:
                sock.close()
                raise
            if kept is not None and response.reusable:
                kept[key] = sock
            else:
                sock.close()
            if status != 200:
                last_error = TransportError(
                    f"{what} backend returned HTTP {status}")
                if 400 <= status < 500 and status not in _RETRIED_4XX:
                    raise last_error
                continue
            return json.loads(data)
        except (OSError, ValueError) as exc:
            if (reused and not (response and response.received)
                    and not isinstance(exc, TimeoutError)):
                attempts -= 1  # the kept connection had gone: not an attempt
                continue
            last_error = TransportError(f"{what} backend unreachable: {exc}")
    raise last_error


def _request(host: str, port: int, port_is_default: bool, target: str,
             body: bytes, api_key: str | None, keep: bool) -> bytes:
    """The request's bytes: its line, its headers and `body`, with
    `Connection: close` unless `keep`.  A target or a header value that
    cannot be sent raises ValueError."""
    found = next((c for c in target if c <= " " or c == "\x7f"), None)
    if found:
        raise ValueError(f"URL can't contain control characters. {target!r} "
                         f"(found at least {found!r})")
    line = f"POST {target} HTTP/1.1\r\n".encode("ascii")
    try:
        host_field = host.encode("ascii")
    except UnicodeEncodeError:
        host_field = host.encode("idna")
    if ":" in host:
        host_field = b"[" + host_field + b"]"
    if not port_is_default:
        host_field += b":%d" % port
    fields = [b"Host: " + host_field,
              b"Accept-Encoding: identity",
              b"Content-Length: %d" % len(body),
              b"Content-Type: application/json"]
    if not keep:
        fields.append(b"Connection: close")
    if api_key:
        value = f"Bearer {api_key}".encode("latin-1")
        if b"\r" in value or b"\n" in value:
            raise ValueError(f"Invalid header value {value!r}")
        fields.append(b"Authorization: " + value)
    return line + b"\r\n".join(fields) + b"\r\n\r\n" + body


class _Response:
    """Reads one response from a connected socket, setting `quickack`, a
    (level, option, value) socket option or False, before each read.  What
    cannot be read as HTTP/1.x raises ValueError."""

    def __init__(self, sock, quickack):
        self.sock = sock
        self.quickack = quickack
        self.buffer = b""
        self.eof = False
        self.received = False  # whether any byte came
        self.reusable = False  # whether the connection may carry more

    def _fill(self) -> bool:
        """Append what the socket has to the buffer; False at its end."""
        if not self.eof:
            if self.quickack:
                self.sock.setsockopt(*self.quickack)
            data = self.sock.recv(65536)
            self.buffer += data
            self.eof = not data
            self.received = self.received or not self.eof
        return not self.eof

    def line(self, what: str) -> bytes:
        """The next line, its line ending included; what is left at the
        end of the connection, b"" once nothing is."""
        start = 0
        while True:
            end = self.buffer.find(b"\n", start, _MAX_LINE)
            if end >= 0:
                line, self.buffer = self.buffer[:end + 1], self.buffer[end + 1:]
                return line
            if len(self.buffer) > _MAX_LINE:
                raise ValueError(
                    f"got more than {_MAX_LINE} bytes when reading {what}")
            start = len(self.buffer)
            if not self._fill():
                line, self.buffer = self.buffer, b""
                return line

    def take(self, size: int) -> bytes:
        """Up to `size` bytes: fewer only at the end of the connection."""
        while len(self.buffer) < size and self._fill():
            pass
        data, self.buffer = self.buffer[:size], self.buffer[size:]
        return data

    def rest(self) -> bytes:
        """Everything up to the end of the connection."""
        while self._fill():
            pass
        data, self.buffer = self.buffer, b""
        return data

    def read(self) -> tuple[int, bytes]:
        """The status and body of the final response; `reusable` tells
        whether it left the connection ready for another request."""
        status, fields = self._status(), self._fields()
        while 100 <= status < 200:
            status, fields = self._status(), self._fields()
        if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            data = self._chunked()
        elif status in (204, 304):
            return status, b""
        else:
            length = fields.get(b"content-length")
            try:
                length = int(length.decode("latin-1")) if length else None
            except ValueError:
                length = None
            if length is None or length < 0:
                return status, self.rest()
            data = self.take(length)
            if len(data) < length:
                raise ValueError(f"IncompleteRead({len(data)} bytes read, "
                                 f"{length - len(data)} more expected)")
        self.reusable = (self.version == "HTTP/1.1" and not self.buffer
                         and not self.eof and b"close" not in
                         fields.get(b"connection", b"").lower())
        return status, data

    def _status(self) -> int:
        line = str(self.line("status line"), "iso-8859-1")
        if not line:
            raise ValueError("Remote end closed connection without response")
        words = line.split(None, 2)
        version = words[0] if len(words) > 1 else ""
        if not version.startswith("HTTP/"):
            raise ValueError(line)
        try:
            status = int(words[1])
        except ValueError:
            raise ValueError(line) from None
        if not 100 <= status <= 999:
            raise ValueError(line)
        if not version.startswith("HTTP/1.") and version != "HTTP/0.9":
            raise ValueError(version)
        self.version = version
        return status

    def _fields(self) -> dict[bytes, bytes]:
        """The header fields by lower-case name, the first of a repeated
        name kept; continuation lines are skipped."""
        fields = {}
        for _ in range(_MAX_HEADERS):
            line = self.line("header line")
            if line in (b"\r\n", b"\n", b""):
                return fields
            name, colon, value = line.partition(b":")
            if colon and line[:1] not in b" \t":
                fields.setdefault(name.lower(),
                                  value.lstrip(b" \t").rstrip(b"\r\n"))
        raise ValueError(f"got more than {_MAX_HEADERS} headers")

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self.line("chunk size")
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise _incomplete(chunks)
            if size == 0:
                break
            chunk = self.take(size)
            if len(chunk) < size:
                raise _incomplete(chunks)
            chunks.append(chunk)
            if len(self.take(2)) < 2:
                raise _incomplete(chunks)
        while self.line("trailer line") not in (b"\r\n", b"\n", b""):
            pass
        return b"".join(chunks)


def _incomplete(chunks: list[bytes]) -> ValueError:
    return ValueError(f"IncompleteRead({sum(map(len, chunks))} bytes read)")
