"""Nonblocking ``selectors`` front end for the detection server.

A thread-per-connection server burns one OS thread per connection: a
thousand idle keep-alives are a thousand blocked threads before the first
byte of work. This module runs the accept/read path on a single
event-loop thread that:

* accepts and reads every connection nonblockingly through one
  :class:`selectors.DefaultSelector`;
* parses HTTP/1.1 requests **incrementally** — a client trickling its
  headers one byte per second holds a 100-odd-byte buffer, not a thread,
  so a slow-loris herd cannot starve healthy clients;
* is the server's only admission gate: a detect request takes one of
  ``max_active`` slots, waits in a FIFO deque of at most ``queue_depth``
  entries until a slot frees or its deadline passes (503), or is answered
  429 at once — so a waiting request costs a deque entry, not a thread;
* hands each admitted request to a small dispatch pool
  (``max_active`` plus slack for ``GET`` and non-detect requests) where
  the server's request core does scoring and error mapping;
* queues the serialized response back to the loop thread, which writes it
  nonblockingly and resumes parsing the connection (keep-alive, in
  order).

Responses follow the standard library's ``http.server`` wire format
(status line, ``Server``/``Date`` headers, explicit header order, body);
the golden-byte grid in ``tests/test_serving_server.py`` pins them.

Lifecycle: the loop owns every connection; :meth:`EventLoopFrontend.stop`
stops accepting, lets admitted requests (active or waiting) finish
writing (bounded by the drain deadline), then closes everything — an
accepted request is never dropped by a drain.
"""

from __future__ import annotations

import email.utils
import html
import io
import json
import re
import selectors
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from http.client import HTTPException, parse_headers
from http.server import DEFAULT_ERROR_CONTENT_TYPE, DEFAULT_ERROR_MESSAGE

__all__ = ["DETECT_PATHS", "EventLoopFrontend", "body_framing", "serialize_response"]

#: ``Server:`` header value, in ``http.server``'s "<version> Python/<x.y.z>"
#: form.
_SERVER_HEADER = "decamouflage Python/" + sys.version.split()[0]
#: A request head (request line + headers) larger than this is hostile.
_MAX_HEAD_BYTES = 64 * 1024
#: Stop reading a connection whose buffer outruns its current request.
_MAX_BUFFER_SLACK = 1024 * 1024
#: An idle keep-alive older than this is closed, and a drain waits at most
#: this long for a response it cannot write, seconds.
_SOCKET_TIMEOUT_S = 10.0
#: Paths whose requests pass the admission gate.
DETECT_PATHS = ("/v1/detect", "/v1/detect/batch")
#: A Content-Length value is ``1*DIGIT`` (RFC 9112 §6.3): no sign, no
#: underscores, no list.
_DIGITS = re.compile(r"[0-9]+")

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


def _phrase(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return ""


def serialize_response(status: int, headers, body: bytes, *, reason: str | None = None) -> bytes:
    """Serialize one response in ``http.server``'s layout: status line,
    ``Server``, ``Date``, then the explicit headers in order."""
    lines = [
        f"HTTP/1.1 {status} {_phrase(status) if reason is None else reason}\r\n",
        f"Server: {_SERVER_HEADER}\r\n",
        f"Date: {email.utils.formatdate(time.time(), usegmt=True)}\r\n",
    ]
    for name, value in headers:
        lines.append(f"{name}: {value}\r\n")
    lines.append("\r\n")
    return "".join(lines).encode("latin-1", "strict") + body


def body_framing(headers, max_body_bytes: int) -> tuple[int, tuple[int, str] | None]:
    """Decide a POST body's framing from its ``Content-Length`` headers.

    Returns ``(length, None)`` when *length* body bytes follow, or
    ``(0, (status, message))`` when the request must be refused without
    reading a body: 411 when the header is missing, 400 when a value is
    not ``1*DIGIT`` or duplicates differ (RFC 9112 §6.3; identical
    duplicates pass), 413 past *max_body_bytes*. The server's only
    Content-Length parser.
    """
    values = [value.strip() for value in headers.get_all("Content-Length") or ()]
    if not values:
        return 0, (411, "Content-Length required")
    raw = values[0] if len(set(values)) == 1 else ", ".join(values)
    try:
        length = int(raw) if _DIGITS.fullmatch(raw) else -1
    except ValueError:  # more digits than int() converts
        length = -1
    if length < 0:
        return 0, (400, f"invalid Content-Length {raw!r}")
    if length > max_body_bytes:
        return 0, (413, f"body of {length} bytes exceeds limit")
    return length, None


def _unsupported_method_body(method: str) -> tuple[bytes, str]:
    """The HTML error body ``http.server`` sends with a 501 for an
    unsupported method."""
    message = f"Unsupported method ({method!r})"
    content = DEFAULT_ERROR_MESSAGE % {
        "code": 501,
        "message": html.escape(message, quote=False),
        "explain": "Server does not support this operation",
    }
    return content.encode("UTF-8", "replace"), message


class _Connection:
    """Loop-private state for one accepted socket."""

    __slots__ = (
        "sock",
        "fd",
        "inbuf",
        "outbuf",
        "state",  # "head" | "body" | "busy"
        "request",  # (method, path, headers, requestline) while in "body"/"busy"
        "body_target",
        "events",
        "open",
        "peer_closed",
        "close_after_write",
        "responded",
        "last_activity",
        "first_byte_at",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.state = "head"
        self.request = None
        self.body_target = 0
        self.events = _READ
        self.open = True
        self.peer_closed = False
        self.close_after_write = False
        #: the current request's response has been handed to the writer —
        #: guards the keep-alive transition against stale WRITE readiness.
        self.responded = False
        self.last_activity = time.monotonic()
        self.first_byte_at: float | None = None


class EventLoopFrontend:
    """One selector thread + a bounded dispatch pool, feeding the shared
    request core of a :class:`~repro.serving.server.DetectionServer`.

    The loop thread alone owns the admission state (the active count and
    the waiting deque), so it takes no lock."""

    def __init__(self, server) -> None:
        self._server = server
        config = server.config
        self._listener = socket.create_server(
            (config.host, config.port), backlog=128, reuse_port=False
        )
        self._listener.setblocking(False)
        # The waker lets dispatch-pool threads interrupt a blocked select().
        self._waker_recv, self._waker_send = socket.socketpair()
        self._waker_recv.setblocking(False)
        self._waker_send.setblocking(False)
        # Detect requests hold at most max_active threads; the 4 spare
        # threads serve GET /healthz, GET /metrics and non-detect requests.
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_active + 4, thread_name_prefix="eventloop-dispatch"
        )
        self._lock = threading.Lock()  # guards completions
        self._completions: deque = deque()
        self._active = 0
        #: (deadline, conn, request) per waiting detect request, oldest first.
        self._waiting: deque = deque()
        self._in_flight_gauge = server.metrics.gauge("server.in_flight")
        self._queue_gauge = server.metrics.gauge("server.queue_depth")
        self._connections: dict[int, _Connection] = {}
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._running = threading.Event()
        self._thread: threading.Thread | None = None
        self._open_gauge = server.metrics.gauge("eventloop.open_connections")

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Run the loop on a background thread; returns at once."""
        self._thread = threading.Thread(
            target=self._run, name="eventloop-frontend", daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Run the loop on the calling thread until :meth:`stop`."""
        self._run()

    def stop(self) -> None:
        """Drain: stop accepting, finish in-flight requests, close all.

        Bounded by ``_SOCKET_TIMEOUT_S``: a response the loop cannot write
        within the deadline (wedged client) is abandoned, everything else
        completes. Idempotent."""
        self._stopping.set()
        self._wake()
        if self._running.is_set():
            self._stopped.wait(_SOCKET_TIMEOUT_S + 5.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._executor.shutdown(wait=True, cancel_futures=True)
        try:
            self._listener.close()
        except OSError:
            pass  # loop closed it first
        for sock in (self._waker_recv, self._waker_send):
            try:
                sock.close()
            except OSError:
                pass  # already closed

    def _wake(self) -> None:
        try:
            self._waker_send.send(b"\x01")
        except (OSError, BlockingIOError):
            pass  # loop already awake (buffer full) or gone

    # -- the loop ------------------------------------------------------

    def _run(self) -> None:
        # The loop thread owns the selector end to end; the finally below
        # is the only release site.
        selector = selectors.DefaultSelector()
        self._running.set()
        selector.register(self._listener, _READ, "accept")
        selector.register(self._waker_recv, _READ, "waker")
        drain_deadline: float | None = None
        next_sweep = time.monotonic() + 1.0
        try:
            while True:
                if self._stopping.is_set() and drain_deadline is None:
                    drain_deadline = time.monotonic() + _SOCKET_TIMEOUT_S
                    self._begin_drain(selector)
                for key, _mask in selector.select(0.05):
                    if key.data == "accept":
                        self._accept(selector)
                    elif key.data == "waker":
                        self._drain_waker()
                    else:
                        self._service(selector, key.data, _mask)
                self._expire_waiting()
                self._flush_completions(selector)
                if drain_deadline is not None or time.monotonic() >= next_sweep:
                    self._sweep(selector, drain_deadline)
                    next_sweep = time.monotonic() + 1.0
                if drain_deadline is not None and (
                    not self._connections or time.monotonic() >= drain_deadline
                ):
                    break
        finally:
            for conn in list(self._connections.values()):
                self._close(selector, conn)
            try:
                selector.unregister(self._listener)
            except KeyError:
                pass  # drain already removed it
            self._listener.close()
            selector.close()
            self._stopped.set()

    def _begin_drain(self, selector) -> None:
        """Stop accepting; close every connection with nothing in flight."""
        try:
            selector.unregister(self._listener)
        except KeyError:
            pass  # second stop() racing the first
        for conn in list(self._connections.values()):
            if conn.state != "busy" and not conn.outbuf:
                self._close(selector, conn)

    def _accept(self, selector) -> None:
        for _ in range(64):  # bounded accept burst per tick
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # not TCP (tests may use AF_UNIX one day)
            conn = _Connection(sock)
            self._connections[conn.fd] = conn
            selector.register(sock, _READ, conn)
            self._open_gauge.set(len(self._connections))

    def _drain_waker(self) -> None:
        try:
            while self._waker_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass  # drained

    def _service(self, selector, conn: _Connection, mask: int) -> None:
        if not conn.open:
            return
        if mask & _READ:
            self._on_readable(selector, conn)
        if conn.open and mask & _WRITE:
            self._on_writable(selector, conn)

    # -- reading + incremental parse ------------------------------------

    def _on_readable(self, selector, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(selector, conn)
            return
        if chunk == b"":
            # Peer half-closed its write side. A response still being
            # computed or written may yet be delivered; anything else —
            # including a partial request that can now never complete —
            # is done.
            conn.peer_closed = True
            if conn.state == "busy" or conn.outbuf:
                self._set_events(selector, conn, conn.events & ~_READ)
            else:
                self._close(selector, conn)
            return
        now = time.monotonic()
        conn.last_activity = now
        if conn.first_byte_at is None:
            conn.first_byte_at = now
        conn.inbuf += chunk
        if conn.state == "busy":
            # A keep-alive client is allowed to pipeline the next request
            # into our buffer, but it cannot make us buffer unboundedly.
            if len(conn.inbuf) > _MAX_BUFFER_SLACK:
                self._set_events(selector, conn, conn.events & ~_READ)
            return
        self._advance_parse(selector, conn)

    def _advance_parse(self, selector, conn: _Connection) -> None:
        started = time.perf_counter()
        try:
            while conn.open and conn.state != "busy":
                if conn.state == "head":
                    if not self._parse_head(selector, conn):
                        return
                if conn.state == "body":
                    if len(conn.inbuf) < conn.body_target:
                        return
                    body = bytes(conn.inbuf[: conn.body_target])
                    del conn.inbuf[: conn.body_target]
                    self._complete_request(conn, body)
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._server.metrics.observe("eventloop.parse", elapsed_ms)

    def _parse_head(self, selector, conn: _Connection) -> bool:
        """Parse one request head out of the buffer. Returns False when
        more bytes are needed (or the connection was rejected)."""
        end = conn.inbuf.find(b"\r\n\r\n")
        if end < 0:
            if len(conn.inbuf) > _MAX_HEAD_BYTES:
                self._reject(selector, conn, 400, "request head too large")
                return False
            return False
        head = bytes(conn.inbuf[: end + 4])
        del conn.inbuf[: end + 4]
        first, _, rest = head.partition(b"\r\n")
        requestline = first.decode("iso-8859-1", "replace").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            self._reject(selector, conn, 400, f"malformed request line {requestline!r}")
            return False
        method, path, version = words
        try:
            headers = parse_headers(io.BytesIO(rest))
        except (HTTPException, ValueError):
            self._reject(selector, conn, 400, "malformed headers")
            return False
        connection = (headers.get("Connection") or "").lower()
        if version == "HTTP/1.1":
            if connection == "close":
                conn.close_after_write = True
        elif connection != "keep-alive":
            # HTTP/1.0 closes by default.
            conn.close_after_write = True
        if method not in ("GET", "POST"):
            self._respond_unsupported(conn, method)
            return False
        conn.request = (method, path, headers, requestline)
        refusal = None
        if method == "POST":
            length, refusal = body_framing(headers, self._server.config.max_body_bytes)
            if refusal is None:
                conn.state = "body"
                conn.body_target = length
                return True
        # No body to wait for. A detect request refused on its framing
        # (411/400/413, before buffering a 64 MiB body) answers
        # Connection: close, since any body the client sends afterwards
        # would desync the stream.
        self._complete_request(conn, b"", refusal)
        return False

    # -- admission + dispatch -------------------------------------------

    def _complete_request(
        self, conn: _Connection, body: bytes, refusal: tuple[int, str] | None = None
    ) -> None:
        """Route one parsed request. A detect request that passes the
        draining and framing checks runs now, waits, or is answered 429."""
        method, path, headers, requestline = conn.request
        conn.request = None
        conn.state = "busy"
        if conn.first_byte_at is not None:
            self._server.metrics.observe(
                "eventloop.read", (time.monotonic() - conn.first_byte_at) * 1000.0
            )
            conn.first_byte_at = None
        request = (method, path, headers, body, requestline)
        if method != "POST" or path not in DETECT_PATHS:
            self._submit(conn, request, detect=False)
        elif self._server.draining:
            self._refuse(conn, request, 503, "server is draining")
        elif refusal is not None:
            self._refuse(conn, request, *refusal, close=True)
        elif self._active < self._server.config.max_active:
            self._active += 1
            self._in_flight_gauge.set(self._active)
            self._submit(conn, request, detect=True)
        elif len(self._waiting) < self._server.config.queue_depth:
            deadline = time.monotonic() + self._server.config.deadline_ms / 1000.0
            self._waiting.append((deadline, conn, request))
            self._queue_gauge.set(len(self._waiting))
        else:
            message = f"admission queue full ({len(self._waiting)} waiting)"
            self._refuse(conn, request, 429, message)

    def _release_slot(self) -> None:
        """A detect response came back: its slot goes to the oldest waiter."""
        if self._waiting:
            _deadline, conn, request = self._waiting.popleft()
            self._queue_gauge.set(len(self._waiting))
            self._submit(conn, request, detect=True)
        else:
            self._active -= 1
            self._in_flight_gauge.set(self._active)

    def _expire_waiting(self) -> None:
        """Answer 503 to every waiter past its deadline (oldest first, so
        the deque is in deadline order)."""
        now = time.monotonic()
        if not self._waiting or self._waiting[0][0] > now:
            return
        message = f"gave up after {self._server.config.deadline_ms:.0f} ms in queue"
        while self._waiting and self._waiting[0][0] <= now:
            _deadline, conn, request = self._waiting.popleft()
            self._refuse(conn, request, 503, message)
        self._queue_gauge.set(len(self._waiting))

    def _refuse(
        self,
        conn: _Connection,
        request,
        status: int,
        message: str,
        *,
        close: bool = False,
    ) -> None:
        """Answer a detect request the gate turns away, from the loop thread,
        through the request core's one refusal path."""
        _method, _path, headers, _body, requestline = request
        response = self._server.refuse(
            status, message, headers, requestline=requestline, close=close
        )
        self._enqueue_response(conn, response, detect=False)

    def _submit(self, conn: _Connection, request, detect: bool) -> None:
        self._executor.submit(self._dispatch, conn, request, time.monotonic(), detect)

    def _dispatch(self, conn, request, enqueued_at, detect) -> None:
        """Dispatch-pool thread: run the shared request core, hand the
        serialized response back to the loop."""
        self._server.metrics.observe(
            "eventloop.dispatch", (time.monotonic() - enqueued_at) * 1000.0
        )
        method, path, headers, body, requestline = request
        try:
            response = self._server.handle_http_request(
                method, path, headers, body, requestline=requestline
            )
        except Exception as exc:  # the loop must survive a core bug
            # The text can name server paths: stderr gets it, the body not.
            print(
                f'"{requestline}" 500 internal error '
                f"[{headers.get('X-Request-Id') or '-'}] {type(exc).__name__}: {exc}",
                file=sys.stderr,
                flush=True,
            )
            body_bytes = json.dumps({"error": "internal error"}).encode("utf-8")
            response = _InternalErrorResponse(body_bytes)
        self._enqueue_response(conn, response, detect=detect)

    def _enqueue_response(self, conn: _Connection, response, detect: bool) -> None:
        data = serialize_response(response.status, response.headers, response.body)
        with self._lock:
            self._completions.append((conn, data, response.close, detect))
        self._wake()

    def _flush_completions(self, selector) -> None:
        while True:
            with self._lock:
                if not self._completions:
                    return
                conn, data, close, detect = self._completions.popleft()
            if detect:
                self._release_slot()
            if not conn.open:
                continue
            conn.outbuf += data
            conn.responded = True
            if close:
                conn.close_after_write = True
            self._on_writable(selector, conn)

    # -- writing + keep-alive -------------------------------------------

    def _on_writable(self, selector, conn: _Connection) -> None:
        if conn.outbuf:
            try:
                sent = conn.sock.send(bytes(conn.outbuf))
                del conn.outbuf[:sent]
                conn.last_activity = time.monotonic()
            except (BlockingIOError, InterruptedError):
                pass  # kernel buffer full; try again on the next tick
            except OSError:
                self._close(selector, conn)
                return
        if conn.outbuf:
            self._set_events(selector, conn, conn.events | _WRITE)
            return
        self._set_events(selector, conn, conn.events & ~_WRITE)
        if conn.state == "busy" and conn.responded:
            # Response fully written: the connection is ours to reuse.
            if conn.close_after_write or conn.peer_closed:
                self._close(selector, conn)
                return
            conn.state = "head"
            conn.responded = False
            self._set_events(selector, conn, conn.events | _READ)
            if conn.inbuf:
                conn.first_byte_at = conn.last_activity
                self._advance_parse(selector, conn)

    def _respond_unsupported(self, conn: _Connection, method: str) -> None:
        """501 for non-GET/POST in ``http.server``'s error format —
        including the custom reason phrase on the status line."""
        body, message = _unsupported_method_body(method)
        headers = (
            ("Connection", "close"),
            ("Content-Type", DEFAULT_ERROR_CONTENT_TYPE),
            ("Content-Length", str(len(body))),
        )
        self._server.metrics.counter("server.responses.501").add(1)
        conn.state = "busy"
        conn.request = None
        data = serialize_response(501, headers, body, reason=message)
        with self._lock:
            self._completions.append((conn, data, True, False))
        # Called from the loop thread; completions flush on this tick.

    def _reject(self, selector, conn: _Connection, status: int, message: str) -> None:
        """Protocol-level refusal (bad request line/headers): answer and
        close; the stream cannot be trusted past this point."""
        body = json.dumps({"error": message}).encode("utf-8")
        headers = (
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
            ("Connection", "close"),
        )
        self._server.metrics.counter(f"server.responses.{status}").add(1)
        conn.state = "busy"
        conn.request = None
        conn.close_after_write = True
        conn.responded = True
        conn.outbuf += serialize_response(status, headers, body)
        self._on_writable(selector, conn)

    # -- bookkeeping ----------------------------------------------------

    def _set_events(self, selector, conn: _Connection, events: int) -> None:
        if not conn.open or events == conn.events:
            return
        previous = conn.events
        conn.events = events
        try:
            if not events:
                selector.unregister(conn.sock)
            elif not previous:
                selector.register(conn.sock, events, conn)
            else:
                selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass  # racing a close; the sweep finishes the job

    def _sweep(self, selector, drain_deadline: float | None) -> None:
        """Close idle keep-alives past the socket timeout. Connections with
        a request in flight are exempt — the admission deadline bounds
        those — and so are mid-request trickles (each byte refreshes
        ``last_activity``): holding a slow client costs a buffer, not a
        thread, which is the point of this front end."""
        now = time.monotonic()
        for conn in list(self._connections.values()):
            if not conn.open or conn.state == "busy" or conn.outbuf:
                continue
            idle_s = now - conn.last_activity
            if drain_deadline is not None or idle_s > _SOCKET_TIMEOUT_S:
                self._close(selector, conn)

    def _close(self, selector, conn: _Connection) -> None:
        if not conn.open:
            return
        conn.open = False
        self._connections.pop(conn.fd, None)
        if conn.events:
            try:
                selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass  # never registered or already gone
        try:
            conn.sock.close()
        except OSError:
            pass  # peer reset already tore it down
        self._open_gauge.set(len(self._connections))


class _InternalErrorResponse:
    """Fallback shape when the request core itself raises (kept tiny so
    the loop thread never depends on the server module)."""

    status = 500
    close = True

    def __init__(self, body: bytes) -> None:
        self.body = body
        self.headers = (
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
            ("Connection", "close"),
        )
