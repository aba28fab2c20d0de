"""The HTTP edge of ``gpuscout serve`` over raw sockets: the server's
own request-head reader (its limits, its JSON ``code 64`` answer to
every violation, the stdlib behaviours it keeps) and the bounded set of
reused handler threads (the cap, the idle timeout, a prompt stop)."""

import http.client
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ScoutServer
from repro.serve import server as edge
from repro.serve.protocol import EXIT_USAGE

KERNEL = "reduction:warp"


@pytest.fixture
def server(monkeypatch):
    # long enough that a close seen by a test is the server's answer to
    # the request, never its idle timeout
    monkeypatch.setattr(edge, "IDLE_TIMEOUT_S", 60.0)
    with ScoutServer(workers=0).start() as srv:
        yield srv


def read_all(sock) -> bytes:
    """Everything the server sends until it closes the connection (a
    reset counts as a close)."""
    raw = b""
    try:
        while chunk := sock.recv(65536):
            raw += chunk
    except ConnectionResetError:
        pass
    return raw


def exchange(srv, raw: bytes) -> bytes:
    """Send ``raw`` and read until the server closes; a server that
    keeps the connection open fails the test by socket timeout."""
    with socket.create_connection(srv.address, timeout=30) as sock:
        sock.sendall(raw)
        return read_all(sock)


def split_response(raw: bytes) -> tuple:
    """``(status, lower-cased headers, body, rest)`` of the first
    response in ``raw``."""
    head, _, rest = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {name.lower(): value.strip() for name, _, value in
               (line.partition(":") for line in lines)}
    length = int(headers.get("content-length", 0))
    return int(status_line.split(" ")[1]), headers, rest[:length], \
        rest[length:]


def read_response(sock) -> tuple:
    """One complete response off a connection that stays open."""
    raw = b""
    while True:
        raw += sock.recv(65536)
        if b"\r\n\r\n" in raw:
            status, headers, body, _ = split_response(raw)
            if len(body) == int(headers.get("content-length", 0)):
                return status, headers, body


def assert_json_400_and_closed(raw: bytes, message: str) -> None:
    status, headers, body, rest = split_response(raw)
    assert status == 400, raw[:200]
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert json.loads(body) == {"ok": False, "code": EXIT_USAGE,
                                "error": "ProtocolError",
                                "message": message}
    assert rest == b"", "one answer, then the close"


def test_head_at_the_line_limit_is_read(server):
    lines = b"".join(b"X-Filler-%d: v\r\n" % i
                     for i in range(edge.MAX_HEADER_LINES - 1))
    raw = exchange(server, b"GET /healthz HTTP/1.1\r\n" + lines
                   + b"Connection: close\r\n\r\n")
    status, _, body, _ = split_response(raw)
    assert status == 200 and json.loads(body)["ok"] is True


@pytest.mark.parametrize("raw, message", [
    (b"GET /healthz HTTP/1.1\r\n" + b"".join(
        b"X-Filler-%d: v\r\n" % i
        for i in range(edge.MAX_HEADER_LINES + 1)) + b"\r\n",
     f"more than {edge.MAX_HEADER_LINES} header lines"),
    (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * edge.MAX_HEAD_BYTES
     + b"\r\n\r\n",
     f"request head over {edge.MAX_HEAD_BYTES} bytes"),
    (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
     "malformed header line b'no colon here'"),
    (b"GET /healthz HTTP/1.1\r\nX-A: a\r\n  folded\r\n\r\n",
     "malformed header line b'  folded'"),
    (b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 2\r\n"
     b"Content-Length: 3\r\n\r\n{}",
     "conflicting Content-Length headers"),
    (b"GET /healthz HTTP/2.0\r\n\r\n", "unsupported HTTP version 'HTTP/2.0'"),
    (b"DELETE /healthz HTTP/1.1\r\n\r\n", "unsupported method 'DELETE'"),
    (b"GET /healthz\r\n\r\n", "bad request line 'GET /healthz'"),
    (b"GET /healthz HTTP/1.1\r\nHost: t", "request head cut short"),
    (b"GET /healthz HTTP/1.1\r\nX-Request-Id: a\rb\r\n\r\n",
     "control character in x-request-id"),
], ids=["line-count", "head-size", "no-colon", "obs-fold",
        "two-lengths", "version", "method", "request-line", "cut-short",
        "bare-cr"])
def test_head_violation_is_a_json_400_and_a_close(server, raw, message):
    if message == "request head cut short":
        # the head ends because the client stopped sending
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            reply = read_all(sock)
    else:
        reply = exchange(server, raw)
    assert_json_400_and_closed(reply, message)


def test_expect_100_continue_is_answered_before_the_body(server):
    body = json.dumps({"kernel": KERNEL, "size": 128,
                       "dry_run": True}).encode()
    with socket.create_connection(server.address, timeout=30) as sock:
        sock.sendall(b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
                     b"Expect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body))
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        status, _, reply = read_response(sock)
    assert status == 200 and json.loads(reply)["ok"] is True


@pytest.mark.parametrize("head", [
    b"GET /healthz HTTP/1.0\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
], ids=["http-1.0", "connection-close"])
def test_a_request_that_asks_for_a_close_gets_one(server, head):
    status, _, body, rest = split_response(exchange(server, head))
    assert status == 200 and json.loads(body)["ok"] is True
    assert rest == b""


@pytest.mark.parametrize("head", [
    b"GET /healthz HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
], ids=["http-1.1", "http-1.0-keep-alive"])
def test_keep_alive_connection_serves_a_second_request(server, head):
    with socket.create_connection(server.address, timeout=30) as sock:
        for _ in range(2):
            sock.sendall(head)
            assert read_response(sock)[0] == 200


# -- arbitrary bytes ---------------------------------------------------
_LINES = st.sampled_from([
    b"GET /healthz HTTP/1.1", b"POST /v1/analyze HTTP/1.1",
    b"GET /v1/stats HTTP/1.0", b"PUT / HTTP/1.1", b"Content-Length: 2",
    b"Content-Length: -1", b"Content-Length: 99", b"Connection: close",
    b"Connection: keep-alive", b"Expect: 100-continue",
    b"X-Request-Id: \xff\x00", b" folded", b"no-colon", b"", b"{}",
])
_HEADS = st.one_of(
    st.binary(max_size=300),
    st.lists(st.one_of(_LINES, st.binary(max_size=40)), max_size=12)
    .map(b"\r\n".join),
)


@pytest.fixture(scope="module")
def fuzzed():
    """A server whose unexpected handler exceptions are recorded."""
    with ScoutServer(workers=0).start() as srv:
        srv.tracebacks = []
        srv._httpd.handle_error = \
            lambda request, address: srv.tracebacks.append(address)
        yield srv


@settings(max_examples=80, deadline=None)
@given(head=_HEADS)
def test_arbitrary_head_bytes_get_json_or_a_close(fuzzed, head):
    with socket.create_connection(fuzzed.address, timeout=30) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)
        raw = read_all(sock)  # a hang is a socket timeout
    while raw:
        if raw.startswith(b"HTTP/1.1 100 Continue\r\n\r\n"):
            raw = raw[len(b"HTTP/1.1 100 Continue\r\n\r\n"):]
            continue
        status, headers, body, raw = split_response(raw)
        assert headers["content-type"] == "application/json"
        assert len(body) == int(headers["content-length"])
        json.loads(body)
    assert fuzzed.tracebacks == []


# -- handler threads ---------------------------------------------------
def test_handler_threads_never_exceed_the_cap(server):
    """Connections beyond the cap wait for a thread; they are neither
    given one of their own nor refused.  The server's handler threads
    all exist before the first connection."""
    before = set(threading.enumerate())
    assert sum(t.name.startswith("gpuscout-http-") for t in before) >= \
        edge.HANDLER_THREADS
    socks = [socket.create_connection(server.address, timeout=30)
             for _ in range(edge.HANDLER_THREADS + 8)]
    try:
        for sock in socks:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        held, queued = socks[:edge.HANDLER_THREADS], \
            socks[edge.HANDLER_THREADS:]
        for sock in held:
            assert read_response(sock)[0] == 200
        assert len(set(threading.enumerate()) - before) == 0
        for sock in held:  # idle keep-alive connections give way
            sock.close()
        for sock in queued:
            assert read_response(sock)[0] == 200
        assert len(set(threading.enumerate()) - before) == 0
    finally:
        for sock in socks:
            sock.close()


def test_idle_connections_are_closed_so_a_fresh_request_is_answered(
        server, monkeypatch):
    monkeypatch.setattr(edge, "IDLE_TIMEOUT_S", 0.3)
    idle = [socket.create_connection(server.address, timeout=30)
            for _ in range(edge.HANDLER_THREADS)]
    try:
        conn = http.client.HTTPConnection(*server.address, timeout=30)
        conn.request("GET", "/healthz")
        assert conn.getresponse().status == 200
        conn.close()
        for sock in idle:  # closed quietly: nothing was asked
            assert read_all(sock) == b""
    finally:
        for sock in idle:
            sock.close()


def test_stop_returns_promptly_with_idle_keep_alive_connections():
    srv = ScoutServer(workers=0).start()
    socks = [socket.create_connection(srv.address, timeout=30)
             for _ in range(4)]
    try:
        for sock in socks:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert read_response(sock)[0] == 200
        t0 = time.perf_counter()
        srv.stop()
        assert time.perf_counter() - t0 < 2.0
    finally:
        for sock in socks:
            sock.close()


def test_stop_returns_for_a_server_that_never_served():
    srv = ScoutServer(workers=0)
    stopping = threading.Thread(target=srv.stop, daemon=True)
    stopping.start()
    stopping.join(timeout=10)
    assert not stopping.is_alive(), "stop() waited for a serve loop"


def test_stop_ends_handler_threads_parked_on_idle_connections(monkeypatch):
    # an idle timeout far beyond the test: only stop() can free them
    monkeypatch.setattr(edge, "IDLE_TIMEOUT_S", 60.0)
    before = set(threading.enumerate())
    srv = ScoutServer(workers=0).start()
    handlers = [t for t in set(threading.enumerate()) - before
                if t.name.startswith("gpuscout-http-")]
    assert len(handlers) == edge.HANDLER_THREADS
    sock = socket.create_connection(srv.address, timeout=30)
    try:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert read_response(sock)[0] == 200
        srv.stop()
        time.sleep(1.0)
        assert [t.name for t in handlers if t.is_alive()] == []
        assert read_all(sock) == b"", "closed without another answer"
    finally:
        sock.close()
