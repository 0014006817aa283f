"""HTTP/1.1 transport: kept-alive connections, idle timeout, drain.

A client thread reuses one connection across requests; the daemon
closes a connection that idles past its timeout, that cannot frame its
next request, or that is idle when the server drains. Drain never waits
on an idle or silent connection.
"""

import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.serve import SearchService, ServeClient, start_server
from repro.serve.server import IDLE_TIMEOUT_S, MAX_BODY_BYTES, ServeHandler

from tests.serve.conftest import SMALL_QUERY_KW


def _stop(server, thread) -> None:
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=30)


@pytest.fixture
def served(serial_config):
    server, thread = start_server(serial_config, warm=False)
    try:
        yield server
    finally:
        _stop(server, thread)


def _await(condition, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never reached"
        time.sleep(0.005)


def _raw_exchange(server, request: bytes, timeout=10.0) -> bytes:
    """Send raw request bytes; read until the daemon closes the socket."""
    with socket.create_connection(server.endpoint, timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestConnectionReuse:
    def test_sequential_hits_use_one_connection(self, served):
        client = ServeClient(*served.endpoint)
        first = client.request_raw("GET", "/healthz")
        for _ in range(4):
            client.front(**SMALL_QUERY_KW)
        assert client.request_raw("GET", "/healthz") == first
        assert served.connections_accepted == 1
        client.close()

    def test_two_threads_use_two_connections(self, served):
        client = ServeClient(*served.endpoint)
        errors = []

        def worker():
            try:
                for _ in range(3):
                    client.health()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert served.connections_accepted == 2
        client.close()

    def test_dropped_idle_connection_is_resent_without_a_retry(
        self, serial_config, monkeypatch
    ):
        monkeypatch.setattr(ServeHandler, "timeout", 0.2)
        server, thread = start_server(serial_config, warm=False)
        try:
            client = ServeClient(*server.endpoint, retry=None)
            assert client.health() == {"status": "ok"}
            # The connection goes idle, then the daemon times it out.
            _await(lambda: server._idle)
            _await(lambda: not server._idle)
            assert client.health() == {"status": "ok"}
            assert client.transport_retries == 0
            assert server.connections_accepted == 2
            client.close()
        finally:
            _stop(server, thread)


class TestUnframedRequests:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: nope\r\n\r\n",
                b"400",
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -4\r\n\r\n",
                b"400",
            ),
            (
                b"POST /elsewhere HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 2\r\n\r\n{}",
                b"404",
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b'1e\r\n{"layout": "proxy", "seed": 3}\r\n0\r\n\r\n',
                b"411",
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n{}" % (MAX_BODY_BYTES + 1),
                b"413",
            ),
        ],
        ids=[
            "non-numeric-length",
            "negative-length",
            "unread-body",
            "chunked-body",
            "oversized-body",
        ],
    )
    def test_reply_before_the_body_is_read_closes(
        self, served, request_bytes, status
    ):
        # _raw_exchange returns only once the daemon closed the socket.
        reply = _raw_exchange(served, request_bytes)
        assert reply.startswith(b"HTTP/1.1 " + status)
        assert b"\r\nConnection: close\r\n" in reply

    def test_oversized_declared_body_is_refused_at_once(self, served):
        # Nothing but the header arrives: a daemon that tried to read the
        # declared 50 MB would sit in the read until its idle timeout.
        start = time.monotonic()
        reply = _raw_exchange(
            served,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 50000000\r\n\r\n",
        )
        assert time.monotonic() - start < IDLE_TIMEOUT_S / 2
        assert reply.startswith(b"HTTP/1.1 413")
        client = ServeClient(*served.endpoint)
        assert client.health() == {"status": "ok"}
        client.close()

    def test_read_body_keeps_the_connection(self, served):
        conn = HTTPConnection(*served.endpoint, timeout=10)
        try:
            for _ in range(2):
                conn.request("POST", "/query", body=b"[1]")
                response = conn.getresponse()
                assert response.status == 400
                assert response.getheader("Connection") is None
                response.read()
        finally:
            conn.close()
        assert served.connections_accepted == 1


class TestDrain:
    def test_drain_closes_silent_and_idle_connections_at_once(
        self, serial_config
    ):
        server, thread = start_server(serial_config, warm=False)
        client = ServeClient(*server.endpoint)
        silent = socket.create_connection(server.endpoint, timeout=10)
        drain = threading.Thread(target=_stop, args=(server, thread))
        try:
            assert client.health() == {"status": "ok"}
            _await(lambda: server.connections_accepted == 2)
            _await(lambda: len(server._idle) == 2)
            start = time.monotonic()
            drain.start()
            drain.join(timeout=10)
            elapsed = time.monotonic() - start
            assert not drain.is_alive(), "drain waited on a held connection"
            assert elapsed < 1.0
            assert silent.recv(1) == b""
        finally:
            # Closing the held connections frees a drain stuck on them.
            silent.close()
            client.close()
            if drain.is_alive():
                drain.join(timeout=30)

    def test_in_flight_request_is_answered_with_connection_close(
        self, serial_config, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        original = SearchService._compute

        def gated(self, query, warm, cancel=None):
            entered.set()
            assert release.wait(timeout=60), "gate never released"
            return original(self, query, warm, cancel=cancel)

        monkeypatch.setattr(SearchService, "_compute", gated)
        server, thread = start_server(serial_config, warm=False)
        conn = HTTPConnection(*server.endpoint, timeout=60)
        try:
            path = "/front?" + "&".join(
                f"{k}={v}" for k, v in SMALL_QUERY_KW.items()
            )
            conn.request("GET", path)
            assert entered.wait(timeout=30)
            drain = threading.Thread(target=_stop, args=(server, thread))
            drain.start()
            _await(lambda: server.draining)
            release.set()
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert response.read()
            drain.join(timeout=30)
            assert not drain.is_alive()
        finally:
            release.set()
            conn.close()
