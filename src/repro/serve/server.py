"""Stdlib HTTP/JSON front end for :class:`~repro.serve.SearchService`.

The daemon speaks HTTP/1.1 with keep-alive: a client connection stays
open across requests, served by one non-daemon handler thread. A
connection waiting for its next request is *idle*, and the daemon
closes it after :data:`IDLE_TIMEOUT_S` without one. The SIGTERM drain
is graceful and never waits on an idle connection:
:class:`ServeServer` marks itself draining, closes every idle
connection at once, and :meth:`ServeServer.server_close` joins the
handler threads, so in-flight queries finish and are answered (with
``Connection: close``) before the process exits and the final state
snapshot is written.

Endpoints (all JSON, all deterministic bodies — ``sort_keys`` and no
timestamps, so identical queries yield byte-identical responses):

* ``GET /healthz`` — liveness probe.
* ``GET /metrics`` — the observability snapshot
  (:meth:`SearchService.metrics_snapshot`).
* ``GET /front?device=..&layout=..&seed=..[&target_ms=..]`` — resolve
  a query from URL parameters.
* ``POST /query`` — the same, with the query as a JSON body.

Query endpoints pass through admission control (``docs/robustness.md``):
beyond the configured in-flight capacity and bounded queue they answer
a deterministic ``503`` with ``Retry-After``; a request whose optional
``deadline_ms`` expires (queued or mid-computation) answers ``504``
with partial-progress stats. ``/healthz`` and ``/metrics`` bypass
admission so the daemon stays observable at any overload.

This module (with :mod:`repro.serve.client`) is the only sanctioned
place in the codebase that touches sockets — lint rule RL108 flags
direct socket/server construction anywhere else.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from typing import Optional, Set, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.resilience import BreakerOpenError, DeadlineExceeded
from repro.runstate import atomic_write_json
from repro.serve.config import ServeConfig
from repro.serve.service import (
    SearchService,
    _json_bytes,
    cancel_token_from_payload,
)

ENDPOINT_FILE = "endpoint.json"
# How long a kept-alive connection may wait for its next request, and
# any one read or write may stall, before the daemon closes it.
IDLE_TIMEOUT_S = 5.0
# How often the accept loop checks for a shutdown request: the longest
# a drain waits before it stops accepting.
SHUTDOWN_POLL_S = 0.05
# The largest ``POST /query`` body the daemon reads; a query is a few
# hundred bytes, and a read allocates what ``Content-Length`` declares.
MAX_BODY_BYTES = 64 * 1024


class ServeHandler(BaseHTTPRequestHandler):
    """One connection; the heavy lifting happens in the shared service."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as two writes: with Nagle on, a kept-alive
    # body waits out the client's delayed ACK of the headers.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    # Whether the current request declared a body not yet read; a reply
    # sent before it is read closes the connection, since the next
    # request could not be told apart from the rest of this one.
    _unread_body = False

    # -- plumbing ----------------------------------------------------------------

    @property
    def service(self) -> SearchService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.service.config.quiet:
            super().log_message(format, *args)

    def handle(self) -> None:
        """Serve requests until either side closes the connection."""
        self.close_connection = True
        try:
            while self.server.enter_idle(self.connection):
                self.handle_one_request()
                if self.close_connection:
                    break
        except ConnectionError:
            pass  # the client vanished; there is no one left to answer
        finally:
            self.server.leave_idle(self.connection)

    def parse_request(self) -> bool:
        # A request line arrived: the connection is busy until answered.
        self.server.leave_idle(self.connection)
        if not super().parse_request():
            return False
        self._unread_body = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        return True

    def _send(
        self, status: int, body: bytes, headers: Optional[dict] = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        if self.close_connection or self._unread_body or self.server.draining:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        self._send(status, _json_bytes(payload), headers)

    def _shed(self, endpoint: str, reason: str) -> None:
        """Deterministic 503: body + ``Retry-After``, counters recorded."""
        self.service.metrics.record_shed(reason)
        self.service.metrics.record_query(endpoint, 0.0, error=True)
        retry_after = self.service.config.retry_after_s
        self._reply(
            503,
            {
                "error": f"overloaded: {reason}",
                "retry_after_s": retry_after,
                "shed": True,
            },
            headers={"Retry-After": retry_after},
        )

    def _resolve(self, endpoint: str, payload: dict) -> None:
        """Run one query through the service, recording metrics.

        Admission happens here, before any work: a request that cannot
        be taken is shed with a deterministic 503 + ``Retry-After``
        (or 504 when its own deadline expired while queued). Health
        and metrics endpoints never pass through this path, so the
        daemon stays observable at any overload.
        """
        payload = dict(payload)
        try:
            cancel = cancel_token_from_payload(payload)
        except ValueError as exc:
            self.service.metrics.record_query(endpoint, 0.0, error=True)
            self._reply(400, {"error": str(exc)})
            return
        admitted, shed_reason = self.service.admission.try_admit(
            cancel=cancel
        )
        if not admitted:
            if shed_reason == "deadline":
                self.service.metrics.record_deadline_expired()
                self.service.metrics.record_query(
                    endpoint, 0.0, error=True
                )
                self._reply(
                    504,
                    {
                        "error": "deadline expired in admission queue",
                        "progress": {"stage": "admission-queue"},
                    },
                )
            else:
                self._shed(endpoint, shed_reason)
            return
        try:
            self._resolve_admitted(endpoint, payload, cancel)
        finally:
            self.service.admission.release()

    def _resolve_admitted(
        self, endpoint: str, payload: dict, cancel
    ) -> None:
        start = perf_counter()
        try:
            body = self.service.resolve_bytes(payload, cancel=cancel)
        except ValueError as exc:
            # Malformed query: client error, one actionable line.
            self.service.metrics.record_query(
                endpoint, 0.0, error=True
            )
            self._reply(400, {"error": str(exc)})
            return
        except DeadlineExceeded as exc:
            self.service.metrics.record_deadline_expired()
            self.service.metrics.record_query(endpoint, 0.0, error=True)
            self._reply(
                504,
                {"error": str(exc), "progress": dict(exc.progress)},
            )
            return
        except BreakerOpenError:
            # The service already tried its degraded fallbacks; with
            # none available the request is shed like any overload.
            self._shed(endpoint, "breaker_open")
            return
        except Exception as exc:  # noqa: BLE001 - must answer the client
            self.service.metrics.record_query(
                endpoint, 0.0, error=True
            )
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        elapsed_ms = (perf_counter() - start) * 1e3
        self.service.metrics.record_query(endpoint, elapsed_ms)
        self._send(200, body)

    # -- endpoints ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path == "/healthz":
            self._reply(200, {"status": "ok"})
        elif url.path == "/metrics":
            self._reply(200, self.service.metrics_snapshot())
        elif url.path == "/front":
            self._resolve("/front", dict(parse_qsl(url.query)))
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path != "/query":
            self._reply(404, {"error": f"unknown path {url.path!r}"})
            return
        if "Transfer-Encoding" in self.headers:
            self._reply(411, {"error": "send the query with a Content-Length"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError(f"negative length {length}")
        except ValueError as exc:
            self._reply(400, {"error": f"bad Content-Length: {exc}"})
            return
        if length > MAX_BODY_BYTES:
            self._reply(
                413, {"error": f"query body over {MAX_BODY_BYTES} bytes"}
            )
            return
        raw = self.rfile.read(length)
        self._unread_body = False
        try:
            payload = json.loads(raw or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("query body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"bad query body: {exc}"})
            return
        self._resolve("/query", payload)


class ServeServer(ThreadingHTTPServer):
    """The daemon's socket server bound to one :class:`SearchService`."""

    # Non-daemon threads + block_on_close: server_close() joins every
    # in-flight request — the graceful half of the SIGTERM drain.
    daemon_threads = False
    block_on_close = True

    def __init__(self, config: ServeConfig, service: SearchService):
        super().__init__((config.host, config.port), ServeHandler)
        self.config = config
        self.service = service
        # Set once by the drain; replies then close their connection.
        self.draining = False
        # Connections accepted since the server started.
        self.connections_accepted = 0
        # Connections whose handler waits for a request line.
        self._idle: Set[socket.socket] = set()
        self._idle_lock = threading.Lock()

    def serve_forever(self, poll_interval: float = SHUTDOWN_POLL_S) -> None:
        super().serve_forever(poll_interval)

    def process_request(self, request, client_address) -> None:
        self.connections_accepted += 1
        super().process_request(request, client_address)

    # -- keep-alive and drain ------------------------------------------------------

    def enter_idle(self, connection: socket.socket) -> bool:
        """Register ``connection`` as waiting for a request; ``False``
        (close it instead) once the server is draining."""
        with self._idle_lock:
            if self.draining:
                return False
            self._idle.add(connection)
            return True

    def leave_idle(self, connection: socket.socket) -> None:
        with self._idle_lock:
            self._idle.discard(connection)

    def _drain_idle(self) -> None:
        """Mark the server draining and close every idle connection.

        Shutting the read side wakes each idle handler with an
        end-of-stream, so it closes its connection now instead of
        after :data:`IDLE_TIMEOUT_S`; a request already read is still
        answered. Idempotent.
        """
        with self._idle_lock:
            self.draining = True
            for connection in self._idle:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already closed it
            self._idle.clear()

    def shutdown(self) -> None:
        """Stop accepting: drain idle connections, then end the loop."""
        self._drain_idle()
        super().shutdown()

    def server_close(self) -> None:
        """Close the listener and join every handler thread; in-flight
        requests are answered first, idle connections do not wait."""
        self._drain_idle()
        super().server_close()

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The actually-bound (host, port) — resolves ``port=0``."""
        return self.server_address[0], self.server_address[1]

    def write_endpoint_file(self) -> Optional[Path]:
        """Record where we listen in the state dir (atomic, for clients)."""
        if self.config.state_dir is None:
            return None
        import os

        host, port = self.endpoint
        path = Path(self.config.state_dir) / ENDPOINT_FILE
        atomic_write_json(
            path, {"host": host, "port": port, "pid": os.getpid()}
        )
        return path


def start_server(
    config: ServeConfig, warm: bool = True
) -> Tuple[ServeServer, threading.Thread]:
    """Bind, warm, and serve in a background thread (tests, benches).

    The returned server is already answering; stop it with
    ``server.shutdown(); server.server_close(); server.service.close()``.
    """
    service = SearchService(config)
    server = ServeServer(config, service)
    if warm:
        service.warm_start()
    server.write_endpoint_file()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread


def run_server(config: ServeConfig) -> int:
    """The blocking daemon loop with graceful SIGTERM/SIGINT drain.

    Sequence: bind, restore + warm, announce (stdout line + atomic
    ``endpoint.json``), serve until signalled, stop accepting, finish
    and answer every in-flight request, persist the front cache, exit
    0. Only used by ``python -m repro.serve``.
    """
    service = SearchService(config)
    server = ServeServer(config, service)
    host, port = server.endpoint

    warmed = service.warm_start()
    server.write_endpoint_file()
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(backend={config.backend}, workers={config.workers}, "
        f"warm fronts computed={warmed}, "
        f"restored={service.metrics.total_restored_fronts()})",
        flush=True,
    )

    def _drain(signum, frame) -> None:
        # shutdown() blocks until serve_forever exits; it must run off
        # the main thread, which is inside serve_forever right now.
        threading.Thread(
            target=server.shutdown, name="repro-serve-drain"
        ).start()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
        # Stop accepting, close idle connections, answer every
        # in-flight request and join its thread, then write the final
        # warm-restart snapshot.
        server.server_close()
        service.close()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    snapshot = service.metrics_snapshot()
    print(
        f"repro-serve drained: {snapshot['queries']['total']} queries "
        f"served ({snapshot['queries']['coalesced']} coalesced, "
        f"{snapshot['front_cache']['hits']} front-cache hits)",
        flush=True,
    )
    return 0
