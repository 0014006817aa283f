"""Tiny stdlib client for the ``repro.serve`` daemon.

Used by the synthetic-traffic benchmark, the CI smoke job, and tests;
it is also the reference for how a downstream service would talk to
the daemon. Each thread that uses a :class:`ServeClient` keeps its own
kept-alive ``http.client`` connection, so one client is safe to share
across threads (the traffic benchmark drives one from two threads) and
a warm hit pays no connect. :meth:`ServeClient.close` closes them all.

A kept-alive connection the daemon has since closed (its idle timeout,
a drain) fails before any response byte. Such an exchange is resent
once on a fresh connection; that resend is transport bookkeeping, not
a retry attempt.

Transient transport faults — the connection resets and early
disconnects a restarting or overloaded daemon produces — are retried
under a :class:`repro.hardware.faults.RetryPolicy` (bounded attempts,
jittered exponential backoff). The jitter rng is drawn only when a
retry actually happens, so a healthy run's requests and responses are
bit-identical with or without retry configured. HTTP *status* errors
(4xx/5xx) are never retried here: a deterministic 503 shed is an
answer, and honoring ``Retry-After`` is the caller's policy decision.

With lint rule RL108, this module and :mod:`repro.serve.server` are
the only places allowed to construct HTTP connections directly.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection, HTTPResponse, RemoteDisconnected
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union
from urllib.parse import urlencode

import numpy as np

from repro.hardware.faults import ProbeError, RetryPolicy, run_with_retry
from repro.serve.server import ENDPOINT_FILE

# The transient shapes worth retrying: the peer vanished mid-exchange.
# Timeouts and refusals are excluded — retrying a refused connection
# hammers a daemon that is not there, and a timeout already waited.
_TRANSIENT = (
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
    RemoteDisconnected,
)

DEFAULT_RETRY = RetryPolicy(attempts=3, backoff_s=0.05)


def _send(
    conn: HTTPConnection,
    method: str,
    path: str,
    payload: Optional[bytes],
    headers: dict,
) -> HTTPResponse:
    """Send one request and read the response's status and headers."""
    conn.request(method, path, body=payload, headers=headers)
    return conn.getresponse()


class ServeError(RuntimeError):
    """A non-2xx daemon response; carries status and the error body."""

    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body.strip()}")
        self.status = status
        self.body = body


class ServeClient:
    """Talk JSON to one daemon endpoint.

    Parameters
    ----------
    host, port, timeout:
        Where to connect and the per-request socket timeout.
    retry:
        Transient-fault policy (``None`` = single attempt, the
        historical behaviour). Only the ``_TRANSIENT`` connection
        faults are retried.
    retry_seed:
        Seed of the backoff-jitter rng (its own stream, consumed only
        on actual retries).
    fault_hook:
        Optional zero-arg callable invoked at the top of every
        transport attempt — the chaos harness's injection point
        (:meth:`repro.resilience.ChaosInjector.transport_hook`).
        Faults it raises are retried like real ones.

    Any exception in an attempt, the hook's included, drops the
    calling thread's connection; its next request connects afresh.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = DEFAULT_RETRY,
        retry_seed: int = 0,
        fault_hook: Optional[Callable[[], None]] = None,
    ):
        # One kept-alive connection per thread that sent a request.
        self._connections: Dict[threading.Thread, HTTPConnection] = {}
        self._lock = threading.Lock()
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.fault_hook = fault_hook
        self._retry_rng = np.random.default_rng(retry_seed)
        # Observability: transport retries this client performed.
        self.transport_retries = 0

    @classmethod
    def from_state_dir(
        cls,
        state_dir: Union[str, Path],
        timeout: float = 60.0,
        wait_s: float = 0.0,
    ) -> "ServeClient":
        """Connect via the daemon's ``endpoint.json``.

        ``wait_s`` polls for the file (and a live ``/healthz``) — the
        startup handshake the smoke driver uses.
        """
        path = Path(state_dir) / ENDPOINT_FILE
        deadline = time.monotonic() + wait_s
        while True:
            if path.exists():
                try:
                    payload = json.loads(path.read_text())
                    client = cls(
                        str(payload["host"]),
                        int(payload["port"]),
                        timeout=timeout,
                    )
                    client.health()
                    return client
                except (ValueError, KeyError, OSError, ServeError):
                    pass  # partially started daemon; keep polling
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no live daemon behind {path} after {wait_s:.0f}s"
                )
            time.sleep(0.05)

    # -- transport ---------------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        """The calling thread's connection, made on its first request.

        Making one also closes those of threads that have exited.
        """
        thread = threading.current_thread()
        with self._lock:
            conn = self._connections.get(thread)
            if conn is None:
                for gone in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(gone).close()
                conn = HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
                self._connections[thread] = conn
        return conn

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._lock:
            connections, self._connections = self._connections, {}
        for conn in connections.values():
            conn.close()

    def __del__(self) -> None:
        self.close()

    def _attempt(
        self, method: str, path: str, body: Optional[object]
    ) -> Tuple[int, bytes]:
        """One transport attempt on this thread's connection (no retry)."""
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            if self.fault_hook is not None:
                self.fault_hook()
            # ``sock`` is unset on a fresh connection and after a reply
            # that closed the last one.
            reused = conn.sock is not None
            try:
                response = _send(conn, method, path, payload, headers)
            except _TRANSIENT:
                if not reused:
                    raise
                # The daemon closed the idle connection before reading
                # this request: resend it once on a new one.
                conn.close()
                response = _send(conn, method, path, payload, headers)
            return response.status, response.read()
        except BaseException:
            conn.close()
            raise

    def request_raw(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
    ) -> Tuple[int, bytes]:
        """One request; returns ``(status, raw body bytes)``.

        Raw bytes are first-class so callers can assert the daemon's
        byte-identical response contract, not just value equality.
        Transient connection faults are retried under ``self.retry``;
        after the last attempt the fault propagates as a
        :class:`~repro.hardware.faults.ProbeError` chaining the
        original exception.
        """
        if self.retry is None:
            return self._attempt(method, path, body)

        def probe() -> Tuple[int, bytes]:
            try:
                return self._attempt(method, path, body)
            except _TRANSIENT as exc:
                raise ProbeError(
                    f"transient transport fault: {exc}"
                ) from exc

        value, attempts = run_with_retry(
            probe, self.retry, rng=self._retry_rng
        )
        if attempts > 1:
            self.transport_retries += attempts - 1
        return value

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        status, raw = self.request_raw(method, path, body)
        if not 200 <= status < 300:
            raise ServeError(status, raw.decode("utf-8", "replace"))
        return json.loads(raw)

    # -- endpoints ---------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def front(self, **query) -> dict:
        """``GET /front`` with query fields as URL parameters."""
        qs = urlencode({k: v for k, v in query.items() if v is not None})
        return self._request("GET", f"/front?{qs}" if qs else "/front")

    def query(self, **query) -> dict:
        """``POST /query`` with the fields as a JSON body."""
        return self._request("POST", "/query", body=query)
