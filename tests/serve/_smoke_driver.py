"""CI smoke driver for a running ``repro.serve`` daemon.

Usage (the daemon must already be starting/running against STATE_DIR)::

    python tests/serve/_smoke_driver.py STATE_DIR BODY_FILE [--expect-restored]
    python tests/serve/_smoke_driver.py STATE_DIR BODY_FILE --overload
    python tests/serve/_smoke_driver.py STATE_DIR BODY_FILE --chaos
    python tests/serve/_smoke_driver.py STATE_DIR BODY_FILE --drain

Default mode: connects through the state directory's ``endpoint.json``,
fires a burst of concurrent identical queries, and asserts the serving
contracts: every response is byte-identical, ``/metrics`` is live and
consistent, and the served front is point-for-point bit-exact with the
offline pipeline run. The canonical response body is written to
``BODY_FILE`` on the first run; with ``--expect-restored`` (the
post-restart run) the driver instead requires the daemon to have
restored its fronts from the snapshot — zero recomputation — and to
serve bytes equal to ``BODY_FILE``.

``--overload`` drives a saturating burst of distinct cold queries at a
daemon started with tight admission (e.g. ``--max-inflight 1
--queue-depth 2 --queue-timeout 0.2``) and asserts the overload
contract: every response is a healthy 200 or a deterministic 503 shed,
an expired ``deadline_ms`` answers 504 with partial progress, the
daemon stays live throughout, and a previously-shed query served after
the storm is byte-deterministic.

``--chaos`` hammers a daemon started with a ``--chaos`` fault spec and
asserts that every response is classifiable — 200 healthy
(byte-identical per query), 200 degraded (flagged), 503 shed, 504
deadline, or a 500 carrying the injected fault — and that the daemon
outlives the storm.

``--drain`` saturates the daemon, SIGTERMs it (pid from
``endpoint.json``) while requests are in flight, and asserts the
graceful half of the drain: every admitted request is still answered
200; refused connections are the only other acceptable outcome. It
holds one idle kept-alive connection and one silent socket (connected,
never sending) open across the SIGTERM and asserts the daemon closes
both at once instead of waiting on them. The daemon's exit code and
drain line are the caller's to check.

Exit 0 on success; any broken contract raises (non-zero exit).
"""

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlencode

from repro.accuracy import AccuracySurrogate
from repro.serve import ServeClient
from repro.serve.pipeline import (
    build_front_predictor,
    front_search,
    space_for_layout,
)
from repro.serve.query import FrontQuery

QUERY = dict(
    device="edge", layout="proxy", seed=3, generations=3, population_size=8
)
BURST = 8


def _burst(client: ServeClient, path: str) -> bytes:
    bodies = [None] * BURST

    def worker(i):
        status, body = client.request_raw("GET", path)
        assert status == 200, f"request {i} got HTTP {status}: {body!r}"
        bodies[i] = body

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(BURST)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    distinct = set(bodies)
    assert len(distinct) == 1, (
        f"burst produced {len(distinct)} distinct response bodies"
    )
    return bodies[0]


def _assert_offline_bit_exact(client: ServeClient) -> None:
    served = client.front(**QUERY)
    query = FrontQuery(**QUERY)
    space = space_for_layout(query.layout)
    predictor = build_front_predictor(space, query.device, query.seed)
    offline = front_search(
        space,
        predictor,
        seed=query.seed,
        generations=query.generations,
        population_size=query.population_size,
        backend="serial",
        surrogate=AccuracySurrogate(space),
    )
    assert served["num_evaluations"] == offline.num_evaluations
    assert len(served["front"]) == len(offline.front), (
        f"front sizes differ: {len(served['front'])} served "
        f"vs {len(offline.front)} offline"
    )
    for got, want in zip(served["front"], offline.front):
        assert got["latency_ms"] == want.latency_ms, "latency not bit-exact"
        assert got["accuracy"] == want.accuracy, "accuracy not bit-exact"


def _concurrent_requests(client: ServeClient, paths):
    """Fire every path concurrently; return ``[(status, body) | exc]``."""
    outcomes = [None] * len(paths)

    def worker(i, path):
        try:
            outcomes[i] = client.request_raw("GET", path)
        except Exception as exc:  # noqa: BLE001 - classified by caller
            outcomes[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i, path))
        for i, path in enumerate(paths)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
        assert not t.is_alive(), "a request thread hung: daemon deadlock?"
    return outcomes


def _overload_drill(client: ServeClient) -> None:
    """Saturate tight admission; every answer must be 200 or a 503 shed."""
    seeds = list(range(10, 26))
    paths = [
        "/front?" + urlencode({**QUERY, "seed": seed}) for seed in seeds
    ]
    outcomes = _concurrent_requests(client, paths)

    ok, shed = [], []
    for seed, outcome in zip(seeds, outcomes):
        assert not isinstance(outcome, Exception), (
            f"seed {seed} failed at the transport: {outcome!r}"
        )
        status, body = outcome
        if status == 200:
            ok.append(seed)
        elif status == 503:
            payload = json.loads(body)
            assert payload["shed"] is True, f"503 without shed flag: {body!r}"
            assert payload["retry_after_s"] >= 1
            shed.append(seed)
        else:
            raise AssertionError(
                f"seed {seed}: unexpected HTTP {status}: {body!r}"
            )
    assert ok, "saturating burst produced no healthy responses"
    assert shed, "saturating burst shed nothing: admission not engaged"
    print(
        f"overload burst: {len(ok)} served, {len(shed)} deterministically "
        f"shed (503 + Retry-After)"
    )

    # The daemon is still observable and still serving.
    assert client.health() == {"status": "ok"}

    # A request whose deadline expires mid-computation answers 504 with
    # partial progress, not a hang.
    status, body = client.request_raw(
        "POST", "/query", body={**QUERY, "seed": 97, "deadline_ms": 1}
    )
    assert status == 504, f"expected 504 deadline, got {status}: {body!r}"
    progress = json.loads(body)["progress"]
    assert "stage" in progress, f"504 without progress stage: {body!r}"
    print(f"deadline_ms=1 answered 504 with progress {progress}")

    # A shed query is refusal, not corruption: served after the storm it
    # is byte-deterministic.
    path = "/front?" + urlencode({**QUERY, "seed": shed[0]})
    status, first = client.request_raw("GET", path)
    assert status == 200, f"post-storm retry got {status}"
    status, second = client.request_raw("GET", path)
    assert status == 200 and first == second, (
        "post-storm responses not byte-identical"
    )
    print(f"previously-shed seed {shed[0]} now serves byte-identically")

    metrics = client.metrics()
    resilience = metrics["resilience"]
    assert resilience["shed_total"] >= len(shed)
    assert resilience["deadline_expired"] >= 1
    print(
        f"metrics: shed={resilience['shed']} "
        f"deadline_expired={resilience['deadline_expired']}"
    )


def _chaos_drill(client: ServeClient) -> None:
    """Chaos-injected overload: every response classifiable, none hung.

    The daemon runs with seeded fault injection on live computations
    (``--chaos``). The contract: each response is 200 healthy
    (byte-identical per query), 200 degraded (flagged), 503 shed, 504
    deadline, or a 500 carrying the injected ChaosError — and the
    daemon answers ``/healthz`` afterwards.
    """
    seeds = [3, 4, 5] * 8
    paths = [
        "/front?" + urlencode({**QUERY, "seed": seed}) for seed in seeds
    ]
    outcomes = _concurrent_requests(client, paths)

    counts = {
        "healthy": 0, "degraded": 0, "shed": 0, "deadline": 0, "fault": 0,
    }
    healthy_bodies = {}
    for path, outcome in zip(paths, outcomes):
        assert not isinstance(outcome, Exception), (
            f"{path} failed at the transport: {outcome!r}"
        )
        status, body = outcome
        if status == 200:
            payload = json.loads(body)
            if payload.get("degraded"):
                assert payload["degraded_reason"], "degraded without reason"
                counts["degraded"] += 1
            else:
                healthy_bodies.setdefault(path, set()).add(body)
                counts["healthy"] += 1
        elif status == 503:
            assert json.loads(body)["shed"] is True
            counts["shed"] += 1
        elif status == 504:
            assert "progress" in json.loads(body)
            counts["deadline"] += 1
        elif status == 500:
            assert b"ChaosError" in body, f"unexpected 500: {body!r}"
            counts["fault"] += 1
        else:
            raise AssertionError(f"{path}: unclassifiable {status}: {body!r}")

    assert counts["healthy"] >= 1, f"no healthy responses at all: {counts}"
    for path, bodies in healthy_bodies.items():
        assert len(bodies) == 1, (
            f"{path}: {len(bodies)} distinct healthy bodies under chaos"
        )
    assert client.health() == {"status": "ok"}
    print(
        "chaos drill: every response classified "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        + "; healthy bodies byte-identical per query; daemon live"
    )


def _assert_closed_by_daemon(sock: socket.socket, what: str) -> None:
    """The daemon closes ``sock`` within the socket's 30 s timeout."""
    try:
        data = sock.recv(1)
    except ConnectionResetError:
        data = b""
    except socket.timeout:
        raise AssertionError(f"drain left the {what} open") from None
    assert data == b"", f"{what} received {data!r} during the drain"
    print(f"drain closed the {what}")


def _drain_drill(client: ServeClient, state_dir: str) -> None:
    """SIGTERM under load: admitted requests answered, then a clean exit."""
    endpoint = json.loads(
        (Path(state_dir) / "endpoint.json").read_text()
    )
    pid = int(endpoint["pid"])

    seeds = list(range(40, 46))
    paths = [
        "/front?" + urlencode({**QUERY, "seed": seed}) for seed in seeds
    ]
    outcomes = [None] * len(paths)

    def worker(i, path):
        try:
            outcomes[i] = client.request_raw("GET", path)
        except Exception as exc:  # noqa: BLE001 - classified below
            outcomes[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i, path))
        for i, path in enumerate(paths)
    ]
    for t in threads:
        t.start()

    # Wait until the daemon actually has work in flight, then pull the
    # plug mid-computation.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        snap = client.metrics()["resilience"]["admission"]
        if snap["in_flight"] >= 1:
            break
        time.sleep(0.05)
    else:
        raise AssertionError("no request ever went in flight")
    # One connection that never sends a byte, and one kept alive idle
    # after a request: the drain must close both, not wait on them. The
    # daemon accepts in connect order, so the answered request shows it
    # accepted the silent connection too.
    silent = socket.create_connection((client.host, client.port), timeout=30)
    idle = HTTPConnection(client.host, client.port, timeout=30)
    idle.request("GET", "/healthz")
    assert idle.getresponse().read() == b'{"status": "ok"}\n'
    os.kill(pid, signal.SIGTERM)
    print(f"SIGTERM sent to pid {pid} with work in flight")
    _assert_closed_by_daemon(idle.sock, "idle kept-alive connection")
    _assert_closed_by_daemon(silent, "silent connection")
    idle.close()
    silent.close()

    for t in threads:
        t.join(timeout=600)
        assert not t.is_alive(), "a request thread hung across the drain"

    served = shed = refused = 0
    for seed, outcome in zip(seeds, outcomes):
        if isinstance(outcome, tuple):
            status, body = outcome
            if status == 200:
                served += 1
            elif status == 503:
                # Admission stays engaged while draining: a shed is a
                # deterministic answer, not a casualty.
                assert json.loads(body)["shed"] is True
                shed += 1
            else:
                raise AssertionError(
                    f"seed {seed}: drain answered HTTP {status}: {body!r}"
                )
        else:
            # Requests that had not connected when the socket closed
            # are refused/reset — never half-answered.
            refused += 1
    assert served >= 1, "drain answered none of the in-flight requests"
    print(
        f"drain: {served} in-flight requests answered, "
        f"{shed} shed, {refused} refused"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("state_dir")
    parser.add_argument("body_file", type=Path)
    parser.add_argument(
        "--expect-restored", action="store_true",
        help="require restored-from-snapshot state (post-restart run): "
             "zero front computations and bytes equal to BODY_FILE",
    )
    parser.add_argument(
        "--overload", action="store_true",
        help="overload drill against tight admission: assert the "
             "200-or-deterministic-refusal contract (BODY_FILE unused)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="chaos drill against a fault-injected daemon: every "
             "response must be classifiable, none hung (BODY_FILE "
             "unused)",
    )
    parser.add_argument(
        "--drain", action="store_true",
        help="SIGTERM the daemon under load and assert the graceful "
             "drain contract (BODY_FILE unused)",
    )
    args = parser.parse_args(argv)

    client = ServeClient.from_state_dir(args.state_dir, wait_s=60)
    print(f"connected to daemon at {client.host}:{client.port}")

    if args.overload:
        _overload_drill(client)
        return 0
    if args.chaos:
        _chaos_drill(client)
        return 0
    if args.drain:
        _drain_drill(client, args.state_dir)
        return 0

    path = "/front?" + urlencode({**QUERY, "target_ms": 50})
    body = _burst(client, path)
    print(f"burst of {BURST} concurrent queries: all byte-identical")

    metrics = client.metrics()
    assert metrics, "/metrics returned an empty payload"
    assert metrics["queries"]["total"] >= BURST
    assert metrics["queries"]["errors"] == 0
    assert metrics["front_cache"]["size"] >= 1
    hits = metrics["front_cache"]["hits"]
    coalesced = metrics["queries"]["coalesced"]
    if args.expect_restored:
        assert metrics["fronts"]["restored"] >= 1, (
            f"expected restored fronts, got {metrics['fronts']}"
        )
        assert metrics["fronts"]["computed"] == 0, (
            f"restored daemon recomputed: {metrics['fronts']}"
        )
        previous = args.body_file.read_bytes()
        assert body == previous, "post-restart bytes differ from pre-kill"
        print("warm restart: restored state, zero recompute, same bytes")
    else:
        assert metrics["fronts"]["computed"] == 1, (
            f"burst must cost exactly one computation: {metrics['fronts']}"
        )
        args.body_file.write_bytes(body)
    print(
        f"metrics: {metrics['queries']['total']} queries, "
        f"{hits} cache hits, {coalesced} coalesced, "
        f"p99 {metrics['latency_ms']['p99']:.2f} ms"
    )

    _assert_offline_bit_exact(client)
    print("served front is bit-exact with the offline pipeline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
