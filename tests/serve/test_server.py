"""The HTTP skin: endpoints, byte-determinism, errors, endpoint file."""

import json
import threading
from urllib.parse import urlencode

import pytest

from repro.serve import ServeClient, ServeConfig, ServeError, start_server
from repro.serve.server import ENDPOINT_FILE
from repro.serve.service import _json_bytes

from tests.serve.conftest import SMALL_QUERY_KW


@pytest.fixture
def running_server(serial_config):
    server, thread = start_server(serial_config)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=30)


def _client(server) -> ServeClient:
    return ServeClient(*server.endpoint)


def _front_path(**extra) -> str:
    return "/front?" + urlencode({**SMALL_QUERY_KW, **extra})


class TestEndpoints:
    def test_healthz(self, running_server):
        assert _client(running_server).health() == {"status": "ok"}

    def test_front_get_and_query_post_agree(self, running_server):
        client = _client(running_server)
        via_get = client.front(**SMALL_QUERY_KW, target_ms=100.0)
        via_post = client.query(**SMALL_QUERY_KW, target_ms=100.0)
        assert via_get == via_post
        assert via_get["front"]

    def test_identical_requests_get_byte_identical_responses(
        self, running_server
    ):
        client = _client(running_server)
        status1, body1 = client.request_raw("GET", _front_path(target_ms=50))
        status2, body2 = client.request_raw("GET", _front_path(target_ms=50))
        assert status1 == status2 == 200
        assert body1 == body2
        # The canonical encoding: sorted keys, one trailing newline.
        assert body1 == _json_bytes(json.loads(body1))

    def test_metrics_reflect_traffic(self, running_server):
        client = _client(running_server)
        client.front(**SMALL_QUERY_KW)
        client.front(**SMALL_QUERY_KW)
        metrics = client.metrics()
        assert metrics["queries"]["total"] >= 2
        assert metrics["queries"]["by_endpoint"]["/front"] >= 2
        assert metrics["fronts"]["computed"] == 1
        assert metrics["front_cache"]["hits"] >= 1
        assert metrics["latency_ms"]["p99"] >= metrics["latency_ms"]["p50"]

    def test_bad_query_is_400_with_actionable_error(self, running_server):
        client = _client(running_server)
        with pytest.raises(ServeError) as excinfo:
            client.front(device="toaster", layout="proxy")
        assert excinfo.value.status == 400
        assert "device" in excinfo.value.body
        with pytest.raises(ServeError) as excinfo:
            client.query(**SMALL_QUERY_KW, sneed=1)
        assert excinfo.value.status == 400

    def test_unknown_paths_are_404(self, running_server):
        client = _client(running_server)
        for method, path in (("GET", "/fronts"), ("POST", "/metrics")):
            status, body = client.request_raw(method, path)
            assert status == 404, (method, path)
            assert b"unknown path" in body

    def test_malformed_post_body_is_400(self, running_server):
        client = _client(running_server)
        # A JSON array is valid JSON but not a query object.
        status, body = client.request_raw("POST", "/query", body=["nope"])
        assert status == 400
        assert b"bad query body" in body


class TestCoalescedTraffic:
    def test_concurrent_http_bursts_coalesce_and_match_bytes(
        self, running_server
    ):
        client = _client(running_server)
        path = _front_path(target_ms=25)
        bodies = [None] * 4

        def worker(i):
            status, body = client.request_raw("GET", path)
            assert status == 200
            bodies[i] = body

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(set(bodies)) == 1
        metrics = client.metrics()
        # One cold computation total, regardless of how the race between
        # the four requests resolved (followers either coalesced on the
        # in-flight leader or hit the freshly-filled cache).
        assert metrics["fronts"]["computed"] == 1


class TestEndpointFile:
    def test_endpoint_file_written_and_client_connects(self, tmp_path):
        config = ServeConfig(
            backend="serial", quiet=True, state_dir=str(tmp_path)
        )
        server, thread = start_server(config)
        try:
            payload = json.loads((tmp_path / ENDPOINT_FILE).read_text())
            assert (payload["host"], payload["port"]) == server.endpoint
            client = ServeClient.from_state_dir(tmp_path, wait_s=5)
            assert client.health() == {"status": "ok"}
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=30)

    def test_from_state_dir_times_out_without_daemon(self, tmp_path):
        with pytest.raises(TimeoutError):
            ServeClient.from_state_dir(tmp_path, wait_s=0.2)
