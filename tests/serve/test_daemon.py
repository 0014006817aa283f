"""``python -m repro.serve`` lifecycle: start, drain, warm restart.

These run the real daemon in a subprocess — the same way the CI
serve-smoke job and an operator would — and assert the full contract:
one ``listening on`` line, graceful SIGTERM drain with exit 0, and a
restart that serves byte-identical responses from restored state
without recomputing.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlencode

from repro.serve import ServeClient

from tests.serve.conftest import SMALL_QUERY_KW

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn_daemon(state_dir, *extra_args):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        REPO_SRC + os.pathsep + existing if existing else REPO_SRC
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--backend", "serial",
            "--state-dir", str(state_dir),
            "--quiet",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _drain(proc) -> str:
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    return out


class TestDaemonLifecycle:
    def test_serve_sigterm_drain_and_warm_restart(self, tmp_path):
        state = tmp_path / "state"
        front_path = "/front?" + urlencode({**SMALL_QUERY_KW,
                                            "target_ms": 50})

        proc = _spawn_daemon(state)
        try:
            client = ServeClient.from_state_dir(state, wait_s=30)
            status, cold_body = client.request_raw("GET", front_path)
            assert status == 200
            metrics = client.metrics()
            assert metrics["fronts"]["computed"] == 1
        finally:
            out = _drain(proc)
        assert proc.returncode == 0
        assert "repro-serve listening on http://" in out
        assert "repro-serve drained:" in out

        # Warm restart: restored state, zero recomputation, same bytes.
        proc = _spawn_daemon(state)
        try:
            client = ServeClient.from_state_dir(state, wait_s=30)
            status, warm_body = client.request_raw("GET", front_path)
            assert status == 200
            assert warm_body == cold_body
            metrics = client.metrics()
            assert metrics["fronts"]["restored"] == 1
            assert metrics["fronts"]["computed"] == 0
        finally:
            out = _drain(proc)
        assert proc.returncode == 0
        assert "restored=1" in out

    def test_bad_state_dir_exits_2_with_one_line_error(self, tmp_path):
        # A state dir created by a different run kind must be refused.
        from repro.runstate import RunDir

        foreign = tmp_path / "foreign"
        RunDir.create(foreign, "search", {"seed": 0}, ("search",))
        proc = _spawn_daemon(foreign)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out.startswith("error:")
        assert "\nTraceback" not in out
