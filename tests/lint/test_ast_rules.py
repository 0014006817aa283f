"""Each AST rule must fire on a seeded violation and stay silent on the
equivalent clean code."""

import textwrap

from repro.lint.ast_rules import lint_source


def _lint(code: str):
    return lint_source(textwrap.dedent(code), path="fixture.py")


def _rule_ids(code: str):
    return [f.rule_id for f in _lint(code)]


class TestGlobalRng:
    def test_np_random_call_fires(self):
        findings = _lint(
            """
            import numpy as np

            def sample():
                return np.random.rand(3)
            """
        )
        assert [f.rule_id for f in findings] == ["RL101"]
        assert findings[0].line == 5
        assert "np.random.rand" in findings[0].message

    def test_np_random_seed_fires(self):
        assert _rule_ids(
            """
            import numpy as np
            np.random.seed(0)
            """
        ) == ["RL101"]

    def test_stdlib_random_fires(self):
        assert _rule_ids(
            """
            import random
            x = random.choice([1, 2, 3])
            """
        ) == ["RL101"]

    def test_from_import_fires(self):
        assert _rule_ids(
            """
            from random import shuffle
            shuffle([1, 2])
            """
        ) == ["RL101"]

    def test_numpy_random_submodule_alias_fires(self):
        assert _rule_ids(
            """
            import numpy.random as npr
            npr.normal(0.0, 1.0)
            """
        ) == ["RL101"]

    def test_generator_api_is_clean(self):
        assert _rule_ids(
            """
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                seq = np.random.SeedSequence(seed)
                gen = np.random.Generator(np.random.PCG64(seed))
                return rng.normal(), seq, gen
            """
        ) == []

    def test_unrelated_random_attribute_is_clean(self):
        # A local object that happens to have a .random() method.
        assert _rule_ids(
            """
            def draw(rng):
                return rng.random()
            """
        ) == []


class TestWorkspaceMutation:
    def test_augassign_on_workspace_buffer_fires(self):
        findings = _lint(
            """
            def forward(self, x):
                buf = self._workspace.get(x.shape)
                buf += 1.0
                return buf
            """
        )
        assert [f.rule_id for f in findings] == ["RL103"]

    def test_subscript_store_on_as_table_fires(self):
        assert _rule_ids(
            """
            def patch(lut):
                table = lut.as_table()
                table.cells[0, 0, 0, 0] = 0.0
            """
        ) == ["RL103"]

    def test_fill_on_cache_result_fires(self):
        assert _rule_ids(
            """
            def reset(cache, arch, fn):
                value = cache.get_or_eval(arch, fn)
                value.fill(0.0)
            """
        ) == ["RL103"]

    def test_copy_then_mutate_is_clean(self):
        assert _rule_ids(
            """
            def forward(self, x):
                buf = self._workspace.get(x.shape).copy()
                local = buf + 1.0
                return local
            """
        ) == []

    def test_rebinding_clears_tracking(self):
        assert _rule_ids(
            """
            def forward(self, x, y):
                buf = self._workspace.get(x.shape)
                out = compute(buf)
                buf = y.copy()
                buf += 1.0
                return out
            """
        ) == []

    def test_plain_dict_get_is_clean(self):
        assert _rule_ids(
            """
            def read(options):
                value = options.get("mode")
                value += "x"
                return value
            """
        ) == []


class TestRawJsonWrite:
    def test_json_dump_fires(self):
        findings = _lint(
            """
            import json

            def save(obj, handle):
                json.dump(obj, handle)
            """
        )
        assert [f.rule_id for f in findings] == ["RL106"]
        assert "atomic_write_json" in findings[0].message

    def test_direct_dump_import_fires(self):
        assert _rule_ids(
            """
            from json import dump

            def save(obj, handle):
                dump(obj, handle)
            """
        ) == ["RL106"]

    def test_write_text_of_dumps_fires(self):
        assert _rule_ids(
            """
            import json

            def save(path, obj):
                path.write_text(json.dumps(obj, indent=2) + "\\n")
            """
        ) == ["RL106"]

    def test_handle_write_of_dumps_fires(self):
        assert _rule_ids(
            """
            import json

            def save(handle, obj):
                handle.write(json.dumps(obj))
            """
        ) == ["RL106"]

    def test_atomic_helper_is_clean(self):
        assert _rule_ids(
            """
            from repro.runstate.atomic import atomic_write_json, atomic_write_text

            def save(path, obj, text):
                atomic_write_json(path, obj)
                atomic_write_text(path, text)
            """
        ) == []

    def test_non_json_write_is_clean(self):
        assert _rule_ids(
            """
            def save(path, text):
                path.write_text(text)
            """
        ) == []

    def test_json_loads_is_clean(self):
        assert _rule_ids(
            """
            import json

            def load(path):
                return json.loads(path.read_text())
            """
        ) == []

    def test_suppression_works(self):
        assert _rule_ids(
            """
            import json

            def save(obj, handle):
                json.dump(obj, handle)  # repro-lint: disable=RL106
            """
        ) == []


class TestDirectWorkerPool:
    def test_direct_construction_fires(self):
        findings = _lint(
            """
            from repro.parallel import WorkerPool

            def evaluate(fn, archs):
                with WorkerPool(fn, workers=4) as pool:
                    return pool.map(archs)
            """
        )
        assert [f.rule_id for f in findings] == ["RL107"]
        assert "create_backend" in findings[0].message

    def test_qualified_construction_fires(self):
        assert _rule_ids(
            """
            import repro.parallel.pool as pool_mod

            def evaluate(fn):
                return pool_mod.WorkerPool(fn, workers=2)
            """
        ) == ["RL107"]

    def test_factory_call_is_clean(self):
        assert _rule_ids(
            """
            from repro.parallel import create_backend

            def evaluate(fn, archs, backend):
                with create_backend(backend, fn, workers=4) as pool:
                    return pool.map(archs)
            """
        ) == []

    def test_backend_layer_is_exempt(self):
        code = textwrap.dedent(
            """
            from repro.parallel.pool import WorkerPool

            def make(fn):
                return WorkerPool(fn, workers=2)
            """
        )
        assert [
            f.rule_id
            for f in lint_source(code, path="src/repro/parallel/backend.py")
        ] == []
        assert [
            f.rule_id
            for f in lint_source(code, path="tests/parallel/test_pool.py")
        ] == []
        assert [
            f.rule_id for f in lint_source(code, path="src/repro/core/x.py")
        ] == ["RL107"]

    def test_suppression_comment_silences(self):
        assert _rule_ids(
            """
            from repro.parallel import WorkerPool

            def make(fn):
                return WorkerPool(fn)  # repro-lint: disable=RL107
            """
        ) == []


class TestDirectSocketServer:
    def test_http_server_construction_fires(self):
        findings = _lint(
            """
            from http.server import ThreadingHTTPServer, BaseHTTPRequestHandler

            def serve(handler):
                return ThreadingHTTPServer(("127.0.0.1", 0), handler)
            """
        )
        assert [f.rule_id for f in findings] == ["RL108"]
        assert "repro.serve" in findings[0].message

    def test_raw_socket_and_connection_fire(self):
        assert _rule_ids(
            """
            import socket
            from http.client import HTTPConnection

            def probe(host, port):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                conn = HTTPConnection(host, port)
                return sock, conn
            """
        ) == ["RL108", "RL108"]

    def test_serve_client_usage_is_clean(self):
        assert _rule_ids(
            """
            from repro.serve import ServeClient

            def fetch(host, port):
                return ServeClient(host, port).metrics()
            """
        ) == []

    def test_serve_layer_is_exempt(self):
        code = textwrap.dedent(
            """
            from http.server import ThreadingHTTPServer

            def bind(handler):
                return ThreadingHTTPServer(("127.0.0.1", 0), handler)
            """
        )
        assert [
            f.rule_id
            for f in lint_source(code, path="src/repro/serve/server.py")
        ] == []
        assert [
            f.rule_id
            for f in lint_source(code, path="tests/serve/test_server.py")
        ] == []
        assert [
            f.rule_id for f in lint_source(code, path="src/repro/cli.py")
        ] == ["RL108"]

    def test_suppression_comment_silences(self):
        assert _rule_ids(
            """
            import socket

            def probe():
                return socket.create_connection(("::1", 80))  # repro-lint: disable=RL108
            """
        ) == []


class TestUnboundedBlockingWait:
    """RL109 fires only inside the threaded runtime layers."""

    IN_SCOPE = "src/repro/serve/service.py"

    def _lint_at(self, code: str, path: str):
        return [
            f.rule_id
            for f in lint_source(textwrap.dedent(code), path=path)
        ]

    def test_bare_event_wait_fires_in_scope(self):
        code = """
            import threading

            def block(ready: threading.Event):
                ready.wait()
            """
        assert self._lint_at(code, self.IN_SCOPE) == ["RL109"]
        assert self._lint_at(code, "src/repro/parallel/pool.py") == [
            "RL109"
        ]
        assert self._lint_at(
            code, "src/repro/resilience/chaos.py"
        ) == ["RL109"]

    def test_out_of_scope_paths_are_silent(self):
        code = """
            import threading

            def block(ready: threading.Event):
                ready.wait()
            """
        assert self._lint_at(code, "fixture.py") == []
        assert self._lint_at(code, "src/repro/core/nsga2.py") == []

    def test_timeout_forms_are_clean(self):
        assert self._lint_at(
            """
            def poll(ready, cond, jobs):
                ready.wait(timeout=1.0)
                cond.wait(0.5)
                jobs.get(timeout=1.0)
            """,
            self.IN_SCOPE,
        ) == []

    def test_futures_wait_needs_a_timeout(self):
        code = """
            from concurrent.futures import wait

            def drain(futures):
                wait(futures)
            """
        assert self._lint_at(code, self.IN_SCOPE) == ["RL109"]
        assert self._lint_at(
            """
            from concurrent.futures import wait

            def drain(futures):
                wait(futures, timeout=5.0)
            """,
            self.IN_SCOPE,
        ) == []

    def test_queue_get_flagged_only_on_queueish_receivers(self):
        assert self._lint_at(
            """
            def take(self):
                return self._queue.get()
            """,
            self.IN_SCOPE,
        ) == ["RL109"]
        assert self._lint_at(
            """
            def take(inbox, config):
                item = inbox.get()
                return item, config.get()
            """,
            self.IN_SCOPE,
        ) == ["RL109"]

    def test_suppression_comment_silences(self):
        assert self._lint_at(
            """
            def block(ready):
                ready.wait()  # repro-lint: disable=RL109
            """,
            self.IN_SCOPE,
        ) == []


class TestSuppression:
    def test_named_suppression_silences_rule(self):
        assert _rule_ids(
            """
            import numpy as np
            np.random.seed(0)  # repro-lint: disable=RL101
            """
        ) == []

    def test_bare_suppression_silences_everything(self):
        assert _rule_ids(
            """
            import numpy as np
            np.random.seed(0)  # repro-lint: disable
            """
        ) == []

    def test_wrong_rule_id_does_not_suppress(self):
        assert _rule_ids(
            """
            import numpy as np
            np.random.seed(0)  # repro-lint: disable=RL103
            """
        ) == ["RL101"]


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        findings = _lint("def broken(:\n    pass")
        assert [f.rule_id for f in findings] == ["RL100"]

    def test_findings_carry_file_and_line(self):
        findings = _lint(
            """
            import numpy as np
            np.random.seed(0)
            """
        )
        assert findings[0].file == "fixture.py"
        assert findings[0].line == 3
