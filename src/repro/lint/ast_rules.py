"""AST-based code lint rules (stdlib ``ast``, no third-party deps).

Repo-specific rules distilled from bugs this codebase has actually had
or is structurally prone to:

* **RL101 global-rng** — calls into the legacy global RNG
  (``np.random.rand`` & friends, stdlib ``random``) make supernet
  training and EA runs non-reproducible; every draw must flow through an
  injected ``np.random.Generator`` seeded once per run.
* **RL103 workspace-mutation** — arrays handed out by cache/workspace
  accessors (``Im2colWorkspace.get``, ``LatencyLUT.as_table``,
  ``EvaluationCache.get_or_eval``) are shared; mutating them in place
  corrupts every other alias (the im2col aliasing hazard).
* **RL106 raw-json-write** — JSON artifacts written via
  ``json.dump``/``handle.write(json.dumps(...))``/``Path.write_text``
  can be torn in half by a crash; every JSON artifact must go through
  :mod:`repro.runstate.atomic` (``atomic_write_json``/``_text``) so
  readers only ever see a complete old or complete new file.
* **RL107 direct-worker-pool** — ``WorkerPool`` is the multiprocess
  backend, so constructing it directly hard-wires that execution mode;
  call sites must go through ``repro.parallel.create_backend`` so
  ``--backend serial`` keeps working everywhere. The backend layer
  itself (``repro/parallel/``) and its tests (``tests/parallel/``) are
  exempt.
* **RL108 direct-socket-server** — constructing sockets, HTTP servers,
  or HTTP connections outside :mod:`repro.serve` forks the serving
  surface: a second listener would dodge the daemon's coalescing,
  metrics, graceful drain, and byte-determinism contracts. All network
  I/O goes through ``repro.serve.server`` / ``repro.serve.client``; the
  serve layer itself (``repro/serve/``) and its tests (``tests/serve/``)
  are exempt.
* **RL109 unbounded-blocking-wait** — a ``.wait()`` / ``wait(...)`` /
  queue ``.get()`` with no timeout inside the threaded runtime layers
  (``repro/serve/``, ``repro/parallel/``, ``repro/resilience/``) blocks
  its thread forever when the wake-up never comes — the coalescing
  leader-death hang class: a follower waiting on a leader that died
  waits until the daemon is killed. Every blocking primitive there must
  take a timeout and re-check its condition in a loop, so a lost signal
  degrades to one poll interval of latency instead of a deadlock. Only
  those layers are in scope; ordinary code is untouched.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.astcache import (
    AstCache,
    SourceFile,
    attr_chain,
    collect_python_files,
)
from repro.lint.findings import Finding
from repro.lint.rules import CODE_RULES, Rule, filter_suppressed

RL101 = CODE_RULES.register(
    Rule(
        "RL101",
        "global-rng",
        "global RNG call; thread an injected, seeded np.random.Generator "
        "instead so runs are bit-reproducible under a single seed",
    )
)
RL103 = CODE_RULES.register(
    Rule(
        "RL103",
        "workspace-mutation",
        "in-place mutation of an array returned by a cache/workspace "
        "accessor; copy it (or write through the accessor's API) — the "
        "buffer is shared with other call sites",
    )
)
RL106 = CODE_RULES.register(
    Rule(
        "RL106",
        "raw-json-write",
        "JSON artifact written without the atomic helper; use "
        "atomic_write_json/atomic_write_text from repro.runstate.atomic "
        "so a crash cannot leave a torn half-file",
    )
)
RL107 = CODE_RULES.register(
    Rule(
        "RL107",
        "direct-worker-pool",
        "direct WorkerPool construction hard-wires the multiprocess "
        "backend; use repro.parallel.create_backend so the "
        "serial/multiprocess choice stays a config knob",
    )
)

RL108 = CODE_RULES.register(
    Rule(
        "RL108",
        "direct-socket-server",
        "direct socket/HTTP server or connection construction outside "
        "repro.serve; route network I/O through repro.serve.server / "
        "repro.serve.client so coalescing, metrics, and graceful drain "
        "apply everywhere",
    )
)

RL109 = CODE_RULES.register(
    Rule(
        "RL109",
        "unbounded-blocking-wait",
        "blocking primitive with no timeout in a threaded runtime "
        "layer; pass timeout= and re-check the condition in a loop so "
        "a lost wake-up cannot deadlock the daemon",
    )
)

# Paths where constructing WorkerPool directly is the point: the backend
# layer it belongs to, and the tests that exercise the pool itself.
_RL107_EXEMPT_PATH_PARTS = ("repro/parallel/", "tests/parallel/")

# Paths where touching sockets directly is the point: the serving layer
# itself and the tests that exercise it.
_RL108_EXEMPT_PATH_PARTS = ("repro/serve/", "tests/serve/")

# RL109 applies ONLY here — the layers whose threads serve requests or
# supervise workers, where an unbounded block is a daemon-wide hang.
_RL109_SCOPE_PATH_PARTS = (
    "repro/serve/",
    "repro/parallel/",
    "repro/resilience/",
)

# Receiver names that mark a ``.get()`` as a blocking queue read (a
# dict-style ``.get(key)`` always has a positional key, so plain dict
# lookups never match the zero-arg form this rule flags).
_RL109_QUEUE_NAMES = ("queue", "inbox", "mailbox")

# Constructors that open a listening socket or client connection.
_SOCKET_CONSTRUCTORS = {
    "socket",
    "create_connection",
    "create_server",
    "HTTPServer",
    "ThreadingHTTPServer",
    "TCPServer",
    "ThreadingTCPServer",
    "UDPServer",
    "HTTPConnection",
    "HTTPSConnection",
}


def _path_exempt(path: str, parts: Sequence[str]) -> bool:
    normalized = path.replace("\\", "/")
    return any(part in normalized for part in parts)


def _rl107_exempt(path: str) -> bool:
    return _path_exempt(path, _RL107_EXEMPT_PATH_PARTS)

# np.random attributes that are part of the Generator-based API and
# therefore fine to touch from module scope.
_ALLOWED_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

# stdlib ``random`` module functions that draw from the global state.
_GLOBAL_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "uniform",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "triangular",
    "seed",
    "getrandbits",
    "randbytes",
}

# Accessor method names whose return value is a shared buffer (RL103).
_SHARED_ACCESSORS = {
    "as_table",
    "get_or_eval",
    "get_or_eval_many",
}
# ``.get(...)`` only counts when the receiver looks like a workspace or
# cache object — plain dict.get is not a shared-buffer accessor.
_SHARED_RECEIVER_HINTS = ("workspace", "cache")


class _ModuleImports(ast.NodeVisitor):
    """Aliases under which numpy/numpy.random/random are visible."""

    def __init__(self) -> None:
        self.numpy_aliases: Set[str] = set()
        self.np_random_aliases: Set[str] = set()
        self.stdlib_random_aliases: Set[str] = set()
        self.json_aliases: Set[str] = set()
        # from numpy.random import rand  /  from random import shuffle
        self.direct_global_fns: Dict[str, str] = {}  # alias -> origin
        # from json import dump, dumps — alias -> original name
        self.direct_json_fns: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if alias.name == "numpy":
                self.numpy_aliases.add(name)
            elif alias.name == "numpy.random":
                if alias.asname is None:
                    # visible as ``numpy.random.<fn>`` — the 3-part form
                    self.numpy_aliases.add("numpy")
                else:
                    self.np_random_aliases.add(alias.asname)
            elif alias.name == "random":
                self.stdlib_random_aliases.add(name)
            elif alias.name == "json":
                self.json_aliases.add(name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "json":
            for alias in node.names:
                if alias.name in ("dump", "dumps"):
                    self.direct_json_fns[alias.asname or alias.name] = (
                        alias.name
                    )
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.np_random_aliases.add(alias.asname or alias.name)
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _ALLOWED_NP_RANDOM:
                    self.direct_global_fns[alias.asname or alias.name] = (
                        f"numpy.random.{alias.name}"
                    )
        elif node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RANDOM_FNS:
                    self.direct_global_fns[alias.asname or alias.name] = (
                        f"random.{alias.name}"
                    )


class _Checker(ast.NodeVisitor):
    """Single-pass visitor emitting findings for every RL rule."""

    def __init__(self, path: str, imports: _ModuleImports) -> None:
        self.path = path
        self.imports = imports
        self.findings: List[Finding] = []
        # Names bound (in any scope; conservatively flat) to shared
        # accessor results, for RL103.
        self._shared_names: Set[str] = set()

    # -- helpers ---------------------------------------------------------------

    def _emit(self, rule: Rule, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule_id=rule.rule_id,
                message=message,
                file=self.path,
                line=getattr(node, "lineno", None),
                column=getattr(node, "col_offset", None),
            )
        )

    # -- RL101: global RNG -----------------------------------------------------

    def _check_global_rng(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if chain is None:
            return
        # np.random.<fn>(...) / numpy.random.<fn>(...)
        if (
            len(chain) >= 3
            and chain[0] in self.imports.numpy_aliases
            and chain[1] == "random"
            and chain[2] not in _ALLOWED_NP_RANDOM
        ):
            self._emit(
                RL101, node,
                f"call to global numpy RNG 'np.random.{chain[2]}'",
            )
            return
        # npr.<fn>(...) with `import numpy.random as npr` or
        # `from numpy import random as npr`
        if (
            len(chain) == 2
            and chain[0] in self.imports.np_random_aliases
            and chain[1] not in _ALLOWED_NP_RANDOM
        ):
            self._emit(
                RL101, node,
                f"call to global numpy RNG 'numpy.random.{chain[1]}'",
            )
            return
        # random.<fn>(...) from the stdlib module
        if (
            len(chain) == 2
            and chain[0] in self.imports.stdlib_random_aliases
            and chain[1] in _GLOBAL_RANDOM_FNS
        ):
            self._emit(
                RL101, node, f"call to global stdlib RNG 'random.{chain[1]}'"
            )
            return
        # directly imported global fn: shuffle(...) after
        # `from random import shuffle`
        if (
            len(chain) == 1
            and chain[0] in self.imports.direct_global_fns
        ):
            origin = self.imports.direct_global_fns[chain[0]]
            self._emit(RL101, node, f"call to global RNG '{origin}'")

    # -- RL103: shared-buffer mutation ------------------------------------------

    def _is_shared_accessor_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr in _SHARED_ACCESSORS:
            return True
        if func.attr == "get":
            chain = attr_chain(func.value)
            if chain is None:
                return False
            receiver = chain[-1].lower()
            return any(h in receiver for h in _SHARED_RECEIVER_HINTS)
        return False

    def _track_shared_assign(self, node: ast.Assign) -> None:
        if self._is_shared_accessor_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._shared_names.add(target.id)
        else:
            # Rebinding a tracked name to something else clears it.
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._shared_names.discard(target.id)

    def _root_shared_name(self, node: ast.AST) -> Optional[str]:
        """The tracked name at the root of a target like ``buf[i]`` or
        ``table.cells[i]``; None when the target is not tracked."""
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name) and node.id in self._shared_names:
            return node.id
        return None

    def _check_shared_mutation_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                name = self._root_shared_name(target)
                if name is not None:
                    self._emit(
                        RL103, node,
                        f"in-place store into '{name}', which aliases a "
                        "shared cache/workspace buffer",
                    )

    def _check_shared_mutation_augassign(self, node: ast.AugAssign) -> None:
        name = self._root_shared_name(node.target)
        if name is None and isinstance(node.target, ast.Name):
            if node.target.id in self._shared_names:
                name = node.target.id
        if name is not None:
            self._emit(
                RL103, node,
                f"augmented assignment mutates '{name}', which aliases a "
                "shared cache/workspace buffer",
            )

    def _check_shared_mutation_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in {"fill", "sort", "resize", "partition"}
            and isinstance(func.value, ast.Name)
            and func.value.id in self._shared_names
        ):
            self._emit(
                RL103, node,
                f"'{func.value.id}.{func.attr}()' mutates a shared "
                "cache/workspace buffer in place",
            )

    # -- RL107: direct WorkerPool construction ------------------------------------

    def _check_worker_pool(self, node: ast.Call) -> None:
        if _rl107_exempt(self.path):
            return
        chain = attr_chain(node.func)
        if chain is not None and chain[-1] == "WorkerPool":
            self._emit(
                RL107, node,
                "direct 'WorkerPool(...)' construction; build the "
                "multiprocess backend via repro.parallel.create_backend "
                "instead",
            )

    # -- RL108: direct socket/server construction ---------------------------------

    def _check_socket_server(self, node: ast.Call) -> None:
        if _path_exempt(self.path, _RL108_EXEMPT_PATH_PARTS):
            return
        chain = attr_chain(node.func)
        if chain is not None and chain[-1] in _SOCKET_CONSTRUCTORS:
            self._emit(
                RL108, node,
                f"direct '{chain[-1]}(...)' construction outside "
                "repro.serve; use repro.serve.server (daemon) or "
                "repro.serve.client (requests) instead",
            )

    # -- RL109: unbounded blocking waits ------------------------------------------

    def _check_unbounded_wait(self, node: ast.Call) -> None:
        if not _path_exempt(self.path, _RL109_SCOPE_PATH_PARTS):
            return
        has_timeout_kw = any(
            kw.arg == "timeout" for kw in node.keywords
        )
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "wait":
            # Event/Condition/Process .wait([timeout]) — a positional
            # argument is the timeout.
            if not node.args and not has_timeout_kw:
                self._emit(
                    RL109, node,
                    "unbounded '.wait()' blocks its thread forever on a "
                    "missed wake-up; pass timeout= and re-check the "
                    "condition in a loop",
                )
            return
        if isinstance(func, ast.Name) and func.id == "wait":
            # concurrent.futures.wait(fs[, timeout]) — timeout is the
            # second positional.
            if len(node.args) < 2 and not has_timeout_kw:
                self._emit(
                    RL109, node,
                    "unbounded 'wait(...)' blocks forever on a hung "
                    "worker; pass timeout= and handle the empty-done "
                    "case",
                )
            return
        if isinstance(func, ast.Attribute) and func.attr == "get":
            receiver = func.value
            name: Optional[str] = None
            if isinstance(receiver, ast.Attribute):
                name = receiver.attr
            elif isinstance(receiver, ast.Name):
                name = receiver.id
            if name is None:
                return
            lowered = name.lower().lstrip("_")
            if not any(part in lowered for part in _RL109_QUEUE_NAMES):
                return
            if not node.args and not has_timeout_kw:
                self._emit(
                    RL109, node,
                    f"unbounded '.get()' on '{name}' blocks forever; "
                    "pass timeout= (or use get_nowait) and handle Empty",
                )

    # -- RL106: raw JSON artifact writes -----------------------------------------

    def _is_json_dumps_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = attr_chain(node.func)
        if chain is None:
            return False
        if (
            len(chain) == 2
            and chain[0] in self.imports.json_aliases
            and chain[1] == "dumps"
        ):
            return True
        return (
            len(chain) == 1
            and self.imports.direct_json_fns.get(chain[0]) == "dumps"
        )

    def _contains_json_dumps(self, node: ast.AST) -> bool:
        return any(self._is_json_dumps_call(sub) for sub in ast.walk(node))

    def _check_raw_json_write(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        # json.dump(obj, handle): streams JSON straight into an open
        # handle — a crash mid-stream leaves a prefix on disk.
        if chain is not None and (
            (
                len(chain) == 2
                and chain[0] in self.imports.json_aliases
                and chain[1] == "dump"
            )
            or (
                len(chain) == 1
                and self.imports.direct_json_fns.get(chain[0]) == "dump"
            )
        ):
            self._emit(
                RL106, node,
                "json.dump streams JSON into an open handle; "
                "use atomic_write_json so a crash cannot tear the artifact",
            )
            return
        # path.write_text(json.dumps(...) [+ "\n"]) and
        # handle.write(json.dumps(...)): the serialized payload goes
        # straight to the destination path instead of through
        # write-then-rename.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("write_text", "write")
            and any(self._contains_json_dumps(arg) for arg in node.args)
        ):
            self._emit(
                RL106, node,
                f"'{func.attr}' of a json.dumps payload bypasses the "
                "atomic writer; use atomic_write_json/atomic_write_text "
                "from repro.runstate.atomic",
            )

    # -- visitor plumbing --------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_global_rng(node)
        self._check_shared_mutation_call(node)
        self._check_raw_json_write(node)
        self._check_worker_pool(node)
        self._check_socket_server(node)
        self._check_unbounded_wait(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_shared_assign(node)
        self._check_shared_mutation_assign(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_shared_mutation_augassign(node)
        self.generic_visit(node)


def _lint_file(entry: SourceFile) -> List[Finding]:
    """Run the RL rules over one already-parsed module."""
    if entry.tree is None:
        exc = entry.syntax_error
        return [
            Finding(
                rule_id="RL100",
                message=f"syntax error: {exc.msg if exc else 'unparseable'}",
                file=entry.path,
                line=exc.lineno if exc else None,
                column=exc.offset if exc else None,
            )
        ]
    imports = _ModuleImports()
    imports.visit(entry.tree)
    checker = _Checker(entry.path, imports)
    checker.visit(entry.tree)
    return filter_suppressed(checker.findings, entry.lines)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    return _lint_file(AstCache().load(path, source=source))


def lint_paths(
    paths: Sequence[str], cache: Optional[AstCache] = None
) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    ``cache`` shares parsed trees with other passes (the flow analyses
    reuse it), keeping the run at one parse per file.
    """
    if cache is None:
        cache = AstCache()
    findings: List[Finding] = []
    for file_path in collect_python_files(paths):
        findings.extend(_lint_file(cache.load(file_path)))
    return findings
