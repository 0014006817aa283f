"""RF301/RF302 — lock discipline for the threaded modules.

The serve daemon answers every connection on its own thread, so any
mutable state it touches is shared state. The contract this analysis
enforces is the classic monitor pattern the code already follows:

* **RF301 guarded-field discipline.** For every class in a threaded
  module, the *guarded set* is inferred: fields written at least once
  inside ``with self._lock`` (outside ``__init__``). Any other read or
  write of a guarded field without the lock held — in the class's own
  methods *or* through an attribute chain from another module whose
  receiver type is statically known — is a race: a torn read at best,
  lost updates at worst.
* **RF302 lock-order inversion.** Acquiring lock B while holding lock
  A creates the order A→B; if any other code path creates B→A, two
  threads can deadlock. Acquisition order is collected per function,
  extended through the call graph (a call made while holding A inherits
  every lock the callee may acquire), and cycles in the resulting
  order graph are reported at the acquisition sites. Re-acquiring a
  plain (non-reentrant) ``Lock`` you already hold is self-deadlock and
  reported on the same rule.

Scope: modules under ``repro/serve/`` and ``repro/parallel/``, any
module that imports ``threading``, and every function the call graph
shows reachable from a thread entry point (``threading.Thread``
targets and ``do_GET``-style handler methods).

``__init__`` (and anything it calls before the object escapes) runs
before the object is shared, so bare writes there are construction,
not races.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.astcache import attr_chain
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, _LocalTypes
from repro.lint.flow.project import ClassInfo, FunctionInfo, Project
from repro.lint.rules import CODE_RULES, Rule

RF301 = CODE_RULES.register(
    Rule(
        "RF301",
        "unlocked-guarded-field",
        "field guarded by a lock elsewhere is accessed without holding "
        "it; take the lock (or expose a locked accessor) so concurrent "
        "threads cannot race the access",
    )
)
RF302 = CODE_RULES.register(
    Rule(
        "RF302",
        "lock-order-inversion",
        "two locks are acquired in opposite orders on different code "
        "paths (or a non-reentrant lock is re-acquired); pick one "
        "global order to make deadlock impossible",
    )
)

# Methods that mutate their receiver in place — a call through a
# guarded field counts as a write to it.
MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
    "move_to_end",
    "get_or_eval",
    "get_or_eval_many",
    "restore",
}

LOCK_CONSTRUCTORS = {"Lock", "RLock", "Condition", "Semaphore"}
REENTRANT = {"RLock"}

# Thread entry points by method name (stdlib server callbacks).
HANDLER_METHODS = {"do_GET", "do_POST", "do_PUT", "do_DELETE", "handle"}

# Methods whose bodies run before the object is shared with any other
# thread: construction, not concurrency.
CONSTRUCTION_METHODS = {"__init__", "__new__", "__post_init__"}


@dataclass(frozen=True)
class LockId:
    """One lock, identified by owning class and attribute name."""

    owner: str  # class qualname (or module path for module-level)
    attr: str
    reentrant: bool = False

    def label(self) -> str:
        return f"{self.owner.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass
class ClassLockInfo:
    cls: ClassInfo
    locks: Dict[str, LockId] = field(default_factory=dict)  # attr -> id
    guarded: Set[str] = field(default_factory=set)
    # field -> one "file:line" witness of a guarded write, for messages
    guard_witness: Dict[str, str] = field(default_factory=dict)


class LockAnalysis:
    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.findings: List[Finding] = []
        self.class_info: Dict[str, ClassLockInfo] = {}
        # fn qualname -> locks it may acquire (transitively)
        self.may_acquire: Dict[str, Set[LockId]] = {}
        # order edges: (A, B) -> witness "file:line"
        self.order_edges: Dict[Tuple[LockId, LockId], str] = {}
        self.scope: Set[str] = set()  # fn qualnames in threaded scope

    # -- driver ------------------------------------------------------------------

    def run(self) -> List[Finding]:
        self._compute_scope()
        self._find_locks()
        self._infer_guarded_fields()
        self._check_accesses()
        self._check_lock_order()
        return self.findings

    # -- scope -------------------------------------------------------------------

    def _module_threaded(self, module) -> bool:
        dotted = module.dotted
        if ".serve" in dotted or ".parallel" in dotted:
            return True
        return any(
            target == "threading" or target.startswith("threading.")
            for target in module.imports.values()
        )

    def _compute_scope(self) -> None:
        roots: List[FunctionInfo] = []
        for fn in self.project.functions.values():
            if self._module_threaded(fn.module):
                self.scope.add(fn.qualname)
            if fn.name in HANDLER_METHODS:
                roots.append(fn)
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    chain = attr_chain(node.func)
                    if chain is not None and chain[-1] == "Thread":
                        for kw in node.keywords:
                            if kw.arg == "target":
                                target = self.project.resolve_name(
                                    kw.value, fn.module
                                )
                                if isinstance(target, FunctionInfo):
                                    roots.append(target)
        self.scope |= self.graph.reachable_from(roots)

    # -- lock discovery ----------------------------------------------------------

    def _find_locks(self) -> None:
        for cls in self.project.classes.values():
            if cls.qualname.split(".")[0:1] and not self._module_threaded(
                cls.module
            ):
                continue
            info = ClassLockInfo(cls)
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not isinstance(node.value, ast.Call):
                        continue
                    chain = attr_chain(node.value.func)
                    if chain is None or chain[-1] not in LOCK_CONSTRUCTORS:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.locks[target.attr] = LockId(
                                owner=cls.qualname,
                                attr=target.attr,
                                reentrant=chain[-1] in REENTRANT,
                            )
            if info.locks:
                self.class_info[cls.qualname] = info

    # -- guarded-field inference ---------------------------------------------------

    def _walk_method(
        self,
        info: ClassLockInfo,
        method: FunctionInfo,
        on_access,
    ) -> None:
        """Visit a method body tracking which of the class's own locks
        are held; call ``on_access(node, kind, field, held)`` for every
        ``self.<field>`` access (kind in {"read", "write"})."""

        def locks_in_with(stmt) -> Set[str]:
            held: Set[str] = set()
            for item in stmt.items:
                expr = item.context_expr
                # ``with self._lock:`` — possibly via Call (Condition)
                if isinstance(expr, ast.Call):
                    expr = expr.func
                chain = attr_chain(expr)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] == "self"
                    and chain[1] in info.locks
                ):
                    held.add(chain[1])
            return held

        def visit(node: ast.AST, held: Set[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                newly = locks_in_with(node)
                for item in node.items:
                    visit(item.context_expr, held)
                for sub in node.body:
                    visit(sub, held | newly)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not method.node:
                    return  # nested defs: separate execution context
                for sub in ast.iter_child_nodes(node):
                    visit(sub, held)
                return
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._classify_target(target, held, on_access)
                visit(node.value, held)
                return
            if isinstance(node, ast.AugAssign):
                self._classify_target(
                    node.target, held, on_access, augmented=True
                )
                visit(node.value, held)
                return
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    self._classify_target(target, held, on_access)
                return
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                ):
                    root = self._self_field_of(func.value)
                    if root is not None:
                        on_access(node, "write", root, held)
                        for arg in node.args:
                            visit(arg, held)
                        for kw in node.keywords:
                            visit(kw.value, held)
                        return
                for sub in ast.iter_child_nodes(node):
                    visit(sub, held)
                return
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                root = self._self_field_of(node)
                if root is not None and root not in info.locks:
                    on_access(node, "read", root, held)
                visit(node.value, held)
                return
            for sub in ast.iter_child_nodes(node):
                visit(sub, held)

        visit(method.node, set())

    def _self_field_of(self, node: ast.AST) -> Optional[str]:
        """``self.f`` / ``self.f[i]`` / ``self.f.x`` -> ``f``."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _classify_target(
        self, target: ast.AST, held: Set[str], on_access, augmented=False
    ) -> None:
        # self.f = v / self.f[i] = v / self.f += v are writes to f.
        root_node = target
        while isinstance(root_node, ast.Subscript):
            root_node = root_node.value
        if (
            isinstance(root_node, ast.Attribute)
            and isinstance(root_node.value, ast.Name)
            and root_node.value.id == "self"
        ):
            on_access(target, "write", root_node.attr, held)

    def _infer_guarded_fields(self) -> None:
        for info in self.class_info.values():
            for name, method in info.cls.methods.items():
                if name in CONSTRUCTION_METHODS:
                    continue

                def note(node, kind, fld, held, _info=info, _m=method):
                    if kind == "write" and held and fld not in _info.locks:
                        _info.guarded.add(fld)
                        _info.guard_witness.setdefault(
                            fld,
                            f"{_m.module.path}:"
                            f"{getattr(node, 'lineno', 0)}",
                        )

                self._walk_method(info, method, note)

    # -- RF301 -------------------------------------------------------------------

    def _check_accesses(self) -> None:
        # Own-method accesses.
        for info in self.class_info.values():
            for name, method in info.cls.methods.items():
                if name in CONSTRUCTION_METHODS:
                    continue
                if self._only_called_from_init(info, method):
                    continue

                def note(node, kind, fld, held, _info=info, _m=method):
                    if fld not in _info.guarded or held:
                        return
                    witness = _info.guard_witness.get(fld, "?")
                    lock = next(iter(_info.locks.values())).label()
                    self.findings.append(
                        Finding(
                            rule_id="RF301",
                            message=(
                                f"{kind} of '{_info.cls.name}.{fld}' "
                                f"without holding '{lock}' (field is "
                                f"written under the lock at {witness})"
                            ),
                            file=_m.module.path,
                            line=getattr(node, "lineno", None),
                            column=getattr(node, "col_offset", None),
                        )
                    )

                self._walk_method(info, method, note)
        # Cross-object accesses: <expr>.field where the receiver's
        # class is statically known and field is guarded there.
        for fn in self.project.functions.values():
            if fn.qualname not in self.scope:
                continue
            self._check_cross_object(fn)

    def _only_called_from_init(
        self, info: ClassLockInfo, method: FunctionInfo
    ) -> bool:
        """Private helpers invoked only by ``__init__`` run before the
        object escapes to other threads — construction, not racing."""
        if not method.name.startswith("_") or method.name.startswith("__"):
            return False
        callers = self.graph.callers_of(method)
        if not callers:
            return False
        return all(
            site.caller.class_name == info.cls.name
            and site.caller.name in CONSTRUCTION_METHODS
            for site in callers
        )

    def _check_cross_object(self, fn: FunctionInfo) -> None:
        local_types = _LocalTypes(self.project, fn)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                local_types.note_assign(node)
        own_class = fn.module.classes.get(fn.class_name or "")
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            receiver = local_types.type_of(node.value)
            if receiver is None or receiver is own_class:
                continue  # own-class accesses handled with lock context
            info = self.class_info.get(receiver.qualname)
            if info is None or node.attr not in info.guarded:
                continue
            # A method *call* on the object is fine — the method takes
            # its own lock; only bare field access races.
            if self._is_method_call_receiver(fn, node):
                continue
            witness = info.guard_witness.get(node.attr, "?")
            lock = next(iter(info.locks.values())).label()
            self.findings.append(
                Finding(
                    rule_id="RF301",
                    message=(
                        f"read of '{receiver.name}.{node.attr}' from "
                        f"outside the class without holding '{lock}' "
                        f"(field is written under the lock at {witness});"
                        " use a locked accessor method"
                    ),
                    file=fn.module.path,
                    line=node.lineno,
                    column=node.col_offset,
                )
            )

    def _is_method_call_receiver(
        self, fn: FunctionInfo, attr: ast.Attribute
    ) -> bool:
        """True when ``attr`` is the ``obj.method`` of a call node."""
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and node.func is attr:
                return True
        return False

    # -- RF302 -------------------------------------------------------------------

    def _function_lock_context(self, fn: FunctionInfo):
        """Yield (lock, node, inner_locks, calls) acquisition facts."""
        acquired: List[Tuple[LockId, ast.AST, Set[LockId], List]] = []
        own_info: Optional[ClassLockInfo] = None
        if fn.class_name is not None:
            cls = fn.module.classes.get(fn.class_name)
            if cls is not None:
                own_info = self.class_info.get(cls.qualname)
        local_types = _LocalTypes(self.project, fn)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                local_types.note_assign(node)

        def lock_of(expr: ast.AST) -> Optional[LockId]:
            if isinstance(expr, ast.Call):
                expr = expr.func
            if not isinstance(expr, ast.Attribute):
                return None
            receiver = local_types.type_of(expr.value)
            if receiver is not None:
                info = self.class_info.get(receiver.qualname)
                if info is not None and expr.attr in info.locks:
                    return info.locks[expr.attr]
            if (
                own_info is not None
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in own_info.locks
            ):
                return own_info.locks[expr.attr]
            return None

        def visit(node: ast.AST, held: List[LockId]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                newly: List[LockId] = []
                for item in node.items:
                    lock = lock_of(item.context_expr)
                    if lock is not None:
                        site = (
                            f"{fn.module.path}:"
                            f"{item.context_expr.lineno}"
                        )
                        for outer in held:
                            self._note_order(
                                outer, lock, site, item.context_expr, fn
                            )
                        newly.append(lock)
                for sub in node.body:
                    visit(sub, held + newly)
                return
            if isinstance(node, ast.Call) and held:
                from repro.lint.flow.callgraph import resolve_call

                callee, _ = resolve_call(
                    self.project, node, fn, local_types
                )
                if callee is not None:
                    inner = self.may_acquire.get(callee.qualname, set())
                    site = f"{fn.module.path}:{node.lineno}"
                    for outer in held:
                        for lock in inner:
                            self._note_order(outer, lock, site, node, fn)
                for sub in ast.iter_child_nodes(node):
                    visit(sub, held)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn.node:
                    return
            for sub in ast.iter_child_nodes(node):
                visit(sub, held)

        visit(fn.node, [])
        return acquired

    def _note_order(
        self,
        outer: LockId,
        inner: LockId,
        site: str,
        node: ast.AST,
        fn: FunctionInfo,
    ) -> None:
        if outer == inner:
            if not outer.reentrant:
                self.findings.append(
                    Finding(
                        rule_id="RF302",
                        message=(
                            f"non-reentrant lock '{outer.label()}' "
                            "acquired while already held — guaranteed "
                            "self-deadlock"
                        ),
                        file=fn.module.path,
                        line=getattr(node, "lineno", None),
                        column=getattr(node, "col_offset", None),
                    )
                )
            return
        self.order_edges.setdefault((outer, inner), site)

    def _check_lock_order(self) -> None:
        # Fixpoint: locks each function may acquire, transitively.
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for fn in self.project.functions.values():
                acquired: Set[LockId] = set()
                local_types = _LocalTypes(self.project, fn)
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Assign):
                        local_types.note_assign(node)
                own_info = None
                if fn.class_name is not None:
                    cls = fn.module.classes.get(fn.class_name)
                    if cls is not None:
                        own_info = self.class_info.get(cls.qualname)
                for node in ast.walk(fn.node):
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            expr = item.context_expr
                            if isinstance(expr, ast.Call):
                                expr = expr.func
                            if not isinstance(expr, ast.Attribute):
                                continue
                            receiver = local_types.type_of(expr.value)
                            info = None
                            if receiver is not None:
                                info = self.class_info.get(
                                    receiver.qualname
                                )
                            elif (
                                own_info is not None
                                and isinstance(expr.value, ast.Name)
                                and expr.value.id == "self"
                            ):
                                info = own_info
                            if info is not None and expr.attr in info.locks:
                                acquired.add(info.locks[expr.attr])
                for site in self.graph.callees_of(fn):
                    acquired |= self.may_acquire.get(
                        site.callee.qualname, set()
                    )
                if acquired != self.may_acquire.get(fn.qualname, set()):
                    self.may_acquire[fn.qualname] = acquired
                    changed = True
        # Collect order edges with the converged summaries.
        for fn in self.project.functions.values():
            if fn.qualname in self.scope:
                self._function_lock_context(fn)
        # Any A->B with B->A is an inversion.
        for (a, b), site in sorted(
            self.order_edges.items(), key=lambda kv: kv[1]
        ):
            if (b, a) in self.order_edges and (a.label(), b.label()) < (
                b.label(),
                a.label(),
            ):
                other = self.order_edges[(b, a)]
                path, _, line = site.rpartition(":")
                self.findings.append(
                    Finding(
                        rule_id="RF302",
                        message=(
                            f"lock-order inversion: '{a.label()}' -> "
                            f"'{b.label()}' here but '{b.label()}' -> "
                            f"'{a.label()}' at {other}; two threads "
                            "taking opposite orders deadlock"
                        ),
                        file=path,
                        line=int(line) if line.isdigit() else None,
                    )
                )


def analyze_locks(project: Project, graph: CallGraph) -> List[Finding]:
    return LockAnalysis(project, graph).run()
