"""Project-wide call graph with static, name-based edge resolution.

Each edge links a call expression in one function to the
:class:`~repro.lint.flow.project.FunctionInfo` it statically resolves
to. Resolution covers the forms this codebase actually uses:

* plain calls to module-level functions (local or imported),
* ``module.function(...)`` through import aliases,
* ``self.method(...)`` within a class,
* ``self.field.method(...)`` and ``local_var.method(...)`` where the
  receiver's class is known from constructor assignments or parameter
  annotations (the light type inference in :class:`Project`),
* constructor calls ``SomeClass(...)`` (edge to ``__init__``).

Anything else — ``getattr``, callables in containers, duck-typed
receivers — yields no edge. The analyses built on top treat missing
edges as *unknown*, never as proof of absence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.astcache import attr_chain
from repro.lint.flow.project import ClassInfo, FunctionInfo, Project


@dataclass
class CallSite:
    """One resolved call: the AST node and the callee."""

    node: ast.Call
    caller: FunctionInfo
    callee: FunctionInfo
    # True when the call is ``obj.method()`` on an instance (so the
    # callee's ``self`` binds to the receiver, not to an argument).
    is_method_call: bool = False


@dataclass
class CallGraph:
    project: Project
    # caller qualname -> outgoing call sites
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    # callee qualname -> incoming call sites
    callers: Dict[str, List[CallSite]] = field(default_factory=dict)
    resolved = 0
    unresolved = 0

    def callees_of(self, fn: FunctionInfo) -> List[CallSite]:
        return self.calls.get(fn.qualname, [])

    def callers_of(self, fn: FunctionInfo) -> List[CallSite]:
        return self.callers.get(fn.qualname, [])

    def reachable_from(self, roots: List[FunctionInfo]) -> Set[str]:
        """Qualnames reachable (transitively) from the given roots."""
        seen: Set[str] = set()
        stack = [r.qualname for r in roots]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for site in self.calls.get(qual, []):
                stack.append(site.callee.qualname)
        return seen


class _LocalTypes:
    """Receiver types inside one function: param annotations plus
    ``x = SomeClass(...)`` constructor assignments."""

    def __init__(
        self, project: Project, fn: FunctionInfo
    ) -> None:
        self.project = project
        self.module = fn.module
        self.vars: Dict[str, str] = {}  # name -> class qualname
        self.self_class: Optional[ClassInfo] = None
        if fn.class_name is not None:
            self.self_class = fn.module.classes.get(fn.class_name)
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None:
                continue
            annotation = arg.annotation
            # Unwrap Optional["X"] / string annotations minimally.
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                try:
                    annotation = ast.parse(
                        annotation.value, mode="eval"
                    ).body
                except SyntaxError:
                    continue
            resolved = project.resolve_name(annotation, fn.module)
            if isinstance(resolved, ClassInfo):
                self.vars[arg.arg] = resolved.qualname

    def note_assign(self, node: ast.Assign) -> None:
        if not isinstance(node.value, ast.Call):
            return
        resolved = self.project.resolve_name(node.value.func, self.module)
        if not isinstance(resolved, ClassInfo):
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.vars[target.id] = resolved.qualname

    def type_of(self, expr: ast.AST) -> Optional[ClassInfo]:
        """Class of ``expr`` when statically known, else None."""
        chain = attr_chain(expr)
        if chain is None:
            return None
        head, rest = chain[0], chain[1:]
        current: Optional[ClassInfo]
        if head == "self" and self.self_class is not None:
            current = self.self_class
        elif head in self.vars:
            current = self.project.class_of(self.vars[head])
        else:
            return None
        for part in rest:
            if current is None:
                return None
            next_qual = current.field_types.get(part)
            current = self.project.class_of(next_qual)
        return current


def resolve_call(
    project: Project,
    call: ast.Call,
    fn: FunctionInfo,
    local_types: _LocalTypes,
) -> Tuple[Optional[FunctionInfo], bool]:
    """(callee, is_method_call) for one call node, if resolvable."""
    func = call.func
    # obj.method(...) with a known receiver class.
    if isinstance(func, ast.Attribute):
        receiver_class = local_types.type_of(func.value)
        if receiver_class is not None:
            method = receiver_class.methods.get(func.attr)
            if method is not None:
                return method, True
            return None, False
    resolved = project.resolve_name(func, fn.module)
    if isinstance(resolved, FunctionInfo):
        is_method = (
            resolved.is_method
            and isinstance(func, ast.Attribute)
        )
        return resolved, is_method
    if isinstance(resolved, ClassInfo):
        init = resolved.methods.get("__init__")
        if init is not None:
            return init, True
        return None, False
    return None, False


def build_call_graph(project: Project) -> CallGraph:
    graph = CallGraph(project)
    for fn in project.functions.values():
        local_types = _LocalTypes(project, fn)
        # Constructor assignments first (flow-insensitive): a call may
        # lexically precede the assignment that types its receiver.
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                local_types.note_assign(node)
        sites: List[CallSite] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callee, is_method = resolve_call(
                    project, node, fn, local_types
                )
                if callee is None:
                    graph.unresolved += 1
                    continue
                graph.resolved += 1
                site = CallSite(node, fn, callee, is_method)
                sites.append(site)
                graph.callers.setdefault(
                    callee.qualname, []
                ).append(site)
        if sites:
            graph.calls[fn.qualname] = sites
    return graph
