"""Whole-program model: every module, class, and function, indexed.

The per-file rules (``RL1xx``) see one tree at a time; the flow
analyses (``RF3xx``) need the *project* — which module a call lands
in, what class an attribute holds, which functions exist at all. A
:class:`Project` is that index, built from the shared
:class:`~repro.lint.astcache.AstCache` so the whole run still parses
each file exactly once.

Scope and soundness: resolution is static and name-based. Dynamic
dispatch (``getattr``, monkeypatching, callables stored in containers)
and star-imports are invisible; the analyses treat unresolved values
as *unknown* and stay silent about them rather than guessing (see
``docs/static_analysis.md`` for the full soundness statement).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lint.astcache import (
    AstCache,
    attr_chain,
    collect_python_files,
    module_name_for,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method, addressable by dotted qualname."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: FunctionNode
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def arg_names(self) -> List[str]:
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


@dataclass
class ClassInfo:
    """One class: methods, plus inferred attribute types for the
    light receiver-type inference the lock analysis needs."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    # Attribute name -> qualname of the project class it holds, from
    # ``self.x = SomeClass(...)`` assignments and annotations.
    field_types: Dict[str, str] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.qualname})"


@dataclass
class ModuleInfo:
    """One parsed module plus its import environment."""

    path: str
    name: Tuple[str, ...]
    tree: ast.Module
    lines: List[str]
    # Local alias -> fully dotted target: ``np`` -> ``numpy``,
    # ``front_search`` -> ``repro.serve.pipeline.front_search``.
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def dotted(self) -> str:
        return ".".join(self.name)


class Project:
    """Index of every module under the analyzed paths."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # dotted -> module
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}  # qualname -> fn
        self.classes: Dict[str, ClassInfo] = {}  # qualname -> class

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_paths(
        cls, paths: Sequence[str], cache: Optional[AstCache] = None
    ) -> "Project":
        if cache is None:
            cache = AstCache()
        project = cls()
        for file_path in collect_python_files(paths):
            entry = cache.load(file_path)
            if entry.tree is None:
                continue  # RL100 reports the syntax error
            project._add_module(file_path, entry.tree, entry.lines)
        project._infer_field_types()
        return project

    def _add_module(
        self, path: str, tree: ast.Module, lines: List[str]
    ) -> None:
        name = module_name_for(path)
        module = ModuleInfo(path=path, name=name, tree=tree, lines=lines)
        _collect_imports(tree, module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module.dotted}.{node.name}"
                info = FunctionInfo(qual, node.name, module, node)
                module.functions[node.name] = info
                self.functions[qual] = info
            elif isinstance(node, ast.ClassDef):
                cqual = f"{module.dotted}.{node.name}"
                cinfo = ClassInfo(cqual, node.name, module, node)
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        fqual = f"{cqual}.{sub.name}"
                        finfo = FunctionInfo(
                            fqual, sub.name, module, sub, class_name=node.name
                        )
                        cinfo.methods[sub.name] = finfo
                        self.functions[fqual] = finfo
                self.classes[cqual] = cinfo
                module.classes[node.name] = cinfo
        self.modules[module.dotted] = module
        self.modules_by_path[path] = module

    # -- light type inference ------------------------------------------------------

    def _infer_field_types(self) -> None:
        """``self.x = SomeClass(...)`` -> field_types[x] = class qualname.

        One pass after every module is indexed, so forward references
        across modules resolve.
        """
        for cinfo in self.classes.values():
            for method in cinfo.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    target_class = self._constructed_class(
                        node.value, cinfo.module
                    )
                    if target_class is None:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            cinfo.field_types[target.attr] = (
                                target_class.qualname
                            )

    def _constructed_class(
        self, value: ast.AST, module: ModuleInfo
    ) -> Optional[ClassInfo]:
        if not isinstance(value, ast.Call):
            return None
        resolved = self.resolve_name(value.func, module)
        if isinstance(resolved, ClassInfo):
            return resolved
        return None

    # -- name resolution -----------------------------------------------------------

    def resolve_dotted(
        self, dotted: str
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        """A fully dotted name -> the project object it names, if any."""
        if dotted in self.modules:
            return self.modules[dotted]
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        return None

    def resolve_name(
        self, node: ast.AST, module: ModuleInfo
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        """Resolve ``Name``/``Attribute`` chains through the module's
        imports to a project function, class, or module."""
        chain = attr_chain(node)
        if chain is None:
            return None
        head, rest = chain[0], chain[1:]
        # Locally defined first; imports shadow-resolve otherwise.
        candidates: List[str] = []
        if head in module.functions and not rest:
            return module.functions[head]
        if head in module.classes:
            target: Union[ClassInfo, None] = module.classes[head]
            if not rest:
                return target
            if len(rest) == 1 and rest[0] in target.methods:
                return target.methods[rest[0]]
            return None
        if head in module.imports:
            candidates.append(".".join([module.imports[head]] + rest))
        # Same-package sibling reference (``from . import x`` rewrites
        # into absolute form during import collection, so this is only
        # the fallback for unimported names).
        resolved = None
        for dotted in candidates:
            resolved = self.resolve_dotted(dotted)
            if resolved is not None:
                break
            # ``module.Class.method`` — peel the method name.
            if "." in dotted:
                prefix, attr = dotted.rsplit(".", 1)
                owner = self.resolve_dotted(prefix)
                if isinstance(owner, ClassInfo) and attr in owner.methods:
                    return owner.methods[attr]
                if isinstance(owner, ModuleInfo):
                    if attr in owner.functions:
                        return owner.functions[attr]
                    if attr in owner.classes:
                        return owner.classes[attr]
        return resolved

    def class_of(self, qualname: Optional[str]) -> Optional[ClassInfo]:
        if qualname is None:
            return None
        return self.classes.get(qualname)


def _collect_imports(tree: ast.Module, module: ModuleInfo) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.asname is not None:
                    module.imports[local] = alias.name
                else:
                    module.imports[local] = alias.name.split(".")[0]
                    # ``import a.b`` also makes ``a.b`` addressable.
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: anchor at this module's package.
                package = list(module.name[: -node.level])
                if base:
                    package.append(base)
                base = ".".join(package)
            for alias in node.names:
                if alias.name == "*":
                    continue  # invisible to static resolution
                local = alias.asname or alias.name
                module.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
