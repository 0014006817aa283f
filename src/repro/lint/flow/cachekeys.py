"""RF303 — cache-key soundness: floats reach keys only quantized.

A float-valued expression — a float literal, a ``float`` annotated
parameter, a division result, a ``float(...)`` cast, or a variable
bound to one — that reaches a cache-key position without passing
through a quantizer is the ``_cell_key`` bug class: ``0.1 * 3 != 0.3``
means the key computed at insert time can miss the key computed at
lookup time.

Key positions:

* subscript keys of cache-shaped containers (name contains ``cache``,
  ``entries``, ``memo``, ``store``, ``lut``, ``table``) and tuple
  elements used in such keys;
* elements of tuples returned by ``key``/``*_key`` functions (the
  identity contract :class:`~repro.core.EvaluationCache` indexes by);
* arguments passed into a parameter some callee (transitively) places
  in a key position — the interprocedural hop.

Quantizers: ``round``, ``int``, ``math.floor``/``ceil``, ``//``, and
any function whose name contains ``quantize`` (``_quantize_factor``).
A value that went through one is clean. Values of *unknown* type are
never flagged — the analysis proves the positive bug class, it does
not demand annotations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.astcache import attr_chain
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, _LocalTypes, resolve_call
from repro.lint.flow.project import FunctionInfo, Project
from repro.lint.rules import CODE_RULES, Rule

RF303 = CODE_RULES.register(
    Rule(
        "RF303",
        "unquantized-cache-key",
        "float value flows into a cache-key position without passing "
        "through a quantizer (round/int/_quantize_factor); float drift "
        "silently misses cells",
    )
)

CACHE_NAME_HINTS = ("cache", "entries", "memo", "store", "lut", "table")
KEY_FUNCTION_NAMES = {"key", "cache_key"}
QUANTIZER_NAMES = {"round", "int", "floor", "ceil"}


def _is_key_function(name: str) -> bool:
    return name in KEY_FUNCTION_NAMES or name.endswith("_key")


def _is_cache_container(node: ast.AST) -> bool:
    chain = attr_chain(node)
    if chain is None:
        return False
    tail = chain[-1].lower()
    return any(hint in tail for hint in CACHE_NAME_HINTS)


@dataclass
class KeySummary:
    """Params that reach a key position unquantized in this function."""

    params_to_key: Set[int] = field(default_factory=set)

    def key(self) -> Tuple:
        return tuple(sorted(self.params_to_key))


# Float provenance values: a set of "reasons" — strings for concrete
# origins, ints for symbolic param pass-through.
_EMPTY: frozenset = frozenset()


class CacheKeyAnalysis:
    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.summaries: Dict[str, KeySummary] = {}
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        functions = list(self.project.functions.values())
        for _round in range(8):
            changed = False
            for fn in functions:
                summary = _KeyPass(self, fn, emit=False).compute()
                old = self.summaries.get(fn.qualname)
                if old is None or old.key() != summary.key():
                    self.summaries[fn.qualname] = summary
                    changed = True
            if not changed:
                break
        for fn in functions:
            _KeyPass(self, fn, emit=True).compute()
        return self.findings


class _KeyPass:
    def __init__(
        self, analysis: CacheKeyAnalysis, fn: FunctionInfo, emit: bool
    ) -> None:
        self.analysis = analysis
        self.project = analysis.project
        self.fn = fn
        self.emit = emit
        self.summary = KeySummary()
        self.local_types = _LocalTypes(self.project, fn)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                self.local_types.note_assign(node)
        self.arg_names = fn.arg_names()
        # var -> float provenance (reason strings / param indices)
        self.env: Dict[str, frozenset] = {}
        args = fn.node.args
        all_args = args.posonlyargs + args.args + args.kwonlyargs
        for index, arg in enumerate(all_args):
            if arg.annotation is not None and _annotation_is_float(
                arg.annotation
            ):
                self.env[arg.arg] = frozenset({index})

    # -- driver ------------------------------------------------------------------

    def compute(self) -> KeySummary:
        in_key_fn = _is_key_function(self.fn.name)
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                value = self._float_prov(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if value:
                            self.env[target.id] = value
                        else:
                            self.env.pop(target.id, None)
                # Subscript store into a cache container: the key slice
                # is a key position.
                for target in node.targets:
                    if isinstance(
                        target, ast.Subscript
                    ) and _is_cache_container(target.value):
                        self._check_key_expr(target.slice, "subscript key")
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                if _is_cache_container(node.value):
                    self._check_key_expr(node.slice, "subscript key")
            elif isinstance(node, ast.Return) and in_key_fn:
                if node.value is not None:
                    self._check_key_expr(
                        node.value, f"return of key function "
                        f"'{self.fn.name}'"
                    )
            elif isinstance(node, ast.Call):
                self._check_call(node)
        return self.summary

    # -- float provenance ----------------------------------------------------------

    def _float_prov(self, node: ast.AST) -> frozenset:
        """Why ``node`` is float-valued; empty set = unknown/clean."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float):
                return frozenset({f"float literal {node.value!r}"})
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return frozenset({"division result"})
            if isinstance(node.op, ast.FloorDiv):
                return _EMPTY  # floor-divide quantizes
            return self._float_prov(node.left) | self._float_prov(
                node.right
            )
        if isinstance(node, ast.UnaryOp):
            return self._float_prov(node.operand)
        if isinstance(node, ast.IfExp):
            return self._float_prov(node.body) | self._float_prov(
                node.orelse
            )
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain is not None:
                tail = chain[-1]
                if tail in QUANTIZER_NAMES or "quantize" in tail.lower():
                    return _EMPTY  # quantizer output is clean
                if tail == "float":
                    return frozenset({"float() cast"})
            callee, is_method = resolve_call(
                self.project, node, self.fn, self.local_types
            )
            if callee is not None and "quantize" in callee.name.lower():
                return _EMPTY
            return _EMPTY
        return _EMPTY

    # -- key positions -------------------------------------------------------------

    def _check_key_expr(self, node: ast.AST, where: str) -> None:
        elements = (
            list(node.elts) if isinstance(node, ast.Tuple) else [node]
        )
        for element in elements:
            prov = self._float_prov(element)
            for reason in prov:
                if isinstance(reason, int):
                    # One of our params reaches a key position raw.
                    self.summary.params_to_key.add(reason)
                elif self.emit:
                    self.analysis.findings.append(
                        Finding(
                            rule_id="RF303",
                            message=(
                                f"{reason} used in {where} without "
                                "quantization; round/int/"
                                "_quantize_factor it first"
                            ),
                            file=self.fn.module.path,
                            line=getattr(element, "lineno", None),
                            column=getattr(element, "col_offset", None),
                        )
                    )
        # Params reaching a key position also need reporting at call
        # sites; handled via summaries in _check_call.

    def _check_call(self, node: ast.Call) -> None:
        callee, is_method = resolve_call(
            self.project, node, self.fn, self.local_types
        )
        if callee is None:
            return
        summary = self.analysis.summaries.get(callee.qualname)
        if summary is None or not summary.params_to_key:
            return
        callee_args = callee.arg_names()
        offset = 1 if (is_method and callee_args[:1] == ["self"]) else 0
        kw_map = {
            kw.arg: kw.value for kw in node.keywords if kw.arg is not None
        }
        for param_index in sorted(summary.params_to_key):
            arg_node: Optional[ast.AST] = None
            position = param_index - offset
            if 0 <= position < len(node.args):
                arg_node = node.args[position]
            elif param_index < len(callee_args):
                arg_node = kw_map.get(callee_args[param_index])
            if arg_node is None:
                continue
            prov = self._float_prov(arg_node)
            param = (
                callee_args[param_index]
                if param_index < len(callee_args)
                else f"#{param_index}"
            )
            for reason in prov:
                if isinstance(reason, int):
                    # Our own param flows, through this call, into a
                    # key position — propagate to our summary.
                    self.summary.params_to_key.add(reason)
                elif self.emit:
                    self.analysis.findings.append(
                        Finding(
                            rule_id="RF303",
                            message=(
                                f"{reason} flows into parameter "
                                f"'{param}' of {callee.qualname}, which "
                                "places it in a cache key without "
                                "quantization"
                            ),
                            file=self.fn.module.path,
                            line=node.lineno,
                            column=node.col_offset,
                        )
                    )


def _annotation_is_float(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id == "float"
    if isinstance(annotation, ast.Constant):
        return annotation.value == "float"
    if isinstance(annotation, ast.Subscript):
        # Optional[float] / Union[float, ...]
        return any(
            _annotation_is_float(sub)
            for sub in ast.walk(annotation.slice)
            if isinstance(sub, (ast.Name, ast.Constant))
        )
    return False


def analyze_cache_keys(
    project: Project, graph: CallGraph
) -> List[Finding]:
    return CacheKeyAnalysis(project, graph).run()
