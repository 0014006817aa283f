"""RF300 — RNG provenance: every draw flows from an explicit seed.

The reproduction's central promise — serial, parallel, and served runs
are bit-identical under one seed — dies the moment any random draw
comes from a stream that was not derived from an explicitly seeded
``SeedSequence``/``default_rng``. This analysis tracks generator
values *through* calls, returns, attributes, and containers and flags:

* ``default_rng()`` / ``SeedSequence()`` / ``PCG64()`` constructed
  with no seed (OS entropy: a different run every time), wherever the
  resulting stream is later drawn from — including two or more call
  hops away;
* a call that feeds a provably unseeded generator into a parameter
  some callee (transitively) draws from;
* one generator drawn from inside a worker-index loop when it was
  created outside the loop — worker streams must come from
  ``SeedSequence(seed, spawn_key=(index,))``, never be shared across
  index boundaries;
* two ``SeedSequence`` constructions in one module with the same
  entropy expression and the same constant ``spawn_key`` — duplicate
  spawn keys silently collapse two "independent" streams into one.

Provenance is a three-point lattice (seeded / unseeded / unknown);
only *provably unseeded* flows are reported, so dynamic dispatch and
external callers degrade to silence, not noise.
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

RF300 = CODE_RULES.register(
    Rule(
        "RF300",
        "rng-provenance",
        "random draw whose generator is not derived from an explicit "
        "seed (or is shared across worker-index boundaries); derive "
        "every stream from SeedSequence(seed, spawn_key=...) so runs "
        "are bit-reproducible",
    )
)

# Generator methods that consume the stream.
DRAW_METHODS = {
    "random",
    "integers",
    "normal",
    "standard_normal",
    "uniform",
    "choice",
    "shuffle",
    "permutation",
    "permuted",
    "exponential",
    "poisson",
    "binomial",
    "beta",
    "gamma",
    "lognormal",
    "laplace",
    "triangular",
    "bytes",
}

# Provenance atoms. "unseeded" atoms carry their origin for messages.
SEEDED = "seeded"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Unseeded:
    """An unseeded-generator origin: where the entropy leak started."""

    origin: str  # "file:line" of the seedless construction
    via: str  # qualname of the function that constructed it


# A provenance value is a set of atoms: SEEDED / UNKNOWN strings,
# Unseeded records, and int param indices (symbolic pass-through).
Prov = frozenset


def _join(*values: Prov) -> Prov:
    out: Set = set()
    for v in values:
        out |= v
    return frozenset(out)


_EMPTY: Prov = frozenset()


@dataclass
class RngSummary:
    """Per-function facts the fixpoint propagates."""

    # Provenance atoms of returned generator values (ints = params).
    returns: Prov = _EMPTY
    # Param indices this function (transitively) draws from.
    draws_from_param: Set[int] = field(default_factory=set)

    def key(self) -> Tuple:
        return (self.returns, frozenset(self.draws_from_param))


class RngAnalysis:
    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.summaries: Dict[str, RngSummary] = {}
        self.findings: List[Finding] = []
        # Class-field provenance: "ClassQual.attr" -> Prov
        self.field_prov: Dict[str, Prov] = {}

    # -- driver ------------------------------------------------------------------

    def run(self) -> List[Finding]:
        functions = list(self.project.functions.values())
        # Fixpoint over summaries: return/draw facts flow along call
        # edges; the project call graph is shallow, so this converges
        # in a handful of rounds (bounded for safety).
        for _round in range(8):
            changed = False
            for fn in functions:
                summary = _FunctionPass(self, fn, emit=False).compute()
                old = self.summaries.get(fn.qualname)
                if old is None or old.key() != summary.key():
                    self.summaries[fn.qualname] = summary
                    changed = True
            if not changed:
                break
        # Final pass emits findings with stable summaries.
        for fn in functions:
            _FunctionPass(self, fn, emit=True).compute()
        self._check_duplicate_spawn_keys()
        return self.findings

    # -- duplicate spawn keys ------------------------------------------------------

    def _check_duplicate_spawn_keys(self) -> None:
        """Two SeedSequence(entropy, spawn_key=CONST) sites in one
        module with identical entropy text and key collide."""
        for module in self.project.modules.values():
            sites: Dict[Tuple[str, Tuple], List[ast.Call]] = {}
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                if chain is None or chain[-1] != "SeedSequence":
                    continue
                spawn_key = None
                for kw in node.keywords:
                    if kw.arg == "spawn_key":
                        spawn_key = kw.value
                key_const = _constant_tuple(spawn_key)
                if key_const is None or not node.args:
                    continue
                try:
                    entropy = ast.unparse(node.args[0])
                except Exception:  # pragma: no cover - unparse is total
                    continue
                sites.setdefault((entropy, key_const), []).append(node)
            for (entropy, key_const), nodes in sites.items():
                if len(nodes) < 2:
                    continue
                first = nodes[0]
                for node in nodes[1:]:
                    self.findings.append(
                        Finding(
                            rule_id="RF300",
                            message=(
                                f"duplicate spawn_key {key_const!r} for "
                                f"entropy '{entropy}' (also constructed "
                                f"at line {first.lineno}); two streams "
                                "with one identity are one stream"
                            ),
                            file=module.path,
                            line=node.lineno,
                            column=node.col_offset,
                        )
                    )


def _constant_tuple(node: Optional[ast.AST]) -> Optional[Tuple]:
    if not isinstance(node, ast.Tuple):
        return None
    values = []
    for element in node.elts:
        if not isinstance(element, ast.Constant):
            return None
        values.append(element.value)
    return tuple(values)


class _FunctionPass:
    """One abstract-interpretation pass over a function body."""

    def __init__(
        self, analysis: RngAnalysis, fn: FunctionInfo, emit: bool
    ) -> None:
        self.analysis = analysis
        self.project = analysis.project
        self.fn = fn
        self.emit = emit
        self.env: Dict[str, Prov] = {}
        self.summary = RngSummary()
        self.local_types = _LocalTypes(self.project, fn)
        self.arg_names = fn.arg_names()
        # Worker-loop tracking: var -> loop depth at definition time;
        # draws at a deeper worker-loop depth than the definition mean
        # one stream is shared across index boundaries.
        self.worker_depth = 0
        self.def_worker_depth: Dict[str, int] = {}
        for index, name in enumerate(self.arg_names):
            if name == "self":
                continue
            if _is_rng_param(fn.node, index, name):
                self.env[name] = frozenset({index})
                self.def_worker_depth[name] = 0
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                self.local_types.note_assign(node)

    # -- entry -------------------------------------------------------------------

    def compute(self) -> RngSummary:
        for stmt in self.fn.node.body:
            self._stmt(stmt)
        return self.summary

    # -- statements --------------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs analyzed as their own functions? No —
            # they are not indexed; skip to avoid misattributing scopes.
        if isinstance(node, ast.Assign):
            value = self._expr(node.value)
            for target in node.targets:
                self._bind(target, value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind(node.target, self._expr(node.value))
        elif isinstance(node, ast.AugAssign):
            self._expr(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                value = self._expr(node.value)
                if value:
                    self.summary.returns = _join(
                        self.summary.returns, value
                    )
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
        elif isinstance(node, ast.If):
            self._expr(node.test)
            for sub in node.body + node.orelse:
                self._stmt(sub)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_value = self._expr(node.iter)
            worker_loop = _is_worker_loop(node)
            if worker_loop:
                self.worker_depth += 1
            self._bind(node.target, iter_value)
            for sub in node.body + node.orelse:
                self._stmt(sub)
            if worker_loop:
                self.worker_depth -= 1
        elif isinstance(node, (ast.While,)):
            self._expr(node.test)
            for sub in node.body + node.orelse:
                self._stmt(sub)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value)
            for sub in node.body:
                self._stmt(sub)
        elif isinstance(node, ast.Try):
            for sub in (
                node.body + node.orelse + node.finalbody
            ):
                self._stmt(sub)
            for handler in node.handlers:
                for sub in handler.body:
                    self._stmt(sub)
        else:
            # Remaining statements: evaluate nested expressions so
            # draws inside them are still seen.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _bind(self, target: ast.AST, value: Prov) -> None:
        if isinstance(target, ast.Name):
            if value:
                self.env[target.id] = value
                self.def_worker_depth[target.id] = self.worker_depth
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            # self.attr = <generator>: record class-field provenance.
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.fn.class_name is not None
                and value
            ):
                cls = self.fn.module.classes.get(self.fn.class_name)
                if cls is not None:
                    key = f"{cls.qualname}.{target.attr}"
                    resolved = self._resolve_atoms(value)
                    previous = self.analysis.field_prov.get(key, _EMPTY)
                    self.analysis.field_prov[key] = _join(
                        previous, resolved
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value)

    # -- expressions -------------------------------------------------------------

    def _expr(self, node: Optional[ast.AST]) -> Prov:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            value = self._expr(node.value)
            # obj.attr where obj has class-field provenance.
            receiver = self.local_types.type_of(node.value)
            if receiver is not None:
                key = f"{receiver.qualname}.{node.attr}"
                if key in self.analysis.field_prov:
                    return self.analysis.field_prov[key]
            # Keep container/attribute transparency: list_of_rngs[0],
            # pair.rng — provenance flows through.
            return value
        if isinstance(node, ast.Subscript):
            self._expr(node.slice)
            return self._expr(node.value)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return _join(*[self._expr(e) for e in node.elts])
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            return _join(self._expr(node.body), self._expr(node.orelse))
        if isinstance(node, ast.BoolOp):
            return _join(*[self._expr(v) for v in node.values])
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for comp in node.generators:
                self._bind(comp.target, self._expr(comp.iter))
            return self._expr(node.elt)
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        if isinstance(node, ast.Await):
            return self._expr(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self._expr(node.value)
            self._bind(node.target, value)
            return value
        if isinstance(node, ast.Call):
            return self._call(node)
        # Other expressions (compare, binop, constants): walk children
        # for nested calls, carry no generator provenance.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
        return _EMPTY

    # -- calls -------------------------------------------------------------------

    def _call(self, node: ast.Call) -> Prov:
        arg_provs = [self._expr(a) for a in node.args]
        kw_provs = {
            kw.arg: self._expr(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        chain = attr_chain(node.func)
        constructed = self._rng_construction(
            node, chain, arg_provs, kw_provs
        )
        if constructed is not None:
            return constructed  # an RNG constructor, fully handled
        # rng.spawn(...) / rng.<draw>(...)
        if isinstance(node.func, ast.Attribute):
            receiver = self._expr(node.func.value)
            if receiver:
                if node.func.attr == "spawn":
                    return receiver
                if node.func.attr in DRAW_METHODS:
                    self._check_draw(node, node.func.value, receiver)
                    return _EMPTY
        # Interprocedural: resolve the callee and apply its summary.
        callee, is_method = resolve_call(
            self.project, node, self.fn, self.local_types
        )
        if callee is None:
            return _EMPTY
        summary = self.analysis.summaries.get(callee.qualname)
        if summary is None:
            return _EMPTY
        callee_args = callee.arg_names()
        offset = 1 if (is_method and callee_args[:1] == ["self"]) else 0

        def arg_prov_for(param_index: int) -> Prov:
            position = param_index - offset
            if 0 <= position < len(arg_provs):
                return arg_provs[position]
            if param_index < len(callee_args):
                name = callee_args[param_index]
                if name in kw_provs:
                    return kw_provs[name]
            return _EMPTY

        def arg_node_for(param_index: int) -> Optional[ast.AST]:
            position = param_index - offset
            if 0 <= position < len(node.args):
                return node.args[position]
            if param_index < len(callee_args):
                name = callee_args[param_index]
                for kw in node.keywords:
                    if kw.arg == name:
                        return kw.value
            return None

        # A param the callee draws from, fed an unseeded value here.
        for param_index in sorted(summary.draws_from_param):
            value = self._resolve_atoms(arg_prov_for(param_index))
            self._flag_unseeded_flow(node, value, callee, param_index)
            # A generator created outside the worker loop handed to a
            # callee that draws from it: sharing across the boundary,
            # one call hop removed from the direct-draw case.
            self._check_worker_sharing(node, arg_node_for(param_index))
            # Param atoms flowing onward: caller's own params feeding
            # a drawing callee make this function draw from them too.
            for atom in arg_prov_for(param_index):
                if isinstance(atom, int):
                    self.summary.draws_from_param.add(atom)
        # Returned provenance, with param atoms substituted.
        result: Set = set()
        for atom in summary.returns:
            if isinstance(atom, int):
                result |= arg_prov_for(atom)
            else:
                result.add(atom)
        return frozenset(result)

    def _rng_construction(
        self,
        node: ast.Call,
        chain: Optional[List[str]],
        arg_provs: List[Prov],
        kw_provs: Dict[str, Prov],
    ) -> Optional[Prov]:
        """Provenance of default_rng/SeedSequence/Generator/PCG64 calls;
        None when the call is not an RNG constructor."""
        if chain is None:
            return None
        tail = chain[-1]
        if tail not in {
            "default_rng",
            "SeedSequence",
            "Generator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }:
            return None
        # Only numpy's: require the chain to run through a random
        # module alias or be a direct from-import of numpy.random.
        if len(chain) > 1 and chain[-2] not in {"random", "np", "numpy"}:
            if not (len(chain) == 2 and chain[0] in {"nr", "npr"}):
                return None
        seed_kwargs = {"seed", "entropy", "key", "bit_generator"}
        seed_args = list(node.args) + [
            kw.value
            for kw in node.keywords
            if kw.arg in seed_kwargs
        ]
        seed_provs = list(arg_provs) + [
            prov
            for name, prov in kw_provs.items()
            if name in seed_kwargs
        ]
        if not seed_args or all(
            isinstance(a, ast.Constant) and a.value is None
            for a in seed_args
        ):
            atom = Unseeded(
                origin=f"{self.fn.module.path}:{node.lineno}",
                via=self.fn.qualname,
            )
            if self.emit:
                self.analysis.findings.append(
                    Finding(
                        rule_id="RF300",
                        message=(
                            f"'{tail}()' constructed without an explicit "
                            "seed draws entropy from the OS; pass a seed "
                            "or a SeedSequence-derived key"
                        ),
                        file=self.fn.module.path,
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )
            return frozenset({atom})
        # Seeded-ness is inherited when the seed is itself a tracked
        # generator/seed-sequence value; otherwise the explicit
        # argument is the seed. Provenances were computed once by the
        # caller — no re-evaluation (it would double-report findings
        # in nested argument expressions).
        inherited: Set = set()
        for prov in seed_provs:
            inherited |= set(self._resolve_atoms(prov))
        if any(isinstance(a, Unseeded) for a in inherited):
            return frozenset(
                {a for a in inherited if isinstance(a, Unseeded)}
            )
        return frozenset({SEEDED})

    # -- flagging ----------------------------------------------------------------

    def _resolve_atoms(self, value: Prov) -> Prov:
        """Substitute this function's own param atoms with UNKNOWN —
        callers are responsible for what they pass in."""
        out: Set = set()
        for atom in value:
            if isinstance(atom, int):
                out.add(UNKNOWN)
            else:
                out.add(atom)
        return frozenset(out)

    def _check_draw(
        self, node: ast.Call, receiver: ast.AST, value: Prov
    ) -> None:
        receiver_text = _safe_unparse(receiver)
        for atom in value:
            if isinstance(atom, int):
                self.summary.draws_from_param.add(atom)
        if not self.emit:
            return
        unseeded = [a for a in value if isinstance(a, Unseeded)]
        for atom in unseeded:
            local = atom.via == self.fn.qualname
            if local:
                # The seedless construction in this same function is
                # already reported at its own line; a second finding
                # at the draw adds nothing.
                continue
            self.analysis.findings.append(
                Finding(
                    rule_id="RF300",
                    message=(
                        f"draw from '{receiver_text}', an unseeded "
                        f"generator constructed at {atom.origin} "
                        f"(via {atom.via}); seed it explicitly"
                    ),
                    file=self.fn.module.path,
                    line=node.lineno,
                    column=node.col_offset,
                )
            )
        # Worker-boundary sharing: drawing inside a worker-index loop
        # from a generator defined outside it.
        self._check_worker_sharing(node, receiver)

    def _check_worker_sharing(
        self, node: ast.Call, receiver: Optional[ast.AST]
    ) -> None:
        if not self.emit or self.worker_depth == 0:
            return
        if not isinstance(receiver, ast.Name):
            return
        defined_at = self.def_worker_depth.get(receiver.id)
        if defined_at is not None and defined_at < self.worker_depth:
            self.analysis.findings.append(
                Finding(
                    rule_id="RF300",
                    message=(
                        f"generator '{receiver.id}' is shared across "
                        "worker-index iterations; derive a per-index "
                        "stream via SeedSequence(seed, "
                        "spawn_key=(index,)) so worker count cannot "
                        "change results"
                    ),
                    file=self.fn.module.path,
                    line=node.lineno,
                    column=node.col_offset,
                )
            )

    def _flag_unseeded_flow(
        self,
        node: ast.Call,
        value: Prov,
        callee: FunctionInfo,
        param_index: int,
    ) -> None:
        if not self.emit:
            return
        callee_args = callee.arg_names()
        param = (
            callee_args[param_index]
            if param_index < len(callee_args)
            else f"#{param_index}"
        )
        for atom in value:
            if isinstance(atom, Unseeded):
                self.analysis.findings.append(
                    Finding(
                        rule_id="RF300",
                        message=(
                            f"unseeded generator (constructed at "
                            f"{atom.origin}) flows into parameter "
                            f"'{param}' of {callee.qualname}, which "
                            "draws from it"
                        ),
                        file=self.fn.module.path,
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )


def _is_rng_param(node, index: int, name: str) -> bool:
    lowered = name.lower()
    if lowered in {"rng", "generator", "bitgen"} or lowered.endswith("_rng"):
        return True
    args = node.args
    all_args = args.posonlyargs + args.args + args.kwonlyargs
    if index < len(all_args):
        annotation = all_args[index].annotation
        if annotation is not None:
            text = _safe_unparse(annotation)
            return "Generator" in text or "SeedSequence" in text
    return False


def _is_worker_loop(node) -> bool:
    """A loop whose target iterates worker/estimate indices."""
    target_names: Set[str] = set()
    for sub in ast.walk(node.target):
        if isinstance(sub, ast.Name):
            target_names.add(sub.id.lower())
    if target_names & {"worker", "worker_id", "worker_index", "widx"}:
        return True
    iter_text = _safe_unparse(node.iter).lower()
    return "reserve_indices" in iter_text or "worker" in iter_text


def _safe_unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<expr>"


def analyze_rng(project: Project, graph: CallGraph) -> List[Finding]:
    return RngAnalysis(project, graph).run()
