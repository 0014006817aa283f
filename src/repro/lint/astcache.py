"""One parse per file per lint run, shared across every pass.

Before this module each checker that wanted a syntax tree parsed the
file itself, so a run combining the per-file AST rules (``RL1xx``) with
the whole-program flow analyses (``RF3xx``) paid for every module
twice. An :class:`AstCache` is created once per CLI invocation and
handed to both passes: the first ``load`` of a path reads and parses
it, every later ``load`` is a dictionary hit. The cache also counts its
work (`files`, `parses`, `hits`) so ``--stats`` can report it and a
test can assert the parse-once contract.

Files that fail to parse are cached too (as a :class:`SourceFile` with
``tree=None`` plus the :class:`SyntaxError`): a broken module costs one
parse attempt, not one per pass, and every pass sees the same error.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class SourceFile:
    """One loaded module: path, raw text, split lines, parsed tree."""

    path: str
    source: str
    lines: List[str] = field(default_factory=list)
    tree: Optional[ast.Module] = None
    syntax_error: Optional[SyntaxError] = None


class AstCache:
    """Path-keyed memo of parsed modules with work accounting."""

    def __init__(self) -> None:
        self._files: Dict[str, SourceFile] = {}
        self.parses = 0
        self.hits = 0

    def load(self, path: str, source: Optional[str] = None) -> SourceFile:
        """The parsed module at ``path``; parses at most once.

        ``source`` lets callers lint in-memory text (tests, editors)
        under a synthetic path without touching the filesystem.
        """
        cached = self._files.get(path)
        if cached is not None:
            self.hits += 1
            return cached
        if source is None:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        entry = SourceFile(path=path, source=source, lines=source.splitlines())
        self.parses += 1
        try:
            entry.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            entry.syntax_error = exc
        self._files[path] = entry
        return entry

    def stats(self) -> dict:
        return {"files": len(self._files), "parses": self.parses, "hits": self.hits}


def collect_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                files.extend(
                    os.path.join(root, n) for n in names if n.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
    return sorted(set(files))


def module_name_for(path: str) -> Tuple[str, ...]:
    """Best-effort dotted module name for ``path``.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/serve/metrics.py`` maps to ``("repro", "serve",
    "metrics")`` regardless of the lint invocation's working directory.
    """
    path = os.path.abspath(path)
    parts: List[str] = []
    base = os.path.basename(path)
    if base != "__init__.py":
        parts.append(os.path.splitext(base)[0])
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    return tuple(reversed(parts))


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None
