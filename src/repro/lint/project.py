"""The analysed file and the AST helpers the rule reads.

:class:`SourceFile` is one parsed module: AST, raw lines, directives,
and whether it lies in the *protocol directories* whose obliviousness
invariants OBL001 enforces.  The rule reads one file at a time: no fact
crosses a file boundary, so a file lints the same alone as in the full
tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional

from .suppress import Directives, parse_directives

#: Directories (as posix path fragments) whose modules carry the
#: protocol's obliviousness obligations.
PROTOCOL_DIRS = (
    "repro/mpc",
    "repro/core",
    "repro/exec",
    "repro/relalg",
    "repro/runtime",
)


def call_name(node: ast.Call) -> Optional[str]:
    """The bare name a call dispatches on (``f(...)`` or ``x.f(...)``)."""
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def walk_shallow(fn: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` over the body of ``fn`` that does not descend into
    nested function/class definitions (a nested definition is yielded,
    its body is not)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class SourceFile:
    """One parsed module under analysis."""

    path: str  #: repo-relative posix path
    text: str
    tree: ast.Module
    directives: Directives
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.text.splitlines()

    @property
    def in_protocol_dirs(self) -> bool:
        return any(d in self.path for d in PROTOCOL_DIRS)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def functions(self) -> List[Any]:
        """Every function definition, nested ones included, in source
        order (each before the definitions nested in it)."""
        return list(_iter_defs(self.tree))


def parse_source(path: str, text: str) -> SourceFile:
    return SourceFile(
        path=path,
        text=text,
        tree=ast.parse(text, filename=path),
        directives=parse_directives(text),
    )


def _iter_defs(node: ast.AST) -> Iterator[Any]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        yield from _iter_defs(child)
