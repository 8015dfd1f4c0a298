"""The analysed file set and the project-wide call/label index.

Rules get two views:

* :class:`SourceFile` — one parsed module: AST, raw lines, directives,
  and whether it lies in the *protocol directories* whose obliviousness
  invariants the OBL rules enforce.
* :class:`Project` — all files of the run plus a lazily-built index of
  every function/method, used by OBL005 to resolve transcript-label
  literals through the call graph (``garbled_call -> _charge_garbled
  -> correlated`` and the REAL-side twin).

Label resolution is *two-valued*: a label is **definite** for a callee
name when every same-named definition in the project emits it, and
**possible** when at least one does.  Mode-parity comparisons only
require definite labels of one side to be at least possible on the
other, which keeps duck-typed dispatch (``ot.transfer`` resolving to
three back-ends) from producing false mismatches while still catching a
label string that one back-end spells differently.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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

#: Argument positions of transcript-label parameters, per callee name.
#: ``send(sender, n_bytes, label)`` / ``section(label)``.
LABEL_ARG = {"send": (2, "label"), "section": (0, "label")}


def call_name(node: ast.Call) -> Optional[str]:
    """The bare name a call dispatches on (``f(...)`` or ``x.f(...)``)."""
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def label_arg_of(node: ast.Call) -> Optional[ast.expr]:
    """The transcript-label argument of a send/section call, if any."""
    name = call_name(node)
    spec = LABEL_ARG.get(name or "")
    if spec is None:
        return None
    pos, kw = spec
    for k in node.keywords:
        if k.arg == kw:
            return k.value
    if len(node.args) > pos:
        return node.args[pos]
    return None


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

    def functions(self) -> Iterator[ast.AST]:
        for node in ast.walk(self.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield node


def parse_source(path: str, text: str) -> SourceFile:
    return SourceFile(
        path=path,
        text=text,
        tree=ast.parse(text, filename=path),
        directives=parse_directives(text),
    )


# ----------------------------------------------------------------------
# project-wide label index (OBL005)
# ----------------------------------------------------------------------

LabelSets = Tuple[frozenset, frozenset]  # (definite, possible)
_EMPTY: LabelSets = (frozenset(), frozenset())
_MAX_DEPTH = 10


@dataclass
class FuncInfo:
    """Call/label facts of one function definition."""

    node: ast.AST
    file: SourceFile
    cls: Optional[str]  #: enclosing class name, if a method
    direct_labels: frozenset
    callees: frozenset


class Project:
    """All files of one lint run plus the function index."""

    def __init__(self, files: List[SourceFile]):
        self.files = files
        self._by_name: Optional[Dict[str, List[FuncInfo]]] = None
        self._by_class: Optional[Dict[str, Dict[str, FuncInfo]]] = None
        self._memo: Dict[int, LabelSets] = {}

    # -- index construction --------------------------------------------

    def _build_index(self) -> None:
        by_name: Dict[str, List[FuncInfo]] = {}
        by_class: Dict[str, Dict[str, FuncInfo]] = {}
        for f in self.files:
            for cls_name, fn in self._iter_defs(f.tree):
                info = FuncInfo(
                    node=fn,
                    file=f,
                    cls=cls_name,
                    direct_labels=frozenset(direct_labels(fn)),
                    callees=frozenset(callee_names(fn)),
                )
                by_name.setdefault(fn.name, []).append(info)
                if cls_name is not None:
                    by_class.setdefault(cls_name, {})[fn.name] = info
        self._by_name = by_name
        self._by_class = by_class

    @staticmethod
    def _iter_defs(
        tree: ast.Module,
    ) -> Iterator[Tuple[Optional[str], ast.FunctionDef]]:
        """Yield (enclosing class name or None, function def)."""

        def walk(node: ast.AST, cls: Optional[str]) -> Iterator:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, child.name)
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield cls, child
                    yield from walk(child, None)
                else:
                    yield from walk(child, cls)

        yield from walk(tree, None)

    @property
    def functions_by_name(self) -> Dict[str, List[FuncInfo]]:
        if self._by_name is None:
            self._build_index()
        return self._by_name  # type: ignore[return-value]

    @property
    def classes(self) -> Dict[str, Dict[str, FuncInfo]]:
        if self._by_class is None:
            self._build_index()
        return self._by_class  # type: ignore[return-value]

    # -- transitive label resolution -----------------------------------

    def labels_of_info(
        self, info: FuncInfo, _depth: int = 0
    ) -> LabelSets:
        """(definite, possible) transcript labels ``info`` can emit,
        following callees through the bare-name index."""
        key = id(info.node)
        if key in self._memo:
            return self._memo[key]
        if _depth > _MAX_DEPTH:
            return _EMPTY
        # In-progress marker breaks recursion cycles.
        self._memo[key] = _EMPTY
        definite = set(info.direct_labels)
        possible = set(info.direct_labels)
        class_ns = self.classes.get(info.cls or "", {})
        for name in info.callees:
            d, p = self._labels_of_name(name, class_ns, _depth + 1)
            definite |= d
            possible |= p
        result = (frozenset(definite), frozenset(possible))
        self._memo[key] = result
        return result

    def _labels_of_name(
        self,
        name: str,
        class_ns: Dict[str, FuncInfo],
        depth: int,
    ) -> LabelSets:
        # A same-class method is an unambiguous resolution for
        # ``self.name(...)`` — prefer it over the global index.
        if name in class_ns:
            return self.labels_of_info(class_ns[name], depth)
        infos = self.functions_by_name.get(name, [])
        if not infos:
            # ``BatchedOprf(...)`` — a constructor call runs __init__.
            init = self.classes.get(name, {}).get("__init__")
            if init is not None:
                return self.labels_of_info(init, depth)
            return _EMPTY
        sets = [self.labels_of_info(i, depth) for i in infos]
        definite = frozenset.intersection(*(s[0] for s in sets))
        possible = frozenset.union(*(s[1] for s in sets))
        return (definite, possible)

    def labels_of_statements(
        self,
        stmts: List[ast.stmt],
        class_ns: Dict[str, FuncInfo],
    ) -> LabelSets:
        """Labels emitted by a statement list, callees resolved."""
        definite: Set[str] = set()
        possible: Set[str] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                lit = _label_literal(node)
                if lit is not None:
                    definite.add(lit)
                    possible.add(lit)
                    continue
                name = call_name(node)
                if name is None or name in ("send", "section"):
                    continue
                d, p = self._labels_of_name(name, class_ns, 1)
                definite |= d
                possible |= p
        return (frozenset(definite), frozenset(possible))


def _label_literal(node: ast.Call) -> Optional[str]:
    arg = label_arg_of(node)
    if (
        arg is not None
        and isinstance(arg, ast.Constant)
        and isinstance(arg.value, str)
        and arg.value
    ):
        return arg.value
    return None


def direct_labels(fn: ast.AST) -> Set[str]:
    """String-literal labels of send/section calls directly in ``fn``
    (nested defs excluded so class methods stay separable)."""
    out: Set[str] = set()
    for node in walk_shallow(fn):
        if isinstance(node, ast.Call):
            lit = _label_literal(node)
            if lit is not None:
                out.add(lit)
    return out


def callee_names(fn: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in walk_shallow(fn):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and name not in ("send", "section"):
                out.add(name)
    return out


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
