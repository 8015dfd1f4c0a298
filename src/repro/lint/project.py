"""The analysed file set and the one analysis core every rule reads.

Rules get two views:

* :class:`SourceFile` — one parsed module: AST, raw lines, directives,
  and whether it lies in the *protocol directories* whose obliviousness
  invariants the OBL rules enforce.
* :class:`Project` — all files of the run plus what is derived from
  them once per run: the index of every function/method, the one
  callee resolver (:meth:`Project.resolve`), the one call-graph closure
  (:meth:`Project.closure`), the taint cache :mod:`repro.lint.taint`
  fills, and the ``BACKEND_CONTRACTS`` registry literal (OBL008).

A closure is *two-valued*: a fact is **definite** for a callee name
when every same-named definition in the project has it, and
**possible** when at least one does.  OBL005 compares transcript
labels this way — definite labels of one side must be at least
possible on the other — which keeps duck-typed dispatch
(``ot.transfer`` resolving to three back-ends) from producing false
mismatches while still catching a label string that one back-end
spells differently.  OBL007 reads the possible side of the atoms a
callee can produce.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .suppress import Directives, parse_directives

if TYPE_CHECKING:
    from .taint import FunctionTaint

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


def _label_literal(node: ast.Call) -> Optional[str]:
    """The non-empty string-literal label of a send/section call."""
    arg = label_arg_of(node)
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value or None
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
    _defs: Optional[List["FuncInfo"]] = field(
        default=None, init=False, repr=False
    )

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
        """Every function definition, nested ones included."""
        return [info.node for info in self.defs()]

    def defs(self) -> List["FuncInfo"]:
        """Every function definition with its own-body facts, for the
        project index (computed once, so runs sharing a file share
        them)."""
        if self._defs is None:
            self._defs = [
                FuncInfo(fn, self, cls) for cls, fn in _iter_defs(self.tree)
            ]
        return self._defs


def parse_source(path: str, text: str) -> SourceFile:
    return SourceFile(
        path=path,
        text=text,
        tree=ast.parse(text, filename=path),
        directives=parse_directives(text),
    )


# ----------------------------------------------------------------------
# the function index and the call-graph closure
# ----------------------------------------------------------------------

#: (definite, possible) — see the module docstring.
Closure = Tuple[frozenset, frozenset]
_EMPTY: Closure = (frozenset(), frozenset())
_MAX_DEPTH = 10

#: A per-function fact a closure propagates over the call graph.
Fact = Callable[["FuncInfo"], FrozenSet[str]]


@dataclass
class FuncInfo:
    """One function definition and its shallow (own-body) facts."""

    node: Any  #: the ``FunctionDef``/``AsyncFunctionDef``
    file: SourceFile
    cls: Optional[str]  #: enclosing class name, if a method
    #: :func:`walk_shallow` of the body, computed once
    nodes: List[ast.AST] = field(init=False)
    calls: List[ast.Call] = field(init=False)
    #: bare names of every call in the body
    call_names: FrozenSet[str] = field(init=False)
    #: the call names a closure follows (send/section are label
    #: carriers, not callees)
    callees: FrozenSet[str] = field(init=False)
    #: string-literal send/section labels in the body
    direct_labels: FrozenSet[str] = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = list(walk_shallow(self.node))
        self.calls = [n for n in self.nodes if isinstance(n, ast.Call)]
        self.call_names = frozenset(
            n for n in map(call_name, self.calls) if n is not None
        )
        self.callees = self.call_names - set(LABEL_ARG)
        self.direct_labels = frozenset(
            lit for lit in map(_label_literal, self.calls) if lit is not None
        )


def direct_labels(info: FuncInfo) -> FrozenSet[str]:
    """The OBL005 fact: transcript labels a function spells itself."""
    return info.direct_labels


class Project:
    """All files of one lint run plus everything derived from them."""

    def __init__(self, files: List[SourceFile]):
        self.files = files
        self.functions_by_name: Dict[str, List[FuncInfo]] = {}
        self.classes: Dict[str, Dict[str, FuncInfo]] = {}
        self._by_node: Dict[int, FuncInfo] = {}
        for f in files:
            for info in f.defs():
                name = info.node.name
                self._by_node[id(info.node)] = info
                self.functions_by_name.setdefault(name, []).append(info)
                if info.cls is not None:
                    self.classes.setdefault(info.cls, {})[name] = info
        #: fact -> id(def node) -> its closure (see :meth:`closure`)
        self.closures: Dict[Fact, Dict[int, Closure]] = {}
        #: (id(def node), config) -> intraprocedural taint facts
        self.taints: Dict[Tuple[int, Any], "FunctionTaint"] = {}
        #: id(def node) -> converged interprocedural secret taint
        self.interproc: Optional[Dict[int, "FunctionTaint"]] = None
        #: merged ``BACKEND_CONTRACTS`` literal; None when no file in
        #: the set defines one (a partial tree)
        self.backend_contracts = _read_backend_contracts(files)

    @property
    def infos(self) -> List[FuncInfo]:
        return list(self._by_node.values())

    def info(self, fn: ast.AST) -> FuncInfo:
        """The index entry of a definition of the file set."""
        return self._by_node[id(fn)]

    def resolve(self, name: str, cls: Optional[str] = None) -> List[FuncInfo]:
        """The definitions a call of bare ``name`` may run, from inside
        class ``cls``: the same-class method if there is one (the
        unambiguous reading of ``self.name(...)``), else every
        same-named def, else the ``__init__`` of a class of that name
        (a constructor call)."""
        method = self.classes.get(cls, {}).get(name) if cls else None
        if method is not None:
            return [method]
        infos = self.functions_by_name.get(name)
        if infos:
            return infos
        init = self.classes.get(name, {}).get("__init__")
        return [init] if init is not None else []

    def closure(
        self, info: FuncInfo, fact: Fact, _depth: int = 0
    ) -> Closure:
        """(definite, possible) ``fact`` of ``info`` and of everything
        it calls, transitively, through :meth:`resolve`."""
        memo = self.closures.setdefault(fact, {})
        key = id(info.node)
        if key in memo:
            return memo[key]
        if _depth > _MAX_DEPTH:
            return _EMPTY
        # In-progress marker breaks recursion cycles.
        memo[key] = _EMPTY
        definite = set(fact(info))
        possible = set(definite)
        for name in info.callees:
            d, p = self.closure_of_name(name, info.cls, fact, _depth + 1)
            definite |= d
            possible |= p
        result = (frozenset(definite), frozenset(possible))
        memo[key] = result
        return result

    def closure_of_name(
        self, name: str, cls: Optional[str], fact: Fact, depth: int = 1
    ) -> Closure:
        """The closure of a call of ``name`` made inside class ``cls``:
        definite on every resolution, possible on at least one."""
        sets = [self.closure(i, fact, depth) for i in self.resolve(name, cls)]
        if not sets:
            return _EMPTY
        return (
            frozenset.intersection(*(s[0] for s in sets)),
            frozenset.union(*(s[1] for s in sets)),
        )

    def labels_of_statements(
        self, stmts: List[ast.stmt], cls: Optional[str]
    ) -> Closure:
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
                if name is None or name in LABEL_ARG:
                    continue
                d, p = self.closure_of_name(name, cls, direct_labels)
                definite |= d
                possible |= p
        return (frozenset(definite), frozenset(possible))


def _iter_defs(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[str], Any]]:
    """Yield (enclosing class name or None, function def)."""

    def walk(node: ast.AST, cls: Optional[str]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from walk(child, None)
            else:
                yield from walk(child, cls)

    yield from walk(tree, None)


# ----------------------------------------------------------------------
# the back-end registry literal (OBL008)
# ----------------------------------------------------------------------


def _literal(expr: Optional[ast.expr]) -> Any:
    """The value of a string literal, a tuple/list/set of strings, a
    ``frozenset(...)`` of one, or a dict from strings to any of these;
    None for anything else."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        elts = [_literal(e) for e in expr.elts]
        return tuple(elts) if all(isinstance(e, str) for e in elts) else None
    if isinstance(expr, ast.Dict):
        keys = [_literal(k) for k in expr.keys]
        values = [_literal(v) for v in expr.values]
        if not all(isinstance(k, str) for k in keys) or None in values:
            return None
        return dict(zip(keys, values))
    if (
        isinstance(expr, ast.Call)
        and call_name(expr) == "frozenset"
        and len(expr.args) <= 1
        and not expr.keywords
    ):
        inner = _literal(expr.args[0]) if expr.args else ()
        return frozenset(inner) if isinstance(inner, tuple) else None
    return None


def _read_backend_contracts(
    files: List[SourceFile],
) -> Optional[Dict[str, FrozenSet[str]]]:
    """Every module-level ``BACKEND_CONTRACTS = {...}`` (plain or
    annotated) of the file set, merged; None when there is none."""
    contracts: Optional[Dict[str, FrozenSet[str]]] = None
    for f in files:
        for stmt in f.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            else:
                continue
            if not (
                isinstance(target, ast.Name)
                and target.id == "BACKEND_CONTRACTS"
            ):
                continue
            parsed = _literal(value)
            if isinstance(parsed, dict) and all(
                isinstance(v, frozenset) for v in parsed.values()
            ):
                contracts = {**(contracts or {}), **parsed}
    return contracts
