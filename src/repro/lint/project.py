"""The analysed file set and the one analysis core every rule reads.

Rules get two views:

* :class:`SourceFile` — one parsed module: AST, raw lines, directives,
  and whether it lies in the *protocol directories* whose obliviousness
  invariants the OBL rules enforce.
* :class:`Project` — all files of the run plus what is derived from
  them once per run: the index of every function/method, the one
  callee resolver (:meth:`Project.resolve`), the one call-graph closure
  (:meth:`Project.closure`) and the taint cache :mod:`repro.lint.taint`
  fills.

A closure collects the facts a function *may* reach: its own and those
of every definition a call of it may resolve to, so a duck-typed call
(``ot.transfer`` resolving to three back-ends) reaches all of them.
OBL007 reads the atoms a callee can produce this way.
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

#: the facts a function may reach — see the module docstring.
Closure = FrozenSet[str]
_EMPTY: Closure = frozenset()
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

    def __post_init__(self) -> None:
        self.nodes = list(walk_shallow(self.node))
        self.calls = [n for n in self.nodes if isinstance(n, ast.Call)]
        self.call_names = frozenset(
            n for n in map(call_name, self.calls) if n is not None
        )
        self.callees = self.call_names - set(LABEL_ARG)


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
        """``fact`` of ``info`` and of everything it may call,
        transitively, through :meth:`resolve`."""
        memo = self.closures.setdefault(fact, {})
        key = id(info.node)
        if key in memo:
            return memo[key]
        if _depth > _MAX_DEPTH:
            return _EMPTY
        # In-progress marker breaks recursion cycles.
        memo[key] = _EMPTY
        result = fact(info).union(
            *(
                self.closure_of_name(name, info.cls, fact, _depth + 1)
                for name in info.callees
            )
        )
        memo[key] = result
        return result

    def closure_of_name(
        self, name: str, cls: Optional[str], fact: Fact, depth: int = 1
    ) -> Closure:
        """The closure of a call of ``name`` made inside class ``cls``:
        the facts of every definition it may resolve to."""
        return _EMPTY.union(
            *(self.closure(i, fact, depth) for i in self.resolve(name, cls))
        )


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
