"""Taint propagation over the AST, and the per-project taint cache.

One engine serves two seedings:

* *secret* sources (share arrays, OT outputs, ``# oblint: secret``
  markers): does a secret reach a branch, an index, a metered byte
  count (OBL001/OBL002) or a reveal (OBL006)?
* *nondeterminism* sources (wall clock, ``id()``, set-iteration order):
  does nondeterminism reach a transcript label (OBL004)?

Per function the analysis is a flow-insensitive fixpoint over local
variable names — deliberately conservative and simple (a name tainted
anywhere in the function stays tainted) with three escape hatches that
keep the false-positive rate workable: shape-reading attributes
(``.shape``, ``.nbytes``) are clean, declassifier calls (``reveal*``,
designated reveals) are clean, and ``# oblint: public`` clears the
assigned names.

Code dominated by an ``if ctx.mode == Mode.SIMULATED:`` test — and the
``ideal=`` thunk of a ``garbled_call``, which that seam evaluates in
SIMULATED mode only — is exempt from *control-flow* sinks: the simulated
back-end legitimately computes the functionality on cleartext while the
transcript is charged from public shapes only (see DESIGN.md,
"Execution modes").

Facts are computed once per function and cached on the
:class:`~repro.lint.project.Project` (:func:`function_taint`).  OBL006
reads the interprocedural closure (:func:`interproc_taint`), a
project-wide fixpoint layered on those facts:

1. **Secret-returning functions.**  A function whose ``return``
   expression is tainted joins the *secret-returning* name set; every
   bare call to such a name then seeds taint at its call sites (the
   set is merged into ``TaintConfig.source_calls``).  Declassifier
   names always win — ``reveal_vector`` returns designated-public
   plaintext no matter what its body touches.
2. **Secret parameters.**  When a call site passes a tainted argument,
   the matching parameter of every definition
   :meth:`~repro.lint.project.Project.resolve` finds is seeded
   (positional mapping skips ``self``/``cls``; keywords match by name)
   — the interprocedural twin of ``# oblint: secret-params``.

Round 0 of the fixpoint is the intraprocedural secret facts OBL001 and
OBL002 read; each later round recomputes only the functions whose
seeds grew or that call a newly secret-returning name.  OBL001/OBL002
stay intraprocedural on purpose: the closure would change their
findings on the existing tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .project import FuncInfo, Project, call_name

__all__ = [
    "TaintConfig",
    "FunctionTaint",
    "SECRET_CONFIG",
    "NONDET_CONFIG",
    "function_taint",
    "interproc_taint",
    "dotted_name",
    "mode_branch_kind",
    "simulated_exempt_ranges",
]

#: Interprocedural fixpoint rounds.  Taint only ever grows, so this
#: bounds the propagation *depth* across function boundaries, not
#: correctness of what is found within it.
_MAX_ROUNDS = 4


def dotted_name(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class TaintConfig:
    """What seeds, propagates, and clears taint."""

    #: bare call names producing tainted values
    source_calls: FrozenSet[str] = frozenset()
    #: dotted call names (``time.time``) producing tainted values
    source_dotted: FrozenSet[str] = frozenset()
    #: attribute loads that ARE the secret (``x.alice`` share arrays)
    source_attrs: FrozenSet[str] = frozenset()
    #: calls whose result is clean even on tainted input
    declassifier_calls: FrozenSet[str] = frozenset()
    #: attribute reads that expose only public shape
    shape_attrs: FrozenSet[str] = frozenset(
        {"shape", "size", "nbytes", "ndim", "dtype"}
    )
    #: honour ``# oblint: secret`` / ``public`` / ``secret-params``
    use_markers: bool = False
    #: iterating a set literal / ``set()`` taints the loop target
    set_iteration_is_source: bool = False


#: Seeds for the obliviousness rules: secret-shared payloads, OT
#: outputs, and explicit annotations.  ``reconstruct`` is a source (the
#: cleartext of shared data); the ``reveal*`` family and the decoded
#: outputs of a garbled batch are *designated reveals* — public by
#: protocol design — hence declassifiers.
SECRET_CONFIG = TaintConfig(
    source_calls=frozenset(
        {
            "to_shared",
            "reconstruct",
            "transfer",
            # the C-OT entry point: the batch carries the sender's
            # pads, ``finish`` returns the receiver's messages
            "correlated",
            "finish",
        }
    ),
    source_attrs=frozenset({"alice", "bob"}),
    declassifier_calls=frozenset(
        {
            "len",
            "reveal",
            "reveal_vector",
            "reveal_nonzero_flags",
            "divide_reveal",
            "garbled_call",
        }
    ),
    use_markers=True,
)

#: Seeds for the determinism rule: wall-clock, object identity, OS
#: entropy, and hash/set-iteration order.  ``sorted`` restores a
#: deterministic order, so it declassifies.
NONDET_CONFIG = TaintConfig(
    source_calls=frozenset({"id", "hash", "urandom", "getpid"}),
    source_dotted=frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "os.urandom",
            "os.getpid",
            "uuid.uuid1",
            "uuid.uuid4",
        }
    ),
    declassifier_calls=frozenset({"sorted", "len", "min", "max", "sum"}),
    set_iteration_is_source=True,
)


def mode_branch_kind(test: ast.expr) -> Optional[str]:
    """``"simulated"`` / ``"real"`` when ``test`` compares an execution
    mode against ``Mode.SIMULATED`` / ``Mode.REAL`` with ``==``."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
    ):
        return None
    for side in (test.left, test.comparators[0]):
        name = dotted_name(side)
        if name is not None and name.startswith("Mode."):
            kind = name.split(".", 1)[1].lower()
            if kind in ("simulated", "real"):
                return kind
    return None


def simulated_exempt_ranges(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line ranges that run in SIMULATED mode only (functionality
    simulation on cleartext — exempt from control-flow sinks): blocks
    dominated by a SIMULATED-mode test, and the ``ideal=`` thunk of a
    ``garbled_call`` (a lambda, or a ``def`` of that name in ``tree``)."""
    spans: List[ast.AST] = []
    thunks: Set[str] = set()
    defs: List[ast.FunctionDef] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            kind = mode_branch_kind(node.test)
            if kind == "simulated":
                spans += node.body
            elif kind == "real":
                spans += node.orelse
        elif isinstance(node, ast.Call) and call_name(node) == "garbled_call":
            for kw in node.keywords:
                if kw.arg == "ideal" and isinstance(kw.value, ast.Name):
                    thunks.add(kw.value.id)
                elif kw.arg == "ideal":
                    spans.append(kw.value)
        elif isinstance(node, ast.FunctionDef):
            defs.append(node)
    spans += [node for node in defs if node.name in thunks]
    return [(s.lineno, s.end_lineno or s.lineno) for s in spans]


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Set) or isinstance(expr, ast.SetComp):
        return True
    if isinstance(expr, ast.Call):
        return call_name(expr) in ("set", "frozenset")
    return False


class FunctionTaint:
    """Taint facts for one function definition: ``tainted`` seeds plus
    everything the body's statements propagate from them."""

    def __init__(
        self, info: FuncInfo, config: TaintConfig, tainted: Iterable[str] = ()
    ) -> None:
        self.fn = info.node
        self.src = info.file
        self.config = config
        self.tainted: Set[str] = set(tainted)
        self._seed_params()
        self._fixpoint(info.nodes)

    # -- seeding --------------------------------------------------------

    def _seed_params(self) -> None:
        if not self.config.use_markers:
            return
        lo = self.fn.lineno
        hi = self.fn.end_lineno or lo
        for line, names in self.src.directives.secret_params.items():
            if lo <= line <= hi:
                self.tainted.update(names)

    # -- propagation ----------------------------------------------------

    def _fixpoint(self, nodes: List[ast.AST]) -> None:
        stmts = [n for n in nodes if isinstance(n, ast.stmt)]
        for _ in range(10):
            before = len(self.tainted)
            for stmt in stmts:
                self._transfer(stmt)
            if len(self.tainted) == before:
                break

    def _transfer(self, stmt: ast.stmt) -> None:
        cfg = self.config
        markers = cfg.use_markers
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            names = set()
            for t in targets:
                names |= _target_names(t)
            if markers and stmt.lineno in self.src.directives.public_lines:
                self.tainted -= names
                return
            value = getattr(stmt, "value", None)
            seeded = (
                markers
                and stmt.lineno in self.src.directives.secret_lines
            )
            if seeded or (value is not None and self.is_tainted(value)):
                self.tainted |= names
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self.is_tainted(stmt.iter) or (
                cfg.set_iteration_is_source and _is_set_expr(stmt.iter)
            ):
                self.tainted |= _target_names(stmt.target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None and self.is_tainted(
                    item.context_expr
                ):
                    self.tainted |= _target_names(item.optional_vars)

    # -- expression taint ----------------------------------------------

    def is_tainted(self, expr: ast.expr) -> bool:
        cfg = self.config
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted
        if isinstance(expr, ast.Attribute):
            if expr.attr in cfg.shape_attrs:
                return False
            if expr.attr in cfg.source_attrs:
                return True
            return self.is_tainted(expr.value)
        if isinstance(expr, ast.Call):
            name = call_name(expr)
            dotted = dotted_name(expr.func)
            if name in cfg.declassifier_calls:
                return False
            if name in cfg.source_calls or (
                dotted is not None and dotted in cfg.source_dotted
            ):
                return True
            if any(self.is_tainted(a) for a in expr.args):
                return True
            if any(
                self.is_tainted(k.value) for k in expr.keywords
            ):
                return True
            if isinstance(expr.func, ast.Attribute):
                return self.is_tainted(expr.func.value)
            return False
        if isinstance(expr, ast.Subscript):
            return self.is_tainted(expr.value) or self.is_tainted(
                expr.slice
            )
        if isinstance(expr, ast.BinOp):
            return self.is_tainted(expr.left) or self.is_tainted(
                expr.right
            )
        if isinstance(expr, ast.BoolOp):
            return any(self.is_tainted(v) for v in expr.values)
        if isinstance(expr, ast.UnaryOp):
            return self.is_tainted(expr.operand)
        if isinstance(expr, ast.Compare):
            return self.is_tainted(expr.left) or any(
                self.is_tainted(c) for c in expr.comparators
            )
        if isinstance(expr, ast.IfExp):
            return (
                self.is_tainted(expr.test)
                or self.is_tainted(expr.body)
                or self.is_tainted(expr.orelse)
            )
        if isinstance(expr, ast.JoinedStr):
            return any(self.is_tainted(v) for v in expr.values)
        if isinstance(expr, ast.FormattedValue):
            return self.is_tainted(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self.is_tainted(e) for e in expr.elts)
        if isinstance(expr, ast.Dict):
            return any(
                self.is_tainted(v)
                for v in list(expr.values)
                + [k for k in expr.keys if k is not None]
            )
        if isinstance(expr, ast.Starred):
            return self.is_tainted(expr.value)
        if isinstance(expr, ast.NamedExpr):
            return self.is_tainted(expr.value)
        if isinstance(expr, ast.Slice):
            return any(
                p is not None and self.is_tainted(p)
                for p in (expr.lower, expr.upper, expr.step)
            )
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            return self._comprehension_tainted(
                [expr.elt], expr.generators
            )
        if isinstance(expr, ast.DictComp):
            return self._comprehension_tainted(
                [expr.key, expr.value], expr.generators
            )
        return False

    def _comprehension_tainted(self, elts, generators) -> bool:
        added: Set[str] = set()
        try:
            for gen in generators:
                if self.is_tainted(gen.iter) or (
                    self.config.set_iteration_is_source
                    and _is_set_expr(gen.iter)
                ):
                    fresh = _target_names(gen.target) - self.tainted
                    self.tainted |= fresh
                    added |= fresh
                if any(self.is_tainted(i) for i in gen.ifs):
                    return True
            return any(self.is_tainted(e) for e in elts)
        finally:
            self.tainted -= added


def _target_names(target: ast.expr) -> Set[str]:
    """Names bound (or mutated through) by an assignment target.

    Only the *container* is tainted, never the coordinates used to
    address into it: ``recv[j] = secret`` taints ``recv``, not ``j``.
    """
    out: Set[str] = set()
    if isinstance(target, ast.Name):
        out.add(target.id)
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        # ``x.attr = tainted`` / ``x[i] = tainted`` taints ``x``.
        base = target.value
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if isinstance(base, ast.Name):
            out.add(base.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            out |= _target_names(elt)
    elif isinstance(target, ast.Starred):
        out |= _target_names(target.value)
    return out


# ----------------------------------------------------------------------
# the per-project cache and the interprocedural closure
# ----------------------------------------------------------------------


def function_taint(
    project: Project, fn: ast.AST, config: TaintConfig = SECRET_CONFIG
) -> FunctionTaint:
    """The intraprocedural facts of one definition, computed once per
    project and ``config``."""
    key = (id(fn), config)
    taint = project.taints.get(key)
    if taint is None:
        taint = project.taints[key] = FunctionTaint(project.info(fn), config)
    return taint


def interproc_taint(project: Project, fn: ast.AST) -> FunctionTaint:
    """The converged interprocedural secret taint of one definition."""
    if project.interproc is None:
        project.interproc = _interproc_fixpoint(project)
    return project.interproc[id(fn)]


def _interproc_fixpoint(project: Project) -> Dict[int, FunctionTaint]:
    infos = project.infos
    taints = {id(i.node): function_taint(project, i.node) for i in infos}
    secret_returning: Set[str] = set()
    seeds: Dict[int, Set[str]] = {}
    # Round 0 is the cached intraprocedural facts; each later round
    # grows from the functions whose facts just changed.
    dirty = infos
    for _ in range(1, _MAX_ROUNDS):
        returning = {
            i.node.name
            for i in dirty
            if i.node.name not in secret_returning
            and _returns_taint(i, taints[id(i.node)])
        }
        grown = _grow_param_seeds(project, dirty, taints, seeds)
        if not returning and not grown:
            break
        secret_returning |= returning
        new_sources = returning - SECRET_CONFIG.declassifier_calls
        config = replace(
            SECRET_CONFIG,
            source_calls=SECRET_CONFIG.source_calls.union(
                secret_returning - SECRET_CONFIG.declassifier_calls
            ),
        )
        dirty = [
            i for i in infos
            if id(i.node) in grown or i.call_names & new_sources
        ]
        for i in dirty:
            key = id(i.node)
            taints[key] = FunctionTaint(i, config, seeds.get(key, ()))
    return taints


def _returns_taint(info: FuncInfo, taint: FunctionTaint) -> bool:
    return any(
        isinstance(n, ast.Return)
        and n.value is not None
        and taint.is_tainted(n.value)
        for n in info.nodes
    )


def _params(fn: Any) -> List[str]:
    a = fn.args
    return [p.arg for p in a.posonlyargs] + [p.arg for p in a.args]


def _grow_param_seeds(
    project: Project,
    infos: List[FuncInfo],
    taints: Dict[int, FunctionTaint],
    seeds: Dict[int, Set[str]],
) -> Set[int]:
    """Seed callee parameters from the tainted arguments of every call
    in ``infos``; returns the ids of the callees whose seeds grew."""
    grown: Set[int] = set()
    for info in infos:
        taint = taints[id(info.node)]
        for call in info.calls:
            callees = project.resolve(call_name(call) or "", info.cls)
            if not callees:
                continue
            tainted_pos = [
                i
                for i, a in enumerate(call.args)
                if not isinstance(a, ast.Starred) and taint.is_tainted(a)
            ]
            tainted_kw = {
                k.arg
                for k in call.keywords
                if k.arg is not None and taint.is_tainted(k.value)
            }
            if not tainted_pos and not tainted_kw:
                continue
            for callee in callees:
                names = _params(callee.node)
                # ``x.f(...)`` never passes the receiver positionally,
                # so a method's ``self`` slot is skipped either way.
                skip = names[:1] in (["self"], ["cls"])
                params = names[1:] if skip else names
                key = id(callee.node)
                have = seeds.setdefault(key, set())
                before = len(have)
                have.update(params[i] for i in tainted_pos if i < len(params))
                have |= tainted_kw & set(names)
                if len(have) != before:
                    grown.add(key)
    return grown
