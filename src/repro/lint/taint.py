"""Secret-taint propagation over the AST.

The sources are share arrays and OT outputs, and OBL001 asks whether a
secret reaches a branch or an index.  Per function the analysis is a
flow-insensitive fixpoint over local variable names — deliberately
conservative and simple (a name tainted anywhere in the function stays
tainted) with three escape hatches that keep the false-positive rate
workable: shape-reading attributes (``.shape``, ``.nbytes``) are clean,
declassifier calls (``reveal*``, designated reveals) are clean, and
``# oblint: public`` clears the assigned names.  The analysis is intraprocedural: what a reveal may
open is checked while the plan runs (:mod:`repro.leakage`), not here.

Code dominated by an ``if ctx.mode == Mode.SIMULATED:`` test — and the
``ideal=`` thunk of a ``garbled_call``, which that seam evaluates in
SIMULATED mode only — is exempt from *control-flow* sinks: the simulated
back-end legitimately computes the functionality on cleartext while the
transcript is charged from public shapes only (see DESIGN.md,
"Execution modes").
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Set, Tuple

from .project import SourceFile, call_name, walk_shallow

__all__ = [
    "FunctionTaint",
    "dotted_name",
    "mode_branch_kind",
    "simulated_exempt_ranges",
]

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


#: Seeds for the obliviousness rule: calls producing secret values.
#: ``reconstruct`` is a source (the cleartext of shared data).
SOURCE_CALLS: FrozenSet[str] = frozenset(
    {
        "to_shared",
        "reconstruct",
        "transfer",
        # the C-OT entry point: the batch carries the sender's
        # pads, ``finish`` returns the receiver's messages
        "correlated",
        "finish",
    }
)
#: Attribute loads that ARE the secret (``x.alice`` share arrays).
SOURCE_ATTRS: FrozenSet[str] = frozenset({"alice", "bob"})
#: Calls whose result is clean even on tainted input: the ``reveal*``
#: family and the decoded outputs of a garbled batch are *designated
#: reveals*, public by protocol design.
DECLASSIFIER_CALLS: FrozenSet[str] = frozenset(
    {
        "len",
        "reveal",
        "reveal_vector",
        "reveal_nonzero_flags",
        "divide_reveal",
        "garbled_call",
    }
)
#: Attribute reads that expose only public shape.
SHAPE_ATTRS: FrozenSet[str] = frozenset(
    {"shape", "size", "nbytes", "ndim", "dtype"}
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


class FunctionTaint:
    """Taint facts for one function definition: the names its own body
    (nested definitions excluded) propagates secrets into."""

    def __init__(self, fn: ast.AST, src: SourceFile) -> None:
        self.fn = fn
        self.src = src
        self.tainted: Set[str] = set()
        self._fixpoint()

    # -- propagation ----------------------------------------------------

    def _fixpoint(self) -> None:
        stmts = [n for n in walk_shallow(self.fn) if isinstance(n, ast.stmt)]
        for _ in range(10):
            before = len(self.tainted)
            for stmt in stmts:
                self._transfer(stmt)
            if len(self.tainted) == before:
                break

    def _transfer(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            names = set()
            for t in targets:
                names |= _target_names(t)
            if stmt.lineno in self.src.directives.public_lines:
                self.tainted -= names
                return
            value = getattr(stmt, "value", None)
            if value is not None and self.is_tainted(value):
                self.tainted |= names
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self.is_tainted(stmt.iter):
                self.tainted |= _target_names(stmt.target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None and self.is_tainted(
                    item.context_expr
                ):
                    self.tainted |= _target_names(item.optional_vars)

    # -- expression taint ----------------------------------------------

    def is_tainted(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted
        if isinstance(expr, ast.Attribute):
            if expr.attr in SHAPE_ATTRS:
                return False
            if expr.attr in SOURCE_ATTRS:
                return True
            return self.is_tainted(expr.value)
        if isinstance(expr, ast.Call):
            name = call_name(expr)
            if name in DECLASSIFIER_CALLS:
                return False
            if name in SOURCE_CALLS:
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
                if self.is_tainted(gen.iter):
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

