"""OBL005: REAL/SIMULATED mode parity of transcript labels.

The SIMULATED back-end must charge the transcript under exactly the
label strings the REAL back-end sends under — PR 3's transcript-parity
tests check this dynamically for the paths a test happens to execute;
this rule checks it structurally for every paired implementation.

Two pairing signals:

* **Branch pairing** — a function containing
  ``if ctx.mode == Mode.SIMULATED: ...`` has its SIMULATED side and its
  REAL side (the ``else`` or, when the branch returns, the rest of the
  block) resolved through the project call graph; the label-literal
  sets must agree.
* **Class pairing** — a mode dispatch whose branches return different
  constructors (``make_ot`` returning ``SoftSpokenExtension`` vs
  ``SimulatedOT``) pairs those classes: every method they share must
  emit the same labels.

Resolution through duck-typed call sites is the project's two-valued
call-graph closure (definite vs possible, see :mod:`repro.lint.project`): a mismatch is reported only
when a label one side *definitely* emits is not even *possibly* emitted
by the other.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..project import Project, SourceFile, direct_labels
from ..registry import Rule, register
from ..taint import mode_branch_kind
from ..violations import Violation


def _terminates(stmts: List[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _constructor_name(stmts: List[ast.stmt]) -> Optional[str]:
    """Class name when the statement list is ``return ClassName(...)``."""
    for stmt in stmts:
        if (
            isinstance(stmt, ast.Return)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
        ):
            name = stmt.value.func.id
            if name[:1].isupper():
                return name
    return None


@register
class ModeParityRule(Rule):
    code = "OBL005"
    name = "mode-parity"
    description = (
        "REAL and SIMULATED implementations of a paired primitive "
        "emit identical transcript label literals."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        for fn in src.functions():
            info = project.info(fn)
            if not any(
                isinstance(n, ast.If) and mode_branch_kind(n.test)
                for n in info.nodes
            ):
                continue  # no mode test in its own body
            for sim, real, node in self._mode_sides(fn):
                pair = self._class_pair(sim, real)
                if pair is not None:
                    yield from self._check_class_pair(
                        src, project, node, *pair
                    )
                    continue
                if not sim or not real:
                    continue
                sd, sp = project.labels_of_statements(sim, info.cls)
                rd, rp = project.labels_of_statements(real, info.cls)
                sim_only = sd - rp
                real_only = rd - sp
                if sim_only or real_only:
                    detail = []
                    if sim_only:
                        detail.append(
                            "SIMULATED-only: " + ", ".join(sorted(sim_only))
                        )
                    if real_only:
                        detail.append(
                            "REAL-only: " + ", ".join(sorted(real_only))
                        )
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "mode branches emit different transcript "
                        "labels (" + "; ".join(detail) + ")",
                    )

    # -- side extraction ------------------------------------------------

    def _mode_sides(
        self, fn: ast.AST
    ) -> Iterator[Tuple[List[ast.stmt], List[ast.stmt], ast.If]]:
        """Yield (simulated_stmts, real_stmts, if_node) per mode test."""
        for block in self._statement_lists(fn):
            for i, stmt in enumerate(block):
                if not isinstance(stmt, ast.If):
                    continue
                kind = mode_branch_kind(stmt.test)
                if kind is None:
                    continue
                branch = stmt.body
                other = list(stmt.orelse)
                if not other and _terminates(branch):
                    other = block[i + 1 :]
                if kind == "simulated":
                    yield branch, other, stmt
                else:
                    yield other, branch, stmt

    @staticmethod
    def _statement_lists(fn: ast.AST) -> Iterator[List[ast.stmt]]:
        stack: List[ast.AST] = [fn]
        while stack:
            node = stack.pop()
            for name in ("body", "orelse", "finalbody"):
                block = getattr(node, name, None)
                if isinstance(block, list) and block:
                    yield block
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                stack.append(child)

    # -- class pairing --------------------------------------------------

    @staticmethod
    def _class_pair(sim, real) -> Optional[Tuple[str, str]]:
        s, r = _constructor_name(sim), _constructor_name(real)
        if s is not None and r is not None and s != r:
            return s, r
        return None

    def _check_class_pair(
        self,
        src: SourceFile,
        project: Project,
        node: ast.If,
        sim_cls: str,
        real_cls: str,
    ) -> Iterator[Violation]:
        sim_methods = project.classes.get(sim_cls, {})
        real_methods = project.classes.get(real_cls, {})
        for name in sorted(set(sim_methods) & set(real_methods)):
            if name.startswith("__"):
                continue
            sd, sp = project.closure(sim_methods[name], direct_labels)
            rd, rp = project.closure(real_methods[name], direct_labels)
            sim_only = sd - rp
            real_only = rd - sp
            if sim_only or real_only:
                detail = []
                if sim_only:
                    detail.append(
                        f"{sim_cls}-only: " + ", ".join(sorted(sim_only))
                    )
                if real_only:
                    detail.append(
                        f"{real_cls}-only: " + ", ".join(sorted(real_only))
                    )
                yield self.make(
                    src, node.lineno, node.col_offset,
                    f"paired back-ends {sim_cls}/{real_cls} disagree "
                    f"on labels of .{name}() ("
                    + "; ".join(detail) + ")",
                )
