"""Project-wide (interprocedural) secret-taint.

The PR-4 taint engine (:mod:`repro.lint.taint`) is per-function: a
secret escaping through a ``return`` or flowing into a callee's
parameter is invisible to it.  This module layers a call-graph fixpoint
on top, reusing :class:`~repro.lint.taint.FunctionTaint` unchanged:

1. **Secret-returning functions.**  A function whose ``return``
   expression is tainted joins the *secret-returning* name set; every
   bare call to such a name then seeds taint at its call sites (the
   name set is merged into ``TaintConfig.source_calls``, so the
   intraprocedural engine picks it up for free).  Declassifier names
   always win — ``reveal_vector`` returns designated-public plaintext
   no matter what its body touches.
2. **Secret parameters.**  When a call site passes a tainted argument,
   the matching parameter of every same-named definition is seeded
   (positional mapping skips ``self``/``cls``; keywords match by
   name) — the interprocedural twin of ``# oblint: secret-params``.

Both facts feed each other, so the whole project iterates to a joint
fixpoint (bounded rounds; the lattice only grows, so early exit on a
quiet round is sound).  Name resolution is bare-name, exactly like the
OBL005 label index — conservative over-approximation under duck-typed
dispatch.

The result is consumed by OBL006 only: enriching OBL001/OBL002 with
these seeds would change findings on the existing tree, and the
intraprocedural rules are deliberately kept stable.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from .project import Project, SourceFile, call_name, walk_shallow
from .taint import SECRET_CONFIG, FunctionTaint

__all__ = ["InterprocTaint", "interproc_taint"]

#: Global fixpoint rounds.  Taint only ever grows, so this bounds the
#: propagation *depth* across function boundaries, not correctness of
#: what is found within it.
_MAX_ROUNDS = 4


def _param_names(fn: ast.AST) -> List[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs] + [p.arg for p in a.args]
    return names


def _skip_self(names: List[str]) -> Tuple[List[str], int]:
    """Drop a leading ``self``/``cls``; returns (names, offset)."""
    if names and names[0] in ("self", "cls"):
        return names[1:], 1
    return names, 0


class InterprocTaint:
    """The joint secret-returning / secret-parameter fixpoint."""

    def __init__(self, project: Project):
        self.project = project
        self._defs: List[Tuple[ast.AST, SourceFile]] = [
            (info.node, info.file)
            for infos in project.functions_by_name.values()
            for info in infos
        ]
        #: bare names whose calls produce secrets
        self.secret_returning: Set[str] = set()
        #: id(fn node) -> parameter names seeded secret from call sites
        self.param_seeds: Dict[int, Set[str]] = {}
        self._taints: Dict[int, FunctionTaint] = {}
        self._fixpoint()

    # -- public view ----------------------------------------------------

    def function_taint(self, fn: ast.AST) -> Optional[FunctionTaint]:
        """The converged taint facts for one definition (None when the
        node is not part of this project — e.g. a lambda)."""
        return self._taints.get(id(fn))

    # -- fixpoint -------------------------------------------------------

    def _config(self):
        extra = self.secret_returning - SECRET_CONFIG.declassifier_calls
        if not extra:
            return SECRET_CONFIG
        return replace(
            SECRET_CONFIG,
            source_calls=SECRET_CONFIG.source_calls | frozenset(extra),
        )

    def _fixpoint(self) -> None:
        for _ in range(_MAX_ROUNDS):
            cfg = self._config()
            self._taints = {
                id(fn): FunctionTaint(
                    fn, src, cfg,
                    tainted=set(self.param_seeds.get(id(fn), ())),
                )
                for fn, src in self._defs
            }
            grew = self._grow_secret_returning()
            grew |= self._grow_param_seeds()
            if not grew:
                break

    def _grow_secret_returning(self) -> bool:
        grew = False
        for fn, _src in self._defs:
            if fn.name in self.secret_returning:
                continue
            taint = self._taints[id(fn)]
            for node in walk_shallow(fn):
                if (
                    isinstance(node, ast.Return)
                    and node.value is not None
                    and taint.is_tainted(node.value)
                ):
                    self.secret_returning.add(fn.name)
                    grew = True
                    break
        return grew

    def _grow_param_seeds(self) -> bool:
        grew = False
        by_name = self.project.functions_by_name
        for fn, _src in self._defs:
            taint = self._taints[id(fn)]
            for node in walk_shallow(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                callees = by_name.get(name or "", [])
                if not callees:
                    continue
                tainted_pos = [
                    i
                    for i, a in enumerate(node.args)
                    if not isinstance(a, ast.Starred)
                    and taint.is_tainted(a)
                ]
                tainted_kw = {
                    k.arg
                    for k in node.keywords
                    if k.arg is not None and taint.is_tainted(k.value)
                }
                if not tainted_pos and not tainted_kw:
                    continue
                # ``x.f(...)`` never passes the receiver positionally,
                # so a method def's ``self`` slot is skipped either way.
                for callee in callees:
                    params, _off = _skip_self(_param_names(callee.node))
                    seeds = self.param_seeds.setdefault(
                        id(callee.node), set()
                    )
                    before = len(seeds)
                    for i in tainted_pos:
                        if i < len(params):
                            seeds.add(params[i])
                    seeds |= tainted_kw & set(_param_names(callee.node))
                    if len(seeds) != before:
                        grew = True
        return grew


def interproc_taint(project: Project) -> InterprocTaint:
    """The per-project singleton (the fixpoint is cached on the
    project object so every rule shares one computation)."""
    cached = getattr(project, "_interproc_taint", None)
    if cached is None:
        cached = InterprocTaint(project)
        project._interproc_taint = cached  # type: ignore[attr-defined]
    return cached
