"""Static extraction of declared-leakage contracts.

A function declares its leakage either with the runtime decorator
``@repro.leakage.leaks("atom", ...)`` or — where a decorator cannot be
placed (a branch of a dispatcher, a closure) — with a
``# oblint: leaks=atom[,atom]`` comment marker inside the function body
(:mod:`repro.lint.suppress`).  Both forms are read *syntactically* from
the AST/comments, so fixtures and partial trees lint without importing
the code under analysis.

``declared_atoms`` distinguishes "no contract" (``None``) from an
explicit empty contract (``@leaks()`` → ``frozenset()``): the former
means the function has made no statement about its leakage, the latter
asserts it is leak-free.
"""

from __future__ import annotations

import ast
from typing import Any, FrozenSet, Optional

from .project import SourceFile, call_name, walk_shallow

__all__ = ["declared_atoms", "decorator_atoms", "marker_atoms"]


def decorator_atoms(fn: ast.AST) -> Optional[FrozenSet[str]]:
    """Atoms of a ``@leaks(...)`` decorator on ``fn`` (None if absent).

    Only string-literal arguments are honoured — a computed contract is
    invisible to static checking and therefore treated as undeclared.
    """
    for dec in getattr(fn, "decorator_list", []):
        if isinstance(dec, ast.Call) and call_name(dec) == "leaks":
            return frozenset(
                a.value
                for a in dec.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            )
        if isinstance(dec, ast.Name) and dec.id == "leaks":
            return frozenset()  # bare @leaks: explicit empty contract
    return None


def marker_atoms(fn: Any, src: SourceFile) -> Optional[FrozenSet[str]]:
    """Atoms of ``# oblint: leaks=`` markers inside ``fn``'s own body
    (markers inside nested definitions belong to the nested def)."""
    lo = fn.lineno
    hi = fn.end_lineno or lo
    marked = [line for line in src.directives.leaks if lo <= line <= hi]
    if not marked:
        return None
    nested = [
        (child.lineno, child.end_lineno or child.lineno)
        for child in walk_shallow(fn)
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    found = None
    for line in marked:
        if any(nlo <= line <= nhi for nlo, nhi in nested):
            continue
        found = (found or frozenset()) | frozenset(src.directives.leaks[line])
    return found


def declared_atoms(
    fn: ast.AST, src: SourceFile
) -> Optional[FrozenSet[str]]:
    """The full declared contract of ``fn`` — decorator atoms unioned
    with comment-marker atoms; ``None`` when neither form is present."""
    dec = decorator_atoms(fn)
    mark = marker_atoms(fn, src)
    if dec is None and mark is None:
        return None
    return (dec or frozenset()) | (mark or frozenset())
