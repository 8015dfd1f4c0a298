"""Static extraction of declared-leakage contracts.

A function declares its leakage with the runtime decorator
``@repro.leakage.leaks("atom", ...)``, read *syntactically* from the
AST so fixtures and partial trees lint without importing the code
under analysis.

``declared_atoms`` distinguishes "no contract" (``None``) from an
explicit empty contract (``@leaks()`` → ``frozenset()``): the former
means the function has made no statement about its leakage, the latter
asserts it is leak-free.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional

from .project import call_name

__all__ = ["declared_atoms"]


def declared_atoms(fn: ast.AST) -> Optional[FrozenSet[str]]:
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
