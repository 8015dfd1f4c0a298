"""Structural guards over the source tree as a whole."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_no_module_binds_a_top_level_name_twice():
    """A second top-level ``def``/``class`` of a name silently replaces
    the first (mypy's ``no-redef``): every module defines each name
    once."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        names = Counter(
            node.name
            for node in ast.parse(path.read_text()).body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        )
        offenders += [
            (str(path.relative_to(SRC)), name)
            for name, count in names.items()
            if count > 1
        ]
    assert offenders == []
