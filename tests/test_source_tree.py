"""Structural guards over the source tree as a whole."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules that decode pickles (``shelve`` stores them).
_PICKLERS = ("pickle", "_pickle", "cPickle", "shelve")


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


def test_no_pickle_in_src():
    """No module imports or calls ``pickle``: a journal holds public
    positions and a resume replays, so no byte string from disk or
    socket is ever unpickled."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if any(n.split(".")[0] in _PICKLERS for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
