"""``repro lint`` — obliviousness static analysis.

An AST-based check of the one invariant no run-time check sees:

* **OBL001 secret-taint** — no secret-dependent control flow, indexing,
  or early returns in protocol modules.

The rule reads one file at a time.  What the running system checks
itself is not linted: each send needs a label and is sized from public
shapes, each reveal must sit under a declared ``@leaks`` contract
(:mod:`repro.leakage`), and a seeded run must replay exactly in any
fresh process, which ``tests/test_replay.py`` runs.  See docs/LINTING.md
for the rule (and why OBL002 to OBL008 retired) and the suppression
policy (``# oblint: disable=RULE — reason``).
"""

from .runner import discover_files, lint_sources, run_lint
from .suppress import parse_directives
from .taint import FunctionTaint
from .violations import LintResult, Violation

__all__ = [
    "run_lint",
    "lint_sources",
    "discover_files",
    "parse_directives",
    "FunctionTaint",
    "Violation",
    "LintResult",
]
