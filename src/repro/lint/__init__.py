"""``repro lint`` — obliviousness static analysis.

An AST-based framework with repo-specific rules enforcing, at author
time, the invariants no run-time check sees:

* **OBL001 secret-taint** — no secret-dependent control flow, indexing,
  or early returns in protocol modules.
* **OBL003 randomness-discipline** — protocol randomness comes from the
  context RNG, never global ``random``/``np.random``/OS entropy.
* **OBL004 label-determinism** — no wall-clock, set-order, or ``id()``
  values in transcript labels or trace fingerprints.

Every rule reads one file at a time.  What the running system checks
itself is not linted: each send needs a label and is sized from public
shapes, and each reveal must sit under a declared ``@leaks`` contract
(:mod:`repro.leakage`).  See docs/LINTING.md for the rule catalogue
(and why OBL002, OBL005, OBL006, OBL007 and OBL008 retired) and the
suppression policy (``# oblint: disable=RULE — reason``).
"""

from .registry import Rule, all_rules, register
from .runner import discover_files, lint_sources, run_lint
from .suppress import parse_directives
from .taint import NONDET_CONFIG, SECRET_CONFIG, FunctionTaint, function_taint
from .violations import LintResult, Violation

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "run_lint",
    "lint_sources",
    "discover_files",
    "parse_directives",
    "FunctionTaint",
    "function_taint",
    "SECRET_CONFIG",
    "NONDET_CONFIG",
    "Violation",
    "LintResult",
]
