"""``repro lint`` — obliviousness & channel-discipline static analysis.

An AST-based framework with repo-specific rules enforcing, at author
time, the structural invariants the transcript auditor (PR 2) checks
dynamically:

* **OBL001 secret-taint** — no secret-dependent control flow, indexing,
  or early returns in protocol modules.
* **OBL002 channel-discipline** — every cross-party byte flow goes
  through labelled ``Context.send``/``Transcript.send``, with an
  untainted byte count (no length leakage).
* **OBL003 randomness-discipline** — protocol randomness comes from the
  context RNG, never global ``random``/``np.random``/OS entropy.
* **OBL004 label-determinism** — no wall-clock, set-order, or ``id()``
  values in transcript labels or trace fingerprints.
* **OBL006 undeclared-leakage** — every reveal of tainted data (via
  the interprocedural taint closure) is covered by a declared
  ``@repro.leakage.leaks`` contract.
* **OBL007 contract-rot** — every declared atom is witnessed by the
  function's call closure.

See docs/LINTING.md for the rule catalogue (and why OBL005 and OBL008
retired), the suppression policy (``# oblint: disable=RULE — reason``)
and the contract vocabulary.
"""

from .contracts import declared_atoms
from .registry import Rule, all_rules, register
from .runner import discover_files, lint_sources, run_lint
from .suppress import parse_directives
from .taint import (
    NONDET_CONFIG,
    SECRET_CONFIG,
    FunctionTaint,
    function_taint,
    interproc_taint,
)
from .violations import LintResult, Violation

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "run_lint",
    "lint_sources",
    "discover_files",
    "parse_directives",
    "declared_atoms",
    "FunctionTaint",
    "function_taint",
    "interproc_taint",
    "SECRET_CONFIG",
    "NONDET_CONFIG",
    "Violation",
    "LintResult",
]
