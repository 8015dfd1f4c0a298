"""Violation records and stable fingerprints.

A :class:`Violation` pins one finding to a file/line; its
:meth:`~Violation.fingerprint` deliberately excludes the line *number*
(hashing the rule, path, and source snippet instead) so a SARIF alert
keeps its identity across unrelated edits that shift code up or down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    """One static-analysis finding."""

    rule: str  #: rule code, e.g. ``"OBL001"``
    path: str  #: repo-relative posix path
    line: int  #: 1-based line number
    col: int  #: 0-based column
    message: str
    #: The stripped source line, part of the fingerprint.
    snippet: str = ""

    def fingerprint(self) -> str:
        """Line-number-independent identity (SARIF partial fingerprint)."""
        raw = f"{self.rule}|{self.path}|{self.snippet}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} {self.message}"
        )


@dataclass
class LintResult:
    """Outcome of one lint run, after suppressions."""

    violations: list = field(default_factory=list)
    suppressed: int = 0  #: silenced by justified inline directives
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations
