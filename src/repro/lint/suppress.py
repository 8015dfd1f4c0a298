"""``# oblint:`` comment directives.

Two directive forms, both parsed from end-of-line (or own-line) comments:

* ``# oblint: disable=OBL001 — reason``      suppress rule(s) on this line
  (a reason after an em-dash/hyphen is MANDATORY; a bare disable is
  itself reported as OBL000)
* ``# oblint: public``                        declassify the assigned names

A leakage contract is not a directive: it is the
``@repro.leakage.leaks(...)`` decorator, checked at run time.

An own-line directive applies to the *next code line* (blank lines and
comment-only lines in between are skipped), so long statements can
carry a readable suppression above them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

_DIRECTIVE = re.compile(
    r"#\s*oblint:\s*"
    r"(?P<kind>disable|public)"
    r"(?:\s*=\s*(?P<args>[\w*:,\s]+?))?"
    r"\s*(?:(?:—|–|--|-)\s*(?P<reason>.+))?$"
)


@dataclass
class Directives:
    """All oblint directives of one source file, keyed by line number."""

    #: line -> (rule codes or {"*"}, justification or None)
    disables: Dict[int, Tuple[Set[str], Optional[str]]] = field(
        default_factory=dict
    )
    public_lines: Set[int] = field(default_factory=set)

    def suppresses(self, line: int, rule: str) -> bool:
        entry = self.disables.get(line)
        if entry is None:
            return False
        rules, _ = entry
        return rule in rules or "*" in rules

    def reason_for(self, line: int) -> Optional[str]:
        entry = self.disables.get(line)
        return entry[1] if entry else None


def _is_code(raw: str) -> bool:
    stripped = raw.strip()
    return bool(stripped) and not stripped.startswith("#")


def _next_code_line(lines: List[str], i: int) -> int:
    """The 1-based number of the first code line after line ``i``."""
    j = i + 1
    while j <= len(lines) and not _is_code(lines[j - 1]):
        j += 1
    return j


def parse_directives(text: str) -> Directives:
    """Scan every line of ``text`` for oblint directives."""
    out = Directives()
    lines = text.splitlines()
    for i, raw in enumerate(lines, start=1):
        m = _DIRECTIVE.search(raw)
        if m is None:
            continue
        target = i if _is_code(raw) else _next_code_line(lines, i)
        if m.group("kind") == "disable":
            args = m.group("args") or "*"
            rules = {r.strip() for r in args.split(",") if r.strip()}
            out.disables[target] = (rules or {"*"}, m.group("reason"))
        else:
            out.public_lines.add(target)
    return out
