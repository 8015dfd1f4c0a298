"""``# oblint:`` comment directives.

Four directive forms, all parsed from end-of-line (or own-line) comments:

* ``# oblint: disable=OBL001 — reason``      suppress rule(s) on this line
  (a reason after an em-dash/hyphen is MANDATORY; a bare disable is
  itself reported as OBL000)
* ``# oblint: secret``                        taint the assigned names
* ``# oblint: public``                        declassify the assigned names
* ``# oblint: secret-params=x,y``             taint listed parameters of
  the enclosing function (place inside the function, typically on the
  docstring line or first statement)

A leakage contract is not a directive: it is the
``@repro.leakage.leaks(...)`` decorator, checked at run time.

An own-line directive applies to the *next* code line, so long
statements can carry a readable suppression above them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

_DIRECTIVE = re.compile(
    r"#\s*oblint:\s*"
    r"(?P<kind>disable|secret-params|secret|public)"
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
    secret_lines: Set[int] = field(default_factory=set)
    public_lines: Set[int] = field(default_factory=set)
    #: line -> parameter names declared secret
    secret_params: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    def suppresses(self, line: int, rule: str) -> bool:
        entry = self.disables.get(line)
        if entry is None:
            return False
        rules, _ = entry
        return rule in rules or "*" in rules

    def reason_for(self, line: int) -> Optional[str]:
        entry = self.disables.get(line)
        return entry[1] if entry else None


def parse_directives(text: str) -> Directives:
    """Scan every line of ``text`` for oblint directives."""
    out = Directives()
    lines = text.splitlines()
    for i, raw in enumerate(lines, start=1):
        m = _DIRECTIVE.search(raw)
        if m is None:
            continue
        # Own-line directives annotate the next code line.
        target = i
        if raw.lstrip().startswith("#"):
            target = i + 1
        kind = m.group("kind")
        args = m.group("args")
        reason = m.group("reason")
        if kind == "disable":
            rules = {
                r.strip() for r in (args or "*").split(",") if r.strip()
            }
            out.disables[target] = (rules or {"*"}, reason)
        elif kind == "secret":
            out.secret_lines.add(target)
        elif kind == "public":
            out.public_lines.add(target)
        elif kind == "secret-params":
            names = tuple(
                n.strip() for n in (args or "").split(",") if n.strip()
            )
            if names:
                out.secret_params[target] = names
    return out
