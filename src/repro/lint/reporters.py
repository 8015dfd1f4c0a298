"""Text and SARIF reporters for lint results."""

from __future__ import annotations

import json

from . import secret_taint
from .violations import LintResult


def text_report(result: LintResult) -> str:
    lines = [v.format() for v in result.violations]
    by_rule: dict = {}
    for v in result.violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    summary = (
        f"{len(result.violations)} violation"
        f"{'s' if len(result.violations) != 1 else ''} "
        f"({result.files_checked} files, "
        f"{result.suppressed} suppressed)"
    )
    if by_rule:
        summary += "  [" + ", ".join(
            f"{code}: {n}" for code, n in sorted(by_rule.items())
        ) + "]"
    lines.append(summary)
    return "\n".join(lines)


#: SARIF 2.1.0 — the schema GitHub code scanning ingests via
#: ``github/codeql-action/upload-sarif``.
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def sarif_report(result: LintResult) -> str:
    """Serialise findings as a single-run SARIF 2.1.0 log.

    :meth:`Violation.fingerprint` is the SARIF partial fingerprint, so
    code-scanning alert identity is line-number-free.
    """
    run = {
        "tool": {
            "driver": {
                "name": "oblint",
                "informationUri": "docs/LINTING.md",
                "rules": [
                    {
                        "id": secret_taint.CODE,
                        "name": secret_taint.NAME,
                        "shortDescription": {
                            "text": secret_taint.DESCRIPTION
                        },
                    }
                ],
            }
        },
        "results": [
            {
                "ruleId": v.rule,
                "level": "error",
                "message": {"text": v.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": v.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": v.line,
                                "startColumn": v.col + 1,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "oblint/v1": v.fingerprint()
                },
            }
            for v in result.violations
        ],
    }
    return json.dumps(
        {
            "$schema": _SARIF_SCHEMA,
            "version": "2.1.0",
            "runs": [run],
        },
        indent=2,
    )

