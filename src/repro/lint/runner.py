"""Lint orchestration: file discovery, rule dispatch, suppressions,
and the ``repro lint`` sub-command (its arguments and handler).

The run pipeline is::

    discover .py files -> parse (AST + directives) -> run every rule
    -> drop violations with a justified inline suppression
       (an UNjustified suppression becomes an OBL000 finding)
    -> report; exit 1 on any remaining finding
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .project import Project, SourceFile, parse_source
from .registry import all_rules
from .reporters import json_report, sarif_report, text_report
from .violations import LintResult, Violation

#: Directory names never descended into.
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".pytest_cache",
    "build",
    "dist",
}


def discover_files(paths: Sequence[str]) -> List[Path]:
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if not _SKIP_DIRS & set(part for part in f.parts)
            )
        elif p.suffix == ".py":
            out.append(p)
    return out


def git_changed_files(
    root: Optional[Path] = None,
    runner: Optional[Callable[[Sequence[str]], str]] = None,
) -> List[Path]:
    """``.py`` files changed vs HEAD (staged + unstaged + untracked).

    The pre-commit fast path: lint only what this commit touches
    (``cmd_lint`` still feeds the full tree in as cross-file
    *context*, so OBL005/OBL008 and the interprocedural taint resolve
    correctly); CI remains the authoritative full-tree run.

    ``runner`` is injectable for tests; it receives an argv list and
    returns the command's stdout.
    """
    root = root or Path.cwd()

    if runner is None:
        def runner(argv: Sequence[str]) -> str:
            return subprocess.run(
                list(argv), cwd=root, check=True,
                capture_output=True, text=True,
            ).stdout

    out: List[Path] = []
    seen = set()
    for argv in (
        ["git", "diff", "--name-only", "--diff-filter=d", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        for line in runner(argv).splitlines():
            name = line.strip()
            if not name.endswith(".py") or name in seen:
                continue
            seen.add(name)
            p = root / name
            if p.is_file():
                out.append(p)
    return sorted(out)


def load_sources(
    files: Iterable[Path], root: Optional[Path] = None
) -> Tuple[List[SourceFile], List[Violation]]:
    """Parse every file; unparseable files become OBL000 findings."""
    root = root or Path.cwd()
    sources: List[SourceFile] = []
    errors: List[Violation] = []
    for f in files:
        try:
            rel = f.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = f.as_posix()
        try:
            text = f.read_text(encoding="utf-8")
            sources.append(parse_source(rel, text))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            errors.append(
                Violation(
                    rule="OBL000",
                    path=rel,
                    line=getattr(exc, "lineno", None) or 1,
                    col=0,
                    message=f"cannot analyse file: {exc}",
                    snippet="",
                )
            )
    return sources, errors


def lint_sources(
    sources: List[SourceFile],
    extra_violations: Sequence[Violation] = (),
    select: Optional[Sequence[str]] = None,
    context: Optional[Sequence[SourceFile]] = None,
) -> Tuple[List[Violation], int]:
    """Run every (selected) rule; returns (violations, n_suppressed).

    Inline ``# oblint: disable`` directives are honoured here; a
    suppression without a justification is converted into an OBL000
    finding so silencing a rule always costs an explicit reason.

    ``context`` adds files to the cross-file project index (call
    graph, label parity, contract registry) *without* linting them —
    the ``--changed`` fast path lints only a commit's files but still
    resolves against the whole tree.
    """
    project_sources = list(sources)
    if context:
        have = {s.path for s in project_sources}
        project_sources += [s for s in context if s.path not in have]
    project = Project(project_sources)
    rules = all_rules()
    if select:
        wanted = set(select)
        rules = [r for r in rules if r.code in wanted]
    raw: List[Violation] = list(extra_violations)
    for src in sources:
        for rule in rules:
            raw.extend(rule.check_file(src, project))

    kept: List[Violation] = []
    suppressed = 0
    flagged_missing_reason = set()
    by_path = {s.path: s for s in sources}
    for v in sorted(raw, key=lambda v: (v.path, v.line, v.rule)):
        src = by_path.get(v.path)
        if src is not None and src.directives.suppresses(v.line, v.rule):
            if src.directives.reason_for(v.line):
                suppressed += 1
                continue
            key = (v.path, v.line)
            if key not in flagged_missing_reason:
                flagged_missing_reason.add(key)
                kept.append(
                    Violation(
                        rule="OBL000",
                        path=v.path,
                        line=v.line,
                        col=v.col,
                        message=(
                            "suppression without a justification "
                            "(write '# oblint: disable=RULE — why')"
                        ),
                        snippet=src.snippet(v.line),
                    )
                )
            continue
        kept.append(v)
    return kept, suppressed


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
    context_paths: Optional[Sequence[str]] = None,
) -> LintResult:
    """The full pipeline over ``paths``; see module docstring.

    ``context_paths`` feed the cross-file index without being linted
    (see :func:`lint_sources`).
    """
    files = discover_files(paths)
    sources, parse_errors = load_sources(files, root=root)
    context: Optional[List[SourceFile]] = None
    if context_paths:
        context, _ = load_sources(
            discover_files(context_paths), root=root
        )
    violations, suppressed = lint_sources(
        sources, extra_violations=parse_errors, select=select,
        context=context,
    )
    return LintResult(
        violations=violations,
        suppressed=suppressed,
        files_checked=len(sources),
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def add_lint_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
    )
    p.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p.add_argument(
        "--changed", action="store_true",
        help="lint only .py files changed vs HEAD (pre-commit mode)",
    )
    p.add_argument(
        "--plan", default=None, metavar="FILE",
        help="audit a serialised ExecPlan's composed leakage instead "
        "of linting source files",
    )
    p.add_argument(
        "--allow", action="append", default=None, metavar="ATOM",
        help="leakage atom the --plan audit may accept (repeatable)",
    )


def cmd_audit_plan(args) -> int:
    """``repro lint --plan FILE [--allow ATOM]...`` — plan audit."""
    # Imported here: the audit pulls in the (numpy-backed) exec layer,
    # which plain source linting never needs.
    from ..exec.audit import audit_plan
    from ..exec.ir import ExecPlan

    plan = ExecPlan.loads(Path(args.plan).read_text())
    allow = frozenset(args.allow or ())
    report = audit_plan(plan)
    if args.format == "json":
        print(json.dumps(report.to_json(allow), indent=2))
    else:
        name = report.plan_name or args.plan
        print(f"plan {name}: leakage summary "
              f"{sorted(report.summary) or '{}'}")
        for line in report.violations(allow):
            print(f"  FAIL {line}")
    return 0 if report.ok(allow) else 1


def cmd_lint(args) -> int:
    rules = all_rules()
    if args.list_rules:
        for r in rules:
            print(f"{r.code} [{r.name}] {r.description}")
        return 0
    if args.plan:
        return cmd_audit_plan(args)
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    paths = args.paths
    context_paths: Optional[List[str]] = None
    if args.changed:
        changed = git_changed_files()
        if not changed:
            print("0 violations (no changed .py files)")
            return 0
        # Lint only the commit's files, but resolve cross-file rules
        # (label parity, call graph, contract registry) against the
        # full tree they will be merged into.
        context_paths = list(args.paths)
        paths = [str(p) for p in changed]
    result = run_lint(paths, select=select, context_paths=context_paths)
    if args.format == "json":
        print(json_report(result, rules))
    elif args.format == "sarif":
        print(sarif_report(result, rules))
    else:
        print(text_report(result, rules))
    return 0 if result.ok else 1

