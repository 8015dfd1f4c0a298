"""Lint orchestration: file discovery, the rule, suppressions, and the
``repro lint`` sub-command's handler (its arguments are in
:mod:`repro.cli`, which builds every sub-command's parser without
importing the linter).

The run pipeline is::

    discover .py files -> parse (AST + directives) -> run OBL001
    -> drop violations with a justified inline suppression
       (an UNjustified suppression becomes an OBL000 finding)
    -> report; exit 1 on any remaining finding
"""

from __future__ import annotations

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

from . import secret_taint
from .project import SourceFile, parse_source
from .reporters import sarif_report, text_report
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

    The pre-commit fast path: lint only what this commit touches.
    The rule reads one file, so a changed file needs no other file as
    context; CI remains the authoritative full-tree run.

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
) -> Tuple[List[Violation], int]:
    """Run the rule; returns (violations, n_suppressed).

    Inline ``# oblint: disable`` directives are honoured here; a
    suppression without a justification is converted into an OBL000
    finding so silencing a rule always costs an explicit reason.
    """
    raw: List[Violation] = list(extra_violations)
    for src in sources:
        raw.extend(secret_taint.check_file(src))

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
    paths: Sequence[str], root: Optional[Path] = None
) -> LintResult:
    """The full pipeline over ``paths``; see module docstring."""
    files = discover_files(paths)
    sources, parse_errors = load_sources(files, root=root)
    violations, suppressed = lint_sources(
        sources, extra_violations=parse_errors
    )
    return LintResult(
        violations=violations,
        suppressed=suppressed,
        files_checked=len(sources),
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def cmd_lint(args) -> int:
    paths = args.paths
    if args.changed:
        changed = git_changed_files()
        if not changed:
            print("0 violations (no changed .py files)")
            return 0
        paths = [str(p) for p in changed]
    result = run_lint(paths)
    if args.format == "sarif":
        print(sarif_report(result))
    else:
        print(text_report(result))
    return 0 if result.ok else 1

