"""OBL001 secret-taint.

The rule reads the intraprocedural secret facts
(:class:`repro.lint.taint.FunctionTaint`) of every function of the
protocol directories, and flags secret-dependent *control flow*: an
``if``/``while``/ternary/comprehension condition, an ``assert``, a
``match`` subject, or a subscript index computed from secret data.  Any
of these makes the statement stream — and therefore timing,
communication order, or an exception — depend on private values.
Blocks dominated by ``mode == Mode.SIMULATED`` are exempt (the
simulation computes the functionality on cleartext; its transcript is
charged from public shapes only).

This is a side channel no transcript check sees.  What the transcript
itself carries is held by run-time checks instead: every send is
labelled (:meth:`repro.mpc.transcript.Transcript.send`) and sized from
public shapes (:class:`repro.mpc.context.Checked`), and every reveal
sits under a declared contract (:mod:`repro.leakage`).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple, Union

from .project import SourceFile, call_name
from .taint import (
    SOURCE_ATTRS,
    SOURCE_CALLS,
    FunctionTaint,
    simulated_exempt_ranges,
)
from .violations import Violation

CODE = "OBL001"
NAME = "secret-taint"
DESCRIPTION = (
    "No secret-dependent control flow, indexing, or early returns in "
    "protocol modules."
)


def _in_ranges(line: int, ranges: List[Tuple[int, int]]) -> bool:
    return any(lo <= line <= hi for lo, hi in ranges)


def check_file(src: SourceFile) -> Iterator[Violation]:
    """Every OBL001 finding of one file."""
    if not src.in_protocol_dirs:
        return
    # Per file, not per function: a nested ``ideal`` thunk is also
    # analysed on its own, away from the call that marks it.
    exempt = simulated_exempt_ranges(src.tree)
    for fn in src.functions():
        taint = FunctionTaint(fn, src)
        if not taint.tainted and not _has_inline_sources(fn):
            # Fast path: nothing seeded, nothing to flag.
            continue
        for node, message in _sinks(fn, taint):
            if not _in_ranges(node.lineno, exempt):
                yield Violation(
                    rule=CODE,
                    path=src.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                    snippet=src.snippet(node.lineno),
                )


def _has_inline_sources(fn: ast.AST) -> bool:
    """Could an expression be tainted without any tainted name?
    (source calls / source attrs used inline)"""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr in SOURCE_ATTRS:
            return True
        if isinstance(node, ast.Call) and call_name(node) in SOURCE_CALLS:
            return True
    return False


def _sinks(
    fn: ast.AST, taint: FunctionTaint
) -> Iterator[Tuple[Union[ast.stmt, ast.expr], str]]:
    """``(node, message)`` of every condition, index or filter of ``fn``
    that the secret facts reach."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.If, ast.While)):
            if taint.is_tainted(node.test):
                yield node, (
                    "secret-dependent branch condition "
                    "(control flow must be data-oblivious)"
                )
        elif isinstance(node, ast.IfExp):
            if taint.is_tainted(node.test):
                yield node, "secret-dependent conditional expression"
        elif isinstance(node, ast.Assert):
            if taint.is_tainted(node.test):
                yield node, (
                    "assertion on secret data (raises data-dependently)"
                )
        elif isinstance(node, ast.Subscript):
            if taint.is_tainted(node.slice):
                yield node, (
                    "secret-dependent index (memory access "
                    "pattern leaks; route through OEP)"
                )
        elif isinstance(node, ast.Match):
            if taint.is_tainted(node.subject):
                yield node, "secret-dependent match subject"
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            if any(
                taint.is_tainted(i) for gen in node.generators for i in gen.ifs
            ):
                yield node, (
                    "secret-dependent comprehension filter "
                    "(result length leaks)"
                )
