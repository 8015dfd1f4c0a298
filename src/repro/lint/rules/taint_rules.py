"""OBL001 secret-taint and OBL002 channel discipline.

Both rules run the shared taint engine (:mod:`repro.lint.taint`) seeded
with :data:`~repro.lint.taint.SECRET_CONFIG` over every function of the
protocol directories.

* **OBL001** flags secret-dependent *control flow*: an ``if``/``while``/
  ternary/comprehension condition, an ``assert``, a ``match`` subject,
  or a subscript index computed from secret data.  Any of these makes
  the statement stream — and therefore timing, communication order, or
  an exception — depend on private values.  Blocks dominated by
  ``mode == Mode.SIMULATED`` are exempt (the simulation computes the
  functionality on cleartext; its transcript is charged from public
  shapes only).
* **OBL002** flags channel-discipline breaks: a metered ``send`` whose
  byte count is tainted (length leakage), a send without a non-empty
  label, any message-construction that bypasses the metered
  ``Context.send``/``Transcript.send`` path, and — outside the
  sanctioned channel implementations — any direct
  ``*.transcript.send(...)`` call, which would skip the session
  framing layer (:mod:`repro.runtime.session`) that supplies sequence
  numbers, checksums and fault handling.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..project import Project, SourceFile, call_name, label_arg_of
from ..registry import Rule, register
from ..taint import (
    SECRET_CONFIG,
    FunctionTaint,
    simulated_exempt_ranges,
)
from ..violations import Violation


def _protocol_functions(src: SourceFile):
    for fn in src.functions():
        yield fn, FunctionTaint(fn, src, SECRET_CONFIG)


def _in_ranges(line: int, ranges: List[Tuple[int, int]]) -> bool:
    return any(lo <= line <= hi for lo, hi in ranges)


@register
class SecretTaintRule(Rule):
    code = "OBL001"
    name = "secret-taint"
    description = (
        "No secret-dependent control flow, indexing, or early "
        "returns in protocol modules."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        # Per file, not per function: a nested ``ideal`` thunk is also
        # analysed on its own, away from the call that marks it.
        exempt = simulated_exempt_ranges(src.tree)
        for fn, taint in _protocol_functions(src):
            if not taint.tainted and not self._has_inline_sources(fn):
                # Fast path: nothing seeded, nothing to flag.
                continue
            yield from self._check_fn(src, fn, taint, exempt)

    @staticmethod
    def _has_inline_sources(fn: ast.AST) -> bool:
        """Could an expression be tainted without any tainted name?
        (source calls / source attrs used inline)"""
        cfg = SECRET_CONFIG
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and (
                node.attr in cfg.source_attrs
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and call_name(node) in cfg.source_calls
            ):
                return True
        return False

    def _check_fn(self, src, fn, taint, exempt):
        for node in ast.walk(fn):
            line = getattr(node, "lineno", 0)
            if line and _in_ranges(line, exempt):
                continue
            if isinstance(node, (ast.If, ast.While)):
                if taint.is_tainted(node.test):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "secret-dependent branch condition "
                        "(control flow must be data-oblivious)",
                    )
            elif isinstance(node, ast.IfExp):
                if taint.is_tainted(node.test):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "secret-dependent conditional expression",
                    )
            elif isinstance(node, ast.Assert):
                if taint.is_tainted(node.test):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "assertion on secret data (raises "
                        "data-dependently)",
                    )
            elif isinstance(node, ast.Subscript):
                if taint.is_tainted(node.slice):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "secret-dependent index (memory access "
                        "pattern leaks; route through OEP)",
                    )
            elif isinstance(node, ast.Match):
                if taint.is_tainted(node.subject):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "secret-dependent match subject",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    if any(taint.is_tainted(i) for i in gen.ifs):
                        yield self.make(
                            src, node.lineno, node.col_offset,
                            "secret-dependent comprehension filter "
                            "(result length leaks)",
                        )
                        break


#: Modules allowed to touch the raw channel: the metered transcript
#: itself, the context router (which hands off to the session when one
#: is enabled), and the session framing layer — the single sanctioned
#: wrapper around ``Transcript.send``.  Everything else must call
#: ``ctx.send`` so framed delivery cannot be bypassed.
SANCTIONED_CHANNEL_IMPLS = (
    "mpc/transcript.py",
    "mpc/context.py",
    "runtime/session.py",
)


@register
class ChannelDisciplineRule(Rule):
    code = "OBL002"
    name = "channel-discipline"
    description = (
        "All cross-party bytes go through labelled Context.send / "
        "Transcript.send with an untainted byte count; only the "
        "sanctioned channel implementations touch the raw transcript."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        sanctioned = src.path.endswith(SANCTIONED_CHANNEL_IMPLS)
        for fn, taint in _protocol_functions(src):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name == "send":
                    yield from self._check_send(src, node, taint)
                    if not sanctioned and self._is_raw_transcript_send(
                        node
                    ):
                        yield self.make(
                            src, node.lineno, node.col_offset,
                            "direct Transcript.send bypasses the "
                            "session framing layer (sequence numbers, "
                            "checksums, fault handling); call "
                            "ctx.send instead",
                        )
                elif not sanctioned and self._bypasses_channel(node):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "message constructed outside the metered "
                        "Context.send/Transcript.send channel",
                    )

    @staticmethod
    def _is_raw_transcript_send(node: ast.Call) -> bool:
        """``transcript.send(...)`` or ``<expr>.transcript.send(...)``."""
        if not isinstance(node.func, ast.Attribute):
            return False
        recv = node.func.value
        if isinstance(recv, ast.Name):
            return recv.id == "transcript"
        return isinstance(recv, ast.Attribute) and (
            recv.attr == "transcript"
        )

    def _check_send(self, src, node: ast.Call, taint):
        label = label_arg_of(node)
        if label is None:
            yield self.make(
                src, node.lineno, node.col_offset,
                "send without a label (every message must be "
                "attributable to a protocol section)",
            )
        elif isinstance(label, ast.Constant) and label.value == "":
            yield self.make(
                src, node.lineno, node.col_offset,
                "send with an empty label",
            )
        n_bytes = self._n_bytes_arg(node)
        if n_bytes is not None and taint.is_tainted(n_bytes):
            yield self.make(
                src, node.lineno, node.col_offset,
                "byte count of a metered send is secret-tainted "
                "(message length would leak private data)",
            )

    @staticmethod
    def _n_bytes_arg(node: ast.Call) -> Optional[ast.expr]:
        for k in node.keywords:
            if k.arg == "n_bytes":
                return k.value
        if len(node.args) >= 2:
            return node.args[1]
        return None

    @staticmethod
    def _bypasses_channel(node: ast.Call) -> bool:
        name = call_name(node)
        if name == "Message":
            return True
        if name == "append" and isinstance(node.func, ast.Attribute):
            inner = node.func.value
            return (
                isinstance(inner, ast.Attribute)
                and inner.attr == "messages"
            )
        return False
