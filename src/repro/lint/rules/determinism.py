"""OBL004: determinism of transcript labels and trace fingerprints.

The obliviousness audit compares transcripts across runs and across
twin databases byte-for-byte, and the execution tracer fingerprints
operator streams.  A wall-clock timestamp, an ``id()``-derived token,
``os.getpid()``, or the iteration order of a set flowing into a
*label* (or a fingerprint input) makes two identical runs look
different and poisons every downstream parity check.

The rule taints from nondeterminism sources
(:data:`~repro.lint.taint.NONDET_CONFIG`) and flags label arguments of
``send``/``section`` calls — and arguments of ``fingerprint`` calls —
that carry taint.  ``sorted(...)`` launders set order back to
deterministic.  Timing *measurements* are fine (they feed reported
seconds, never labels).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..project import Project, SourceFile, call_name, label_arg_of
from ..registry import Rule, register
from ..taint import NONDET_CONFIG, function_taint
from ..violations import Violation


@register
class DeterminismRule(Rule):
    code = "OBL004"
    name = "label-determinism"
    description = (
        "No wall-clock, set-order, or id()-derived values in "
        "transcript labels or trace fingerprints."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        for fn in src.functions():
            taint = function_taint(project, fn, NONDET_CONFIG)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                label = label_arg_of(node)
                if label is not None and taint.is_tainted(label):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "nondeterministic value flows into a "
                        "transcript label (breaks run-to-run and "
                        "twin-to-twin transcript parity)",
                    )
                elif name == "fingerprint" and any(
                    taint.is_tainted(a) for a in node.args
                ):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        "nondeterministic value flows into a trace "
                        "fingerprint",
                    )
