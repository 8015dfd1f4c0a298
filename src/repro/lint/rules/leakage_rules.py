"""OBL006, OBL007: declared-leakage contract verification.

The contract system (:mod:`repro.leakage`, :mod:`repro.lint.contracts`)
states what each protocol entry point may reveal; these rules check the
``@leaks`` declarations against the code:

* **OBL006 undeclared-leakage** — every call to a plaintext-
  materialising sink (:data:`repro.leakage.SINK_ATOMS`) on *tainted*
  data must sit inside a function whose contract declares the sink's
  atom.  Taint is the interprocedural closure
  (:func:`repro.lint.taint.interproc_taint`), so a secret produced in
  one module and revealed in another is still caught.  Sinks in
  :data:`~repro.leakage.UNCONDITIONAL_SINKS` leak by construction and
  fire regardless of argument taint.
* **OBL007 contract-rot** — every atom a contract declares must be
  *witnessed* by the function: it names a sink primitive itself, calls
  one, or (transitively) calls a function that produces or declares
  it.  An atom nothing in the call closure can produce means the
  contract has rotted — the leak was removed but the declaration
  stayed, silently over-budgeting every plan audit above it.  Unknown
  atoms (outside the closed vocabulary) are reported here too.

Whether a back-end's implementation stays inside its registered
contract is not a lint question: the dispatch table is data, checked
when :mod:`repro.core` is imported
(:func:`repro.leakage.check_backend_table`).
"""

from __future__ import annotations

from typing import FrozenSet, Iterator

from ...leakage import ATOMS, SINK_ATOMS, UNCONDITIONAL_SINKS
from ..contracts import declared_atoms
from ..project import FuncInfo, Project, SourceFile, call_name
from ..registry import Rule, register
from ..taint import interproc_taint
from ..violations import Violation


@register
class UndeclaredLeakageRule(Rule):
    code = "OBL006"
    name = "undeclared-leakage"
    description = (
        "Every reveal / plaintext materialisation of tainted data must "
        "be covered by a declared @leaks contract."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        for fn in src.functions():
            covered = declared_atoms(fn) or frozenset()
            taint = interproc_taint(project, fn)
            for node in project.info(fn).calls:
                name = call_name(node)
                atom = SINK_ATOMS.get(name or "")
                if atom is None or atom in covered:
                    continue
                args = node.args + [k.value for k in node.keywords]
                if name in UNCONDITIONAL_SINKS or any(
                    taint.is_tainted(a) for a in args
                ):
                    # The hint still names the retired comment marker:
                    # tests/golden/lint_findings.json pins the message.
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        f"call to {name}() leaks '{atom}' but the "
                        f"enclosing function {fn.name}() declares no "
                        "such contract (add @leaks(...) or "
                        f"'# oblint: leaks={atom}')",
                    )


def _sinks(info: FuncInfo) -> FrozenSet[str]:
    """Atoms a function produces itself: as a sink primitive, or by
    calling one."""
    names = info.call_names | {info.node.name}
    return frozenset(SINK_ATOMS[n] for n in names if n in SINK_ATOMS)


def _produced(info: FuncInfo) -> FrozenSet[str]:
    """The OBL007 closure fact: atoms a function produces or declares.
    Taint-independent by design — a legitimately annotated wrapper must
    not flag just because the taint engine lost a flow."""
    declared = declared_atoms(info.node) or frozenset()
    return _sinks(info) | declared


@register
class ContractRotRule(Rule):
    code = "OBL007"
    name = "contract-rot"
    description = (
        "Every declared leakage atom must be witnessed by the "
        "function's call closure; an unwitnessed contract over-budgets "
        "the plan audit."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        for fn in src.functions():
            declared = declared_atoms(fn)
            if declared is None:
                continue
            unknown = declared - set(ATOMS)
            for atom in sorted(unknown):
                yield self.make(
                    src, fn.lineno, fn.col_offset,
                    f"unknown leakage atom '{atom}' in {fn.name}()'s "
                    f"contract; the vocabulary is {sorted(ATOMS)} "
                    "(repro.leakage.ATOMS)",
                )
            # Its own sink calls, plus what one resolution of some
            # callee may produce or declare.
            info = project.info(fn)
            witnessed = _sinks(info).union(
                *(
                    project.closure_of_name(name, info.cls, _produced)
                    for name in info.callees
                )
            )
            for atom in sorted((declared - unknown) - witnessed):
                yield self.make(
                    src, fn.lineno, fn.col_offset,
                    f"contract rot: {fn.name}() declares '{atom}' but "
                    "nothing in its call closure can produce it — "
                    "remove the atom or restore the leak's "
                    "implementation",
                )
