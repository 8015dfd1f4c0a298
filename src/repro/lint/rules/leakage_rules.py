"""OBL006–OBL008: declared-leakage contract verification.

The contract system (:mod:`repro.leakage`, :mod:`repro.lint.contracts`)
states what each protocol entry point may reveal; these rules check the
declarations against the code:

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
* **OBL008 backend-contract-parity** — a dispatch branch on a back-end
  name (``if backend == "linear":``, the names being the keys of the
  ``BACKEND_CONTRACTS`` registry in :mod:`repro.leakage`) must not call
  an implementation whose contract declares leakage beyond that
  back-end's registered contract — so adding a back-end cannot
  silently widen what a routed plan leaks.  The registry is read from
  the analysed file set, which keeps single-file fixtures hermetic;
  the rule skips when no registry is present (partial-tree runs).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

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
        "be covered by a declared leakage contract (@leaks or "
        "'# oblint: leaks=')."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        for fn in src.functions():
            covered = declared_atoms(fn, src) or frozenset()
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
    declared = declared_atoms(info.node, info.file) or frozenset()
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
            declared = declared_atoms(fn, src)
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


@register
class BackendContractParityRule(Rule):
    code = "OBL008"
    name = "backend-contract-parity"
    description = (
        "No dispatch branch on a back-end name may call an "
        "implementation whose contract exceeds that back-end's "
        "registered leakage (BACKEND_CONTRACTS)."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        contracts = project.backend_contracts
        if not src.in_protocol_dirs or not contracts:
            return  # partial tree: no registry to check against
        for fn in src.functions():
            yield from self._check_dispatch(src, project, fn, contracts)

    def _check_dispatch(
        self,
        src: SourceFile,
        project: Project,
        fn: ast.AST,
        contracts: Dict[str, FrozenSet[str]],
    ) -> Iterator[Violation]:
        backend_names = set(contracts)
        for node in project.info(fn).nodes:
            if not isinstance(node, ast.If):
                continue
            backend = _backend_test(node.test, backend_names)
            if backend is None:
                continue
            yield from self._check_branch(
                src, project, node.body, backend, contracts[backend]
            )
            # The else branch serves the remaining back-ends; a
            # further backend-test If inside it is handled by its own
            # iteration, so only plain else bodies are attributed here.
            rest = backend_names - {backend}
            if rest and node.orelse and not (
                len(node.orelse) == 1
                and isinstance(node.orelse[0], ast.If)
                and _backend_test(node.orelse[0].test, backend_names)
            ):
                rest_allowed = frozenset.intersection(
                    *(contracts[b] for b in rest)
                )
                label = "/".join(sorted(rest))
                yield from self._check_branch(
                    src, project, node.orelse, label, rest_allowed
                )

    def _check_branch(
        self,
        src: SourceFile,
        project: Project,
        stmts: List[ast.stmt],
        backend: str,
        allowed: FrozenSet[str],
    ) -> Iterator[Violation]:
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                cname = call_name(node)
                if cname is None:
                    continue
                for info in project.resolve(cname):
                    declared = declared_atoms(info.node, info.file)
                    if declared is None:
                        continue
                    excess = sorted(declared - allowed)
                    if excess:
                        yield self.make(
                            src, node.lineno, node.col_offset,
                            f"back-end '{backend}' dispatch calls "
                            f"{cname}() whose contract adds {excess} "
                            "beyond the registered contract "
                            f"{sorted(allowed)} — update "
                            "BACKEND_CONTRACTS or fix the "
                            "implementation",
                        )


def _backend_test(
    test: ast.expr, backend_names: Set[str]
) -> Optional[str]:
    """``<expr> == "linear"`` (either side) for a registered name."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
    ):
        return None
    for side in (test.left, test.comparators[0]):
        if isinstance(side, ast.Constant) and side.value in backend_names:
            return side.value
    return None
