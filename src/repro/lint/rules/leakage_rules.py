"""OBL006–OBL008: declared-leakage contract verification.

The contract system (:mod:`repro.leakage`, :mod:`repro.lint.contracts`)
states what each protocol entry point may reveal; these rules check the
declarations against the code:

* **OBL006 undeclared-leakage** — every call to a plaintext-
  materialising sink (:data:`repro.leakage.SINK_ATOMS`) on *tainted*
  data must sit inside a function whose contract declares the sink's
  atom.  Taint is the interprocedural closure
  (:mod:`repro.lint.interproc`), so a secret produced in one module and
  revealed in another is still caught.  Sinks in
  :data:`~repro.leakage.UNCONDITIONAL_SINKS` leak by construction and
  fire regardless of argument taint.
* **OBL007 contract-rot** — every atom a contract declares must be
  *witnessed* by the function: it names a sink primitive itself, calls
  one, or (transitively) calls a function that does.  An atom nothing
  in the call closure can produce means the contract has rotted — the
  leak was removed but the declaration stayed, silently over-budgeting
  every plan audit above it.  Unknown atoms (outside the closed
  vocabulary) are reported here too.
* **OBL008 backend-contract-parity** — the back-ends registered at an
  IR dispatch point (the ``BACKENDS`` tuple in
  :mod:`repro.core.semijoin`) must each have an entry in the statically
  parseable ``BACKEND_CONTRACTS`` registry, and the implementation a
  dispatch branch calls must not declare leakage beyond its back-end's
  registered contract — so adding a back-end cannot silently widen
  what a routed plan leaks.  Both literals are read from the analysed
  file set, which keeps single-file fixtures hermetic; the rule skips
  when no registry is present (partial-tree runs).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ...leakage import ATOMS, SINK_ATOMS, UNCONDITIONAL_SINKS
from ..contracts import declared_atoms
from ..interproc import interproc_taint
from ..project import (
    FuncInfo,
    Project,
    SourceFile,
    call_name,
    walk_shallow,
)
from ..registry import Rule, register
from ..taint import FunctionTaint
from ..violations import Violation

_MAX_DEPTH = 10


def _sink_args_tainted(
    taint: Optional[FunctionTaint], node: ast.Call
) -> bool:
    if taint is None:
        return False
    return any(taint.is_tainted(a) for a in node.args) or any(
        taint.is_tainted(k.value) for k in node.keywords
    )


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
        engine = interproc_taint(project)
        for fn in src.functions():
            covered = declared_atoms(fn, src) or frozenset()
            taint = engine.function_taint(fn)
            for node in walk_shallow(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                atom = SINK_ATOMS.get(name or "")
                if atom is None or atom in covered:
                    continue
                if name in UNCONDITIONAL_SINKS or _sink_args_tainted(
                    taint, node
                ):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        f"call to {name}() leaks '{atom}' but the "
                        f"enclosing function {fn.name}() declares no "
                        "such contract (add @leaks(...) or "
                        f"'# oblint: leaks={atom}')",
                    )


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
            witnessed = _witness_closure(project, fn, src)
            for atom in sorted((declared - unknown) - witnessed):
                yield self.make(
                    src, fn.lineno, fn.col_offset,
                    f"contract rot: {fn.name}() declares '{atom}' but "
                    "nothing in its call closure can produce it — "
                    "remove the atom or restore the leak's "
                    "implementation",
                )


def _witness_memo(project: Project) -> Dict[int, FrozenSet[str]]:
    cached = getattr(project, "_witness_memo", None)
    if cached is None:
        cached = {}
        project._witness_memo = cached  # type: ignore[attr-defined]
    return cached


def _witness_closure(
    project: Project,
    fn: ast.AST,
    src: SourceFile,
    cls: Optional[str] = None,
    _depth: int = 0,
) -> FrozenSet[str]:
    """Atoms ``fn`` can produce: its own name as a sink primitive,
    direct sink calls, and the witnessed-or-declared atoms of resolved
    callees.  Taint-independent by design — a legitimately annotated
    wrapper must not flag just because the taint engine lost a flow."""
    memo = _witness_memo(project)
    key = id(fn)
    if key in memo:
        return memo[key]
    if _depth > _MAX_DEPTH:
        return frozenset()
    memo[key] = frozenset()  # in-progress marker breaks cycles
    atoms: Set[str] = set()
    name = getattr(fn, "name", None)
    if name in SINK_ATOMS:
        atoms.add(SINK_ATOMS[name])
    callees: Set[str] = set()
    for node in walk_shallow(fn):
        if isinstance(node, ast.Call):
            cname = call_name(node)
            if cname in SINK_ATOMS:
                atoms.add(SINK_ATOMS[cname])
            if cname is not None:
                callees.add(cname)
    class_ns = project.classes.get(cls or "", {})
    for cname in callees:
        for info in _resolve(project, cname, class_ns):
            atoms |= _witness_closure(
                project, info.node, info.file, info.cls, _depth + 1
            )
            atoms |= declared_atoms(info.node, info.file) or frozenset()
    result = frozenset(atoms)
    memo[key] = result
    return result


def _resolve(
    project: Project, name: str, class_ns: Dict[str, FuncInfo]
) -> List[FuncInfo]:
    if name in class_ns:
        return [class_ns[name]]
    infos = project.functions_by_name.get(name, [])
    if infos:
        return infos
    init = project.classes.get(name, {}).get("__init__")
    return [init] if init is not None else []


# ----------------------------------------------------------------------
# OBL008 — back-end contract parity at the IR dispatch point
# ----------------------------------------------------------------------


def _parse_registry(project: Project):
    """(backends, contracts) literals from the analysed file set.

    ``backends``: list of (src, lineno, tuple-of-names) for every
    module-level ``BACKENDS = ("...", ...)``.  ``contracts``: the
    merged ``BACKEND_CONTRACTS`` dict (name -> frozenset of atoms), or
    None when no registry is in the file set.
    """
    cached = getattr(project, "_backend_registry", None)
    if cached is not None:
        return cached
    backends = []
    contracts: Optional[Dict[str, FrozenSet[str]]] = None
    for f in project.files:
        for stmt in f.tree.body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                continue
            target = stmt.targets[0].id
            if target == "BACKENDS":
                names = _str_elements(stmt.value)
                if names is not None:
                    backends.append((f, stmt.lineno, tuple(names)))
            elif target == "BACKEND_CONTRACTS":
                parsed = _parse_contracts_dict(stmt.value)
                if parsed is not None:
                    contracts = dict(contracts or {})
                    contracts.update(parsed)
    cached = (backends, contracts)
    project._backend_registry = cached  # type: ignore[attr-defined]
    return cached


def _str_elements(expr: ast.expr) -> Optional[List[str]]:
    if not isinstance(expr, (ast.Tuple, ast.List)):
        return None
    out = []
    for e in expr.elts:
        if not (isinstance(e, ast.Constant) and isinstance(e.value, str)):
            return None
        out.append(e.value)
    return out


def _parse_contracts_dict(
    expr: ast.expr,
) -> Optional[Dict[str, FrozenSet[str]]]:
    if not isinstance(expr, ast.Dict):
        return None
    out: Dict[str, FrozenSet[str]] = {}
    for k, v in zip(expr.keys, expr.values):
        if not (isinstance(k, ast.Constant) and isinstance(k.value, str)):
            return None
        atoms = _frozenset_literal(v)
        if atoms is None:
            return None
        out[k.value] = atoms
    return out


def _frozenset_literal(expr: ast.expr) -> Optional[FrozenSet[str]]:
    """``frozenset()`` / ``frozenset({...})`` of string constants."""
    if not (
        isinstance(expr, ast.Call) and call_name(expr) == "frozenset"
    ):
        return None
    if not expr.args:
        return frozenset()
    inner = expr.args[0]
    elems = None
    if isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
        elems = inner.elts
    if elems is None:
        return None
    out = set()
    for e in elems:
        if not (isinstance(e, ast.Constant) and isinstance(e.value, str)):
            return None
        out.add(e.value)
    return frozenset(out)


@register
class BackendContractParityRule(Rule):
    code = "OBL008"
    name = "backend-contract-parity"
    description = (
        "Back-ends registered at an IR dispatch point (BACKENDS) must "
        "have matching BACKEND_CONTRACTS entries, and no dispatch "
        "branch may call an implementation whose contract exceeds its "
        "back-end's registered leakage."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        backends, contracts = _parse_registry(project)
        if contracts is None:
            return  # partial tree: no registry to check against
        all_names: Set[str] = set()
        for bsrc, lineno, names in backends:
            all_names |= set(names)
            if bsrc is not src:
                continue
            missing = sorted(set(names) - set(contracts))
            if missing:
                yield self.make(
                    src, lineno, 0,
                    f"back-end(s) {missing} registered in BACKENDS "
                    "have no BACKEND_CONTRACTS entry (every back-end "
                    "must declare its leakage model)",
                )
            extra = sorted(set(contracts) - set(names))
            if extra:
                yield self.make(
                    src, lineno, 0,
                    f"BACKEND_CONTRACTS declares back-end(s) {extra} "
                    "not registered in BACKENDS (stale registry "
                    "entry)",
                )
        if not all_names:
            return
        for fn in src.functions():
            yield from self._check_dispatch(
                src, project, fn, all_names, contracts
            )

    def _check_dispatch(
        self,
        src: SourceFile,
        project: Project,
        fn: ast.AST,
        backend_names: Set[str],
        contracts: Dict[str, FrozenSet[str]],
    ) -> Iterator[Violation]:
        for node in walk_shallow(fn):
            if not isinstance(node, ast.If):
                continue
            backend = _backend_test(node.test, backend_names)
            if backend is None:
                continue
            allowed = contracts.get(backend, frozenset())
            yield from self._check_branch(
                src, project, node.body, backend, allowed
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
                    *(contracts.get(b, frozenset()) for b in rest)
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
                for info in _resolve(
                    project, cname, {}
                ):
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
