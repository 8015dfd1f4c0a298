"""The leakage-atom registry and declared-leakage contracts, checked
while a plan runs.

The paper's security argument is compositional: every oblivious phase
leaks nothing beyond declared public sizes, so the pipeline as a whole
leaks nothing.  Since the DH-OPRF linear join landed (docs/BACKENDS.md)
that statement is *conditional on routing* — the linear back-end
deliberately reveals a PRF-pseudonymised join pattern to the parent
owner.  This module is the single machine-readable source of truth for
what each primitive and back-end is *allowed* to leak, and the check
that holds the running code to it:

* :data:`ATOMS` — the closed vocabulary of leakage atoms.  A contract
  may only ever name atoms from this dict; :func:`leaks` and
  :func:`reveals` raise at import time otherwise.
* :func:`leaks` — the contract decorator (``@leaks("join_pattern:parent")``).
  While the function runs it is the innermost *scope*: its atoms are
  the contract every sink it reaches is checked against.
  :meth:`repro.exec.scheduler.Scheduler.run` is ``@leaks()``, so every
  plan run is a scope whose own contract is empty.
* :func:`reveals` — the one-atom decorator of the *sink* primitives,
  the calls that materialise plaintext from protocol state.  A sink
  raises :class:`UndeclaredLeakage` when a scope is active and its
  contract does not declare the sink's atom.  Outside any scope (a
  unit test or a benchmark calling a primitive directly) a sink is
  unchecked.  The decorator is the sink registry.
* :data:`BACKEND_CONTRACTS` — the per-back-end leakage summary the
  plan-level audit composes (:mod:`repro.exec.audit`).
  :func:`check_backend_table` holds the cross-owner dispatch table of
  :mod:`repro.core.semijoin` to it when :mod:`repro.core` is imported:
  one implementation per registered back-end, each declaring exactly
  its back-end's contract.
* :data:`BACKENDS` — the one back-end registry, ``BACKEND_CONTRACTS``'s
  keys in order.  The operator dispatch, the cost estimator, the
  routing policies, the fuzzer and the CLI derive their back-end sets
  from it, so a back-end cannot exist without a declared contract.
  This module imports nothing but the standard library, so every layer
  can read it.

``docs/BACKENDS.md`` embeds :func:`leakage_table` between
``<!-- leakage-table:begin -->`` markers; ``tests/test_lint.py`` pins
doc ↔ registry agreement.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
    cast,
)

__all__ = [
    "ATOMS",
    "BASELINE_ATOMS",
    "BACKEND_CONTRACTS",
    "BACKENDS",
    "UndeclaredLeakage",
    "check_backend_keys",
    "check_backend_table",
    "leaks",
    "reveals",
    "declared_leakage",
    "leakage_table",
]

#: The closed vocabulary.  Key format is ``what:to-whom``.
ATOMS: Dict[str, str] = {
    "join_pattern:parent": (
        "PRF-pseudonymised join pattern revealed to the parent owner: "
        "which of its keys found a partner, and in which sorted token "
        "slot (LINQ/Bifrost relaxation; DH-OPRF linear join only)."
    ),
    "opened:result": (
        "Designated reveal of final or intermediate *result* values to "
        "a party, sanctioned by the query semantics (Section 4: the "
        "output itself is not protected)."
    ),
    "support:result": (
        "Which result slots are non-zero (the support of the output "
        "relation), revealed to drop dangling tuples before the "
        "result is opened."
    ),
}

#: Atoms every query run is allowed by definition — revealing the
#: query *result* (and its support) to the querying party is the
#: functionality, not a leak.  Plan audits subtract these.
BASELINE_ATOMS: FrozenSet[str] = frozenset(
    {"opened:result", "support:result"}
)

#: Per-back-end leakage summary over and above the baseline atoms, one
#: key per join back-end: "yannakakis" is the paper's PSI/OEP protocol,
#: "linear" the LINQ/Bifrost-style DH-OPRF protocol of
#: :mod:`repro.core.linear`.
BACKEND_CONTRACTS: Dict[str, FrozenSet[str]] = {
    "yannakakis": frozenset(),
    "linear": frozenset({"join_pattern:parent"}),
}

#: The selectable join back-ends, in tie-break preference order (the
#: paper's protocol first).  Every other spelling of the set — the
#: dispatch table, the estimator, the routing policies, the fuzzer and
#: the CLI — derives from this one.
BACKENDS: Tuple[str, ...] = tuple(BACKEND_CONTRACTS)

_F = TypeVar("_F", bound=Callable[..., object])

#: The contract of the innermost active :func:`leaks` scope; ``None``
#: outside every scope.
_SCOPE: ContextVar[Optional[FrozenSet[str]]] = ContextVar(
    "leakage_scope", default=None
)


class UndeclaredLeakage(RuntimeError):
    """A sink revealed an atom its innermost active contract does not
    declare: the running code leaks more than it says."""


def _known(atoms: Tuple[str, ...]) -> FrozenSet[str]:
    unknown = [a for a in atoms if a not in ATOMS]
    if unknown:
        raise ValueError(
            f"unknown leakage atom(s) {unknown}; the vocabulary is "
            f"{sorted(ATOMS)} (repro.leakage.ATOMS)"
        )
    return frozenset(atoms)


def _declare(fn: Callable[..., Any], atoms: FrozenSet[str]) -> None:
    fn.__leakage__ = atoms  # type: ignore[attr-defined]


def leaks(*atoms: str) -> Callable[[_F], _F]:
    """Declare a function's leakage contract and make it a scope.

    ``@leaks("join_pattern:parent")`` records that calling the function
    may reveal that atom and nothing else: while it runs, every sink
    (:func:`reveals`) it reaches is checked against these atoms, until
    a nested ``@leaks`` function opens an inner scope of its own.
    Unknown atoms fail fast at import time.
    """
    contract = _known(atoms)

    def wrap(fn: _F) -> _F:
        @functools.wraps(fn)
        def scoped(*args: Any, **kwargs: Any) -> Any:
            token = _SCOPE.set(contract)
            try:
                return fn(*args, **kwargs)
            finally:
                _SCOPE.reset(token)

        _declare(scoped, contract)
        return cast(_F, scoped)

    return wrap


def reveals(atom: str) -> Callable[[_F], _F]:
    """Mark a sink primitive: calling it reveals ``atom``.

    Inside a :func:`leaks` scope whose contract lacks ``atom`` the call
    raises :class:`UndeclaredLeakage` before anything is sent; outside
    every scope it is unchecked.
    """
    declared = _known((atom,))

    def wrap(fn: _F) -> _F:
        @functools.wraps(fn)
        def sink(*args: Any, **kwargs: Any) -> Any:
            contract = _SCOPE.get()
            if contract is not None and atom not in contract:
                raise UndeclaredLeakage(
                    f"{fn.__qualname__}() reveals '{atom}' inside a "
                    f"scope whose contract is {sorted(contract)}; "
                    "declare it with @leaks(...) on the caller"
                )
            return fn(*args, **kwargs)

        _declare(sink, declared)
        return cast(_F, sink)

    return wrap


def declared_leakage(fn: object) -> FrozenSet[str]:
    """The contract attached by :func:`leaks` or :func:`reveals`
    (empty if undeclared)."""
    return getattr(fn, "__leakage__", frozenset())


def check_backend_keys(
    table: Mapping[str, object],
    contracts: Mapping[str, FrozenSet[str]] = BACKEND_CONTRACTS,
    what: str = "the dispatch table",
) -> None:
    """Raise unless ``table`` has one entry per registered back-end:
    a back-end cannot be added to a per-back-end table, or to the
    registry, without the other."""
    if set(table) != set(contracts):
        raise ValueError(
            f"{what} implements {sorted(table)}, but "
            f"BACKEND_CONTRACTS registers {sorted(contracts)}"
        )


def check_backend_table(
    table: Mapping[str, Callable[..., object]],
    contracts: Mapping[str, FrozenSet[str]] = BACKEND_CONTRACTS,
) -> None:
    """Raise unless ``table`` holds one implementation per registered
    back-end and each declares (:func:`declared_leakage`) exactly its
    back-end's contract — so a back-end cannot be added, or an
    implementation widened or left undeclared, without the registry
    saying so."""
    check_backend_keys(table, contracts)
    for backend, impl in table.items():
        declared = declared_leakage(impl)
        if declared != contracts[backend]:
            raise ValueError(
                f"back-end {backend!r}'s implementation "
                f"{getattr(impl, '__name__', impl)}() declares "
                f"{sorted(declared)}, but its contract is "
                f"{sorted(contracts[backend])}"
            )


def leakage_table() -> str:
    """The markdown table docs/BACKENDS.md embeds (machine-generated;
    ``tests/test_lint.py`` pins the doc against this function)."""
    lines = [
        "| back-end | extra leakage (beyond public sizes) |",
        "|---|---|",
    ]
    for backend in sorted(BACKEND_CONTRACTS):
        atoms = sorted(BACKEND_CONTRACTS[backend])
        if atoms:
            cell = "; ".join(
                f"`{a}` — {ATOMS[a].split('(')[0].strip().rstrip('.')}"
                for a in atoms
            )
        else:
            cell = "none (fully oblivious)"
        lines.append(f"| `{backend}` | {cell} |")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    # Regenerate the docs/BACKENDS.md embed:
    #   python -m repro.leakage
    print(leakage_table())
