"""The leakage-atom registry and declared-leakage contracts.

The paper's security argument is compositional: every oblivious phase
leaks nothing beyond declared public sizes, so the pipeline as a whole
leaks nothing.  Since the DH-OPRF linear join landed (docs/BACKENDS.md)
that statement is *conditional on routing* — the linear back-end
deliberately reveals a PRF-pseudonymised join pattern to the parent
owner.  This module is the single machine-readable source of truth for
what each primitive and back-end is *allowed* to leak:

* :data:`ATOMS` — the closed vocabulary of leakage atoms.  A contract
  may only ever name atoms from this dict; :func:`leaks` raises at
  import time otherwise, and the lint rules (OBL006, OBL007) reject
  unknown atoms statically.
* :func:`leaks` — the contract decorator every function that reveals
  protocol data carries (``@leaks("join_pattern:parent")``).
* :data:`SINK_ATOMS` — which callee names *materialise* plaintext, and
  which atom each one witnesses.  The lint taint engine treats a call
  to one of these on tainted data as a leakage event that must be
  covered by the enclosing function's contract (OBL006).
* :data:`BACKEND_CONTRACTS` — the per-back-end leakage summary the
  plan-level audit composes (:mod:`repro.exec.audit`).
  :func:`check_backend_table` holds the cross-owner dispatch table of
  :mod:`repro.core.semijoin` to it when :mod:`repro.core` is imported:
  one implementation per registered back-end, none declaring more
  than its back-end's contract.
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

from typing import Callable, Dict, FrozenSet, Mapping, Tuple, TypeVar

__all__ = [
    "ATOMS",
    "BASELINE_ATOMS",
    "BACKEND_CONTRACTS",
    "BACKENDS",
    "SINK_ATOMS",
    "UNCONDITIONAL_SINKS",
    "check_backend_table",
    "leaks",
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

#: Callee names that materialise plaintext from protocol state, and
#: the atom each call witnesses.  The lint rules flag a call to one of
#: these with *tainted* arguments unless the enclosing function's
#: contract declares the atom (OBL006).
SINK_ATOMS: Dict[str, str] = {
    "reveal": "opened:result",
    "reveal_vector": "opened:result",
    "reconstruct_column": "opened:result",
    "divide_reveal": "opened:result",
    "reveal_nonzero_flags": "support:result",
    "dh_oprf_match": "join_pattern:parent",
}

#: Sinks that leak *by construction*, independent of argument taint:
#: ``dh_oprf_match`` reveals the match pattern to the parent owner even
#: though its inputs are each owner's own plaintext keys.
UNCONDITIONAL_SINKS: FrozenSet[str] = frozenset({"dh_oprf_match"})

_F = TypeVar("_F", bound=Callable[..., object])


def leaks(*atoms: str) -> Callable[[_F], _F]:
    """Declare a function's leakage contract.

    ``@leaks("join_pattern:parent")`` records that calling the function
    may reveal that atom (and nothing else beyond the contracts of its
    callees).  Unknown atoms fail fast at import time; the lint rules
    additionally verify the contract against the function body
    (OBL006/OBL007).
    """
    unknown = [a for a in atoms if a not in ATOMS]
    if unknown:
        raise ValueError(
            f"unknown leakage atom(s) {unknown}; the vocabulary is "
            f"{sorted(ATOMS)} (repro.leakage.ATOMS)"
        )

    def mark(fn: _F) -> _F:
        fn.__leakage__ = frozenset(atoms)  # type: ignore[attr-defined]
        return fn

    return mark


def declared_leakage(fn: object) -> FrozenSet[str]:
    """The contract attached by :func:`leaks` (empty if undeclared)."""
    return getattr(fn, "__leakage__", frozenset())


def check_backend_table(
    table: Mapping[str, Callable[..., object]],
    contracts: Mapping[str, FrozenSet[str]] = BACKEND_CONTRACTS,
) -> None:
    """Raise unless ``table`` holds one implementation per registered
    back-end and each declares (:func:`declared_leakage`) nothing
    beyond its back-end's contract — so a back-end cannot be added, or
    an implementation widened, without the registry saying so."""
    if set(table) != set(contracts):
        raise ValueError(
            f"the dispatch table implements {sorted(table)}, but "
            f"BACKEND_CONTRACTS registers {sorted(contracts)}"
        )
    for backend, impl in table.items():
        excess = sorted(declared_leakage(impl) - contracts[backend])
        if excess:
            raise ValueError(
                f"back-end {backend!r}'s implementation "
                f"{getattr(impl, '__name__', impl)}() declares {excess} "
                f"beyond its contract {sorted(contracts[backend])}"
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
