"""Differential query fuzzer + data-obliviousness transcript auditor.

The randomized safety net behind the ROADMAP's "refactor freely"
stance: seeded random free-connex join-aggregate instances are executed
through the full secure pipeline (SIMULATED plus sampled REAL mode) and
compared against the plaintext oracles, while a transcript auditor
machine-checks the paper's obliviousness claim on value-disjoint
database twins.  See ``docs/TESTING.md``.
"""

from .corpus import default_corpus_dir, iter_corpus, save_instance
from .generator import (
    GeneratorConfig,
    QueryInstance,
    TINY_CONFIG,
    generate_instance,
    value_disjoint_twin,
)
from .runner import (
    FuzzFailure,
    FuzzReport,
    audit_leakage,
    audit_obliviousness,
    check_instance,
    fuzz,
    minimize_instance,
    replay_file,
    run_differential,
    save_failure,
)

__all__ = [
    "GeneratorConfig",
    "TINY_CONFIG",
    "QueryInstance",
    "generate_instance",
    "value_disjoint_twin",
    "FuzzFailure",
    "FuzzReport",
    "audit_leakage",
    "audit_obliviousness",
    "check_instance",
    "fuzz",
    "minimize_instance",
    "replay_file",
    "run_differential",
    "save_failure",
    "default_corpus_dir",
    "iter_corpus",
    "save_instance",
]
