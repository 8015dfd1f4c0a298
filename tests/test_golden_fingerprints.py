"""Golden transcript fingerprints.

"Fingerprints byte-identical" is the contract every data-plane or
performance change must keep.  This test pins it: each run below is
hashed as the SHA-256 of its transcript fingerprint (sender, size and
label of every message) plus its sorted result rows, and the digests
must equal ``tests/golden/fingerprints.json``.  Beside each digest the
file pins the run's *shape*: the SHA-256 of its ``(sender, label)``
sequence with its message and round counts — everything but the sizes.
A change that only resizes messages moves digests and no shape.

The TPC-H runs are Q3, Q10, Q18 and Q8 at 0.3 MB and Q9 on nations
0-1, each under every join back-end and under both owner splits (as
written, and with every relation's owner swapped), SIMULATED, at a
fixed seed.  The ``example_11`` runs (the paper's running example,
``tests/test_protocol.py``) cover every owner split, the two-phase
ablation order and a shared run padded to 8 rows; ``tests/test_exec.py``
checks them, the REAL run included.  The ``chain_query`` run
(``tests/test_backends.py``) is the one whose ``auto`` plan routes
nodes to both back-ends, which no TPC-H query does at 0.3 MB.

After a *deliberate* wire or plan change, print the diff (shapes
first) and rewrite the file with::

    PYTHONPATH=src python -m tests.test_golden_fingerprints --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden" / "fingerprints.json"

SCALE_MB = 0.3
SEED = 11
Q9_NATIONS = [0, 1]
QUERIES = ["Q3", "Q10", "Q18", "Q8", "Q9"]
BACKENDS = ["yannakakis", "linear", "auto"]
SPLITS = {"as_written": False, "swapped": True}

TPCH_RUNS = [
    f"{q}/{b}/{s}" for q in QUERIES for b in BACKENDS for s in SPLITS
]


def example_run(variant: str, owners) -> str:
    """The run name of ``example_11`` under ``variant`` and ``owners``:
    ``{"R1": ALICE, "R2": BOB, "R3": ALICE}`` is split ``ABA``."""
    split = "".join(owner[0].upper() for owner in owners.values())
    return f"example_11/{variant}/{split}"


def _example_runs():
    from repro.mpc import ALICE, BOB

    from .test_protocol import OWNER_SPLITS

    cases = [("reduce_first", o) for o in OWNER_SPLITS] + [
        ("two_phase", {"R1": BOB, "R2": ALICE, "R3": BOB}),
        ("shared_pad8", OWNER_SPLITS[0]),
    ]
    return {example_run(v, o): (v, o) for v, o in cases}


#: run name -> (variant, owners)
EXAMPLE_RUNS = _example_runs()
#: ``chain_query`` as written (owners ABA) under ``auto``: a mixed route
MIXED_RUNS = ["chain_query/auto/ABA"]
RUNS = TPCH_RUNS + list(EXAMPLE_RUNS) + MIXED_RUNS


def _tpch_run(dataset, run: str):
    from repro.mpc import Engine, Mode
    from repro.tpch.queries import PREPARED, prepare_q9

    name, backend, split = run.split("/")
    flip = SPLITS[split]
    if name == "Q9":
        query = prepare_q9(dataset, nations=Q9_NATIONS, flip_owners=flip)
    else:
        query = PREPARED[name](dataset, flip_owners=flip)
    engine = Engine(query.make_context(Mode.SIMULATED, seed=SEED))
    engine.backend = backend
    result, _ = query.run_secure(engine)
    rows = sorted(
        json.dumps([list(t), int(v)], default=int) for t, v in result
    )
    return engine.ctx.transcript, rows


def _example_run(run: str, mode):
    from repro.core import (
        SecureRelation,
        secure_yannakakis,
        secure_yannakakis_shared,
    )
    from repro.mpc import Context, Engine
    from repro.relalg import Hypergraph, find_free_connex_tree
    from repro.relalg.columns import is_dummy_tuple
    from repro.yannakakis import build_plan, build_two_phase_plan

    from .test_protocol import example_11

    variant, owners = EXAMPLE_RUNS[run]
    rels = example_11()
    tree = find_free_connex_tree(
        Hypergraph({n: r.attributes for n, r in rels.items()}), {"cls"}
    )
    build = build_two_phase_plan if variant == "two_phase" else build_plan
    plan = build(tree, ("cls",))
    engine = Engine(Context(mode, seed=SEED))
    inputs = {
        n: SecureRelation.from_annotated(owners[n], r)
        for n, r in rels.items()
    }
    if variant == "shared_pad8":
        # Shared annotations are random shares and padding rows carry
        # fresh nonces: pin the real rows and the padded row count.
        shared = secure_yannakakis_shared(engine, inputs, plan, pad_out_to=8)
        rows = sorted(
            "dummy" if is_dummy_tuple(t) else json.dumps(list(t))
            for t in shared.tuples
        )
    else:
        result, _ = secure_yannakakis(engine, inputs, plan)
        rows = sorted(
            json.dumps([list(t), int(v)], default=int) for t, v in result
        )
    return engine.ctx.transcript, rows


def mixed_query():
    """The query of the :data:`MIXED_RUNS` entry."""
    from .test_backends import chain_query

    return chain_query()


def _mixed_run():
    from repro.mpc import Context, Engine, Mode

    engine = Engine(Context(Mode.SIMULATED, seed=SEED))
    engine.backend = "auto"
    result, _ = mixed_query().run_secure(engine)
    rows = sorted(
        json.dumps([list(t), int(v)], default=int) for t, v in result
    )
    return engine.ctx.transcript, rows


def run_transcript(run: str, dataset=None, mode=None):
    """One run's transcript and sorted result rows.  TPC-H runs need
    the generated ``dataset``; ``example_11`` runs take a ``mode``
    (SIMULATED by default)."""
    from repro.mpc import Mode

    if run.startswith("example_11/"):
        return _example_run(run, mode or Mode.SIMULATED)
    if run in MIXED_RUNS:
        return _mixed_run()
    return _tpch_run(dataset, run)


def digest_of(transcript, rows) -> str:
    """SHA-256 of a transcript fingerprint and a sorted result."""
    fingerprint = [list(m) for m in transcript.fingerprint()]
    blob = json.dumps([fingerprint, rows], default=int)
    return hashlib.sha256(blob.encode()).hexdigest()


def shape_of(transcript) -> dict:
    """A transcript apart from its sizes: the SHA-256 of its ``(sender,
    label)`` sequence, its message count and its round count."""
    pattern = [[m.sender, m.label] for m in transcript.messages]
    return {
        "sha256": hashlib.sha256(json.dumps(pattern).encode()).hexdigest(),
        "messages": len(transcript.messages),
        "rounds": transcript.rounds,
    }


def run_digest(run: str, dataset=None, mode=None) -> str:
    """SHA-256 of one run's transcript fingerprint and sorted result."""
    return digest_of(*run_transcript(run, dataset, mode))


def load_golden():
    blob = json.loads(GOLDEN.read_text())
    assert (blob["scale_mb"], blob["seed"], blob["q9_nations"]) == (
        SCALE_MB, SEED, Q9_NATIONS,
    )
    assert sorted(blob["runs"]) == sorted(blob["shapes"]) == sorted(RUNS)
    return blob


@pytest.fixture(scope="module")
def dataset():
    from repro.tpch import generate

    return generate(SCALE_MB)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


#: run name -> (digest, shape), each run executed once per session
_SEEN = {}


def _observed(run, dataset):
    if run not in _SEEN:
        transcript, rows = run_transcript(run, dataset)
        _SEEN[run] = digest_of(transcript, rows), shape_of(transcript)
    return _SEEN[run]


def test_mixed_run_routes_both_backends():
    from repro.leakage import BACKENDS

    routes = mixed_query().backend_assignments("auto")
    assert sorted(set(routes.values())) == sorted(BACKENDS)


@pytest.mark.parametrize("run", TPCH_RUNS + MIXED_RUNS)
def test_fingerprint_matches_golden(run, dataset, golden):
    assert _observed(run, dataset)[0] == golden["runs"][run], (
        f"{run}'s transcript or result moved; if deliberate, run "
        "`python -m tests.test_golden_fingerprints --regen`"
    )


@pytest.mark.parametrize("run", RUNS)
def test_shape_matches_golden(run, dataset, golden):
    """Senders, labels, message and round counts: a wire-size change
    leaves every one of these where it was."""
    assert _observed(run, dataset)[1] == golden["shapes"][run], (
        f"{run}'s message sequence moved (not only its sizes)"
    )


if __name__ == "__main__":  # pragma: no cover
    import sys

    from repro.tpch import generate

    if "--regen" not in sys.argv:
        sys.exit("usage: python -m tests.test_golden_fingerprints --regen")
    data = generate(SCALE_MB)
    seen = {run: run_transcript(run, data) for run in RUNS}
    runs = {run: digest_of(*seen[run]) for run in RUNS}
    shapes = {run: shape_of(seen[run][0]) for run in RUNS}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for key, new_values in (("shapes", shapes), ("runs", runs)):
        old_values = old.get(key, {})
        changed = [r for r in RUNS if old_values.get(r) != new_values[r]]
        for run in changed:
            was, now = old_values.get(run), new_values[run]
            if key == "shapes" and was:
                was, now = (
                    f"{s['messages']} messages / {s['rounds']} rounds"
                    for s in (was, now)
                )
            print(f"{key} {run}: {was} -> {now}")
        print(f"{len(changed)} of {len(RUNS)} {key} changed")
    new = {
        "scale_mb": SCALE_MB,
        "seed": SEED,
        "q9_nations": Q9_NATIONS,
        "runs": runs,
        "shapes": shapes,
    }
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
