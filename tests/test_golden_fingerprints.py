"""Golden transcript fingerprints of the five TPC-H queries.

"Fingerprints byte-identical" is the contract every data-plane or
performance change must keep.  This test pins it: each run below is
hashed as the SHA-256 of its transcript fingerprint (sender, size and
label of every message) plus its sorted result rows, and the digests
must equal ``tests/golden/fingerprints.json``.

The runs are Q3, Q10, Q18 and Q8 at 0.3 MB and Q9 on nations 0-1,
each under every join back-end and under both owner splits (as
written, and with every relation's owner swapped), SIMULATED, at a
fixed seed.

After a *deliberate* wire or plan change, print the diff and rewrite
the file with::

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

RUNS = [
    f"{q}/{b}/{s}" for q in QUERIES for b in BACKENDS for s in SPLITS
]


def run_digest(dataset, run: str) -> str:
    """SHA-256 of one run's transcript fingerprint and sorted result."""
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
    fingerprint = [list(m) for m in engine.ctx.transcript.fingerprint()]
    blob = json.dumps([fingerprint, rows], default=int)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def dataset():
    from repro.tpch import generate

    return generate(SCALE_MB)


@pytest.fixture(scope="module")
def golden():
    blob = json.loads(GOLDEN.read_text())
    assert (blob["scale_mb"], blob["seed"], blob["q9_nations"]) == (
        SCALE_MB, SEED, Q9_NATIONS,
    )
    assert sorted(blob["runs"]) == sorted(RUNS)
    return blob["runs"]


@pytest.mark.parametrize("run", RUNS)
def test_fingerprint_matches_golden(run, dataset, golden):
    assert run_digest(dataset, run) == golden[run], (
        f"{run}'s transcript or result moved; if deliberate, run "
        "`python -m tests.test_golden_fingerprints --regen`"
    )


if __name__ == "__main__":  # pragma: no cover
    import sys

    from repro.tpch import generate

    if "--regen" not in sys.argv:
        sys.exit("usage: python -m tests.test_golden_fingerprints --regen")
    data = generate(SCALE_MB)
    runs = {run: run_digest(data, run) for run in RUNS}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    old_runs = old.get("runs", {})
    changed = [run for run in RUNS if old_runs.get(run) != runs[run]]
    for run in changed:
        print(f"{run}: {old_runs.get(run)} -> {runs[run]}")
    new = {
        "scale_mb": SCALE_MB,
        "seed": SEED,
        "q9_nations": Q9_NATIONS,
        "runs": runs,
    }
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    print(f"{len(changed)} of {len(RUNS)} runs changed; wrote {GOLDEN}")
