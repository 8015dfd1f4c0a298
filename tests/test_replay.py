"""Seeded runs replay, in the process that ran them and in any fresh one.

The golden transcripts (``tests/golden/fingerprints.json``) and the
obliviousness audit compare runs byte for byte, so a run must be a
function of its seed and its inputs alone.  These tests run the replay.
Within one process, a prepared TPC-H query run twice under one seed and
every ownership split of Example 1.1 run twice must build the same
shares.  Across processes, two fresh interpreters, one under
``PYTHONHASHSEED=0`` and one under ``=1``, each compute

* every golden run's digest and shape, which must equal the golden
  file's (a wall-clock, ``id()``, ``os.getpid()`` or ``hash()`` value
  in a label moves them, and so does a plan emitted in set order under
  some hash seeds, seed 0 among them), and the digest of a second run
  over the same prepared inputs, which must equal it too (the second
  run reads the layouts the first memoised on its input stores);
* one SHA-256 over the shares of every ``SharedVector`` built while
  TPC-H Q3 at :data:`SHARE_SCALE_MB` runs at protocol seed
  :data:`SHARE_SEED`, in REAL and in SIMULATED, under each join
  back-end, with the silent-OT pools open (``small_pool``'s settings);
  the two interpreters' digests must be equal, so no share, mask,
  garbling seed or key may come from entropy outside ``ctx.rng``;
* whether the run moved numpy's or ``random``'s global generator,
  which it must not.

The interpreters are fresh only for the hash seed, which a running
process cannot change.  A prepared query builds its masked relations
once, so the dummy nonces they drew from the process-wide counter of
data preparation (``repro.relalg.columns.fresh_nonces``) are the same
on every run, and the dummies an operator makes while a plan runs come
from the run's context (DESIGN.md, "Determinism checked by replay").

Run one interpreter's half alone, printing its JSON, with::

    PYTHONPATH=src python -m tests.test_replay
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.mpc import Mode

from .test_protocol import OWNER_SPLITS, example_11, run_secure

REPO_ROOT = Path(__file__).resolve().parents[1]

SHARE_SCALE_MB = 0.03
SHARE_SEED = 7
#: ``set(...)`` order moves a golden under hash seed 0 and not under 1
HASH_SEEDS = ("0", "1")


def global_rng_state() -> str:
    """A digest of numpy's and ``random``'s global generator states."""
    import random

    import numpy as np

    _, keys, pos, has_gauss, cached = np.random.get_state()
    blob = repr((random.getstate(), keys.tolist(), pos, has_gauss, cached))
    return hashlib.sha256(blob.encode()).hexdigest()


def golden_runs() -> dict:
    """Every golden run's digest and shape, and the digest of a second
    run over the same prepared inputs (which reads the layouts the first
    run memoised on them)."""
    from repro.tpch import generate

    from .test_golden_fingerprints import (
        RUNS,
        SCALE_MB,
        digest_of,
        run_transcripts,
        shape_of,
    )

    dataset = generate(SCALE_MB)
    runs, shapes, second = {}, {}, {}
    for run in RUNS:
        (transcript, rows), again = run_transcripts(run, dataset, runs=2)
        runs[run] = digest_of(transcript, rows)
        shapes[run] = shape_of(transcript)
        second[run] = digest_of(*again)
    return {"runs": runs, "shapes": shapes, "second": second}


@contextmanager
def recorded_shares():
    """A SHA-256 that absorbs the shares of every ``SharedVector`` built
    inside the block."""
    from repro.mpc.sharing import SharedVector

    digest = hashlib.sha256()
    build = SharedVector.__init__

    def recording(self, alice, bob, modulus):
        build(self, alice, bob, modulus)
        digest.update(self.alice.tobytes() + self.bob.tobytes())

    SharedVector.__init__ = recording  # type: ignore[method-assign]
    try:
        yield digest
    finally:
        SharedVector.__init__ = build  # type: ignore[method-assign]


def prepared_q3():
    from repro.tpch import PREPARED, generate

    return PREPARED["Q3"](generate(SHARE_SCALE_MB))


def share_digest(query=None) -> str:
    """SHA-256 over the shares of every ``SharedVector`` built while Q3
    (``query``, else a freshly prepared one) runs in both modes under
    both back-ends, with small silent-OT pools."""
    from repro.leakage import BACKENDS
    from repro.mpc import Engine

    from .conftest import small_pool_settings

    patched = small_pool_settings()
    saved = [(m, name, getattr(m, name)) for m, name, _ in patched]
    for module, name, value in patched:
        setattr(module, name, value)
    try:
        query = query or prepared_q3()
        with recorded_shares() as digest:
            for mode in (Mode.REAL, Mode.SIMULATED):
                for backend in BACKENDS:
                    ctx = query.make_context(mode, seed=SHARE_SEED)
                    engine = Engine(ctx)
                    engine.backend = backend
                    query.run_secure(engine)
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
    return digest.hexdigest()


def replay() -> dict:
    """One interpreter's half of the check."""
    before = global_rng_state()
    out = golden_runs()
    out["shares"] = share_digest()
    out["global_rng_unchanged"] = global_rng_state() == before
    return out


def test_seeded_runs_replay_in_fresh_processes():
    from .test_golden_fingerprints import load_golden

    golden = load_golden()
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-m", "tests.test_replay"],
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": str(REPO_ROOT / "src"),
            },
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    }
    seen = {}
    for seed, proc in procs.items():
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        seen[seed] = json.loads(out)
    for seed, got in seen.items():
        moved = sorted(
            run for run in golden["runs"]
            if (got["runs"][run], got["shapes"][run])
            != (golden["runs"][run], golden["shapes"][run])
        )
        assert not moved, f"PYTHONHASHSEED={seed}: {moved} moved"
        moved = sorted(
            run for run in golden["runs"]
            if got["second"][run] != golden["runs"][run]
        )
        assert not moved, (
            f"PYTHONHASHSEED={seed}: a second run of {moved} moved"
        )
        assert got["global_rng_unchanged"], (
            f"PYTHONHASHSEED={seed}: the run drew from a global generator"
        )
    shares = {seed: got["shares"] for seed, got in seen.items()}
    assert len(set(shares.values())) == 1, (
        f"Q3's shares differ between fresh processes: {shares}"
    )


def test_prepared_query_replays_in_its_own_process():
    """Run twice on one ``PreparedQuery`` under one seed, TPC-H Q3
    builds the same shares in both modes under both back-ends: its
    masked relations, dummies included, were built once, when it was
    prepared."""
    query = prepared_q3()
    assert share_digest(query) == share_digest(query)


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
@pytest.mark.parametrize("owners", OWNER_SPLITS)
def test_seeded_run_replays_in_its_own_process(mode, owners):
    """Run twice in one process under one seed, Example 1.1 builds the
    same shares: the dummies its operators make come from the run's
    context, not from a counter the first run advanced."""
    digests = []
    for _ in range(2):
        with recorded_shares() as digest:
            run_secure(example_11(), owners, ("cls",), mode)
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]


if __name__ == "__main__":  # pragma: no cover
    print(json.dumps(replay()))
