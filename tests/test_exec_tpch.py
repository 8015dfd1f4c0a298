"""Obliviousness fingerprints of the scheduler path on the five TPC-H
queries: the exec-layer pipeline must reproduce the legacy sequential
pipeline's transcript byte-for-byte on identical seeds at tiny scale.
"""

import pytest

import repro.query.builder as builder
from repro.core.protocol import (
    legacy_secure_yannakakis,
    legacy_secure_yannakakis_shared,
)
from repro.mpc import Engine, Mode
from repro.tpch import generate, prepare

pytestmark = pytest.mark.slow

SEED = 5


def legacy_run(engine, relations, plan, backends, *, env, start_at):
    """``run_secure``'s call, answered by the reference orchestration
    (which can start a run, not resume one)."""
    assert env is None and start_at is None
    return legacy_secure_yannakakis(engine, relations, plan, backends)


def run_transcript(query, *, legacy, monkeypatch):
    with monkeypatch.context() as mp:
        if legacy:
            mp.setattr(builder, "secure_yannakakis", legacy_run)
            mp.setattr(
                builder,
                "secure_yannakakis_shared",
                legacy_secure_yannakakis_shared,
            )
        ctx = query.make_context(Mode.SIMULATED, seed=SEED)
        engine = Engine(ctx)
        result, stats = query.run_secure(engine)
    return ctx.transcript.fingerprint(), result


@pytest.mark.parametrize("name", ["Q3", "Q10", "Q18", "Q8", "Q9"])
def test_tpch_fingerprint_identity(name, monkeypatch):
    query = prepare(name, generate(1), q9_nations=[8, 14])
    f_legacy, r_legacy = run_transcript(
        query, legacy=True, monkeypatch=monkeypatch
    )
    f_new, r_new = run_transcript(
        query, legacy=False, monkeypatch=monkeypatch
    )
    assert f_new == f_legacy
    assert r_new.semantically_equal(r_legacy)
