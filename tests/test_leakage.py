"""Leakage contracts checked while the plan runs.

``@leaks(...)`` makes its function a scope; the six sink primitives
carry ``@reveals(atom)`` and raise :class:`UndeclaredLeakage` when the
innermost scope does not declare their atom.  A plan run is a scope
with an empty contract, so a reveal that loses its declaring operator
fails the run; a sink called outside every scope (a unit test, a
benchmark timing one primitive) is unchecked.
"""

import numpy as np
import pytest

from repro.core.semijoin import CROSS_OWNER
from repro.leakage import (
    BACKEND_CONTRACTS,
    UndeclaredLeakage,
    check_backend_table,
    declared_leakage,
    leaks,
    reveals,
)
from repro.mpc.context import ALICE, Context, Mode
from repro.mpc.engine import Engine
from repro.mpc.sharing import reveal_vector, share_vector


def shared(ctx):
    return share_vector(ctx, ALICE, np.arange(4, dtype=np.uint64), "share")


def test_a_sink_outside_every_scope_is_unchecked():
    ctx = Context(Mode.SIMULATED, seed=1)
    out = reveal_vector(ctx, shared(ctx), ALICE)
    assert out.tolist() == [0, 1, 2, 3]


def test_a_sink_in_an_empty_scope_raises_before_it_sends():
    ctx = Context(Mode.SIMULATED, seed=1)
    sv = shared(ctx)

    @leaks()
    def oblivious():
        return reveal_vector(ctx, sv, ALICE)

    with pytest.raises(UndeclaredLeakage, match="opened:result"):
        oblivious()
    assert len(ctx.transcript.messages) == 1  # the sharing alone


def test_the_innermost_scope_decides():
    ctx = Context(Mode.SIMULATED, seed=1)
    engine = Engine(ctx)
    sv = shared(ctx)

    @leaks("opened:result")
    def opens():
        return engine.reconstruct_column(sv)

    @leaks()
    def run():
        return opens()

    assert run().tolist() == [0, 1, 2, 3]

    @leaks("support:result")
    def supports():
        return engine.reconstruct_column(sv)

    @leaks("opened:result")
    def outer():
        return supports()  # an outer scope's atoms do not reach in

    with pytest.raises(UndeclaredLeakage, match="reconstruct_column"):
        outer()


def test_a_scope_ends_with_its_call():
    ctx = Context(Mode.SIMULATED, seed=1)
    sv = shared(ctx)

    @leaks()
    def raises():
        reveal_vector(ctx, sv, ALICE)

    with pytest.raises(UndeclaredLeakage):
        raises()
    reveal_vector(ctx, sv, ALICE)  # unchecked again


def test_a_sink_declares_exactly_one_atom():
    with pytest.raises(TypeError):
        reveals("opened:result", "support:result")  # type: ignore[call-arg]
    with pytest.raises(ValueError, match="unknown leakage atom"):
        reveals("bogus:atom")
    with pytest.raises(ValueError, match="unknown leakage atom"):
        leaks("bogus:atom")
    assert declared_leakage(reveal_vector) == {"opened:result"}
    assert declared_leakage(Engine.reveal_nonzero_flags) == {
        "support:result"
    }


def test_backend_implementations_declare_exactly_their_contract():
    check_backend_table(CROSS_OWNER)
    undeclared = {**CROSS_OWNER, "linear": CROSS_OWNER["linear"].__wrapped__}
    with pytest.raises(ValueError, match="linear_cross_owner_payloads"):
        check_backend_table(undeclared)
    widened = {**BACKEND_CONTRACTS, "yannakakis": frozenset(
        {"join_pattern:parent"}
    )}
    with pytest.raises(ValueError, match="_cross_owner_payloads"):
        check_backend_table(CROSS_OWNER, widened)


def test_q3_with_reveal_results_contract_stripped_raises(monkeypatch):
    """The final open loses its ``@leaks("opened:result")``: the plan
    run's own empty contract then holds at the sink, and the run
    fails before the result is sent."""
    from repro.exec import scheduler
    from repro.tpch.datagen import generate
    from repro.tpch.queries import prepare_q3

    q = prepare_q3(generate(0.1))

    def run():
        return q.run_secure(Engine(q.make_context(Mode.SIMULATED, seed=7)))

    run()  # pristine
    stripped = scheduler.reveal_result.__wrapped__
    monkeypatch.setattr(scheduler, "reveal_result", stripped)
    with pytest.raises(UndeclaredLeakage, match="reveal_vector"):
        run()
