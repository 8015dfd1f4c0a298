"""The role-orienting engine facade."""

from functools import partial

import numpy as np
import pytest

from repro.core.oriented import OrientedEngine
from repro.mpc import ALICE, BOB

from .conftest import make_engine


mk_engine = partial(make_engine, seed=8)


class TestOrientation:
    def test_rejects_unknown_party(self):
        with pytest.raises(ValueError):
            OrientedEngine(mk_engine(), "carol")

    def test_flipped(self):
        eng = mk_engine()
        oe = OrientedEngine(eng, BOB)
        assert oe.flipped().owner == ALICE
        assert oe.flipped().flipped().owner == BOB

    @pytest.mark.parametrize("owner", [ALICE, BOB])
    def test_mul_semantics_owner_independent(self, owner):
        eng = mk_engine()
        oe = OrientedEngine(eng, owner)
        x = eng.share(ALICE, [3, 4])
        y = eng.share(BOB, [5, 6])
        z = oe.mul_shared(x, y)
        assert list(z.reconstruct()) == [15, 24]

    @pytest.mark.parametrize("owner", [ALICE, BOB])
    def test_owner_plain_mul(self, owner):
        eng = mk_engine()
        oe = OrientedEngine(eng, owner)
        y = eng.share(ALICE, [10, 20])
        z = oe.mul_owner_plain(np.asarray([2, 3]), y)
        assert list(z.reconstruct()) == [20, 60]

    @pytest.mark.parametrize("owner", [ALICE, BOB])
    def test_oep_owner_independent(self, owner):
        eng = mk_engine()
        oe = OrientedEngine(eng, owner)
        v = eng.share(BOB, [10, 20, 30])
        out = oe.oep([2, 2, 0, 1], v, 4)
        assert list(out.reconstruct()) == [30, 30, 10, 20]

    @pytest.mark.parametrize("owner", [ALICE, BOB])
    def test_merge_chain_owner_independent(self, owner):
        eng = mk_engine()
        oe = OrientedEngine(eng, owner)
        v = eng.share(ALICE, [1, 2, 3])
        out = oe.merge_aggregate_sum([True, False], v)
        assert list(out.reconstruct()) == [0, 3, 3]

    def test_sender_labels_mirrored(self):
        """The same protocol run by the opposite owner produces the
        mirror-image transcript (senders swapped, sizes identical) once
        both extension instances are set up: their base phases belong
        to the physical parties, not to the orientation."""

        def run(owner):
            eng = mk_engine(seed=5)
            one = eng.share(ALICE, [1], label="setup")
            eng.mul_shared(one, one)  # both instances' base phases
            oe = OrientedEngine(eng, owner)
            x = eng.share(ALICE, [3] * 4, label="in")
            y = eng.share(BOB, [5] * 4, label="in")
            start = len(eng.ctx.transcript.messages)
            oe.mul_shared(x, y)
            return eng.ctx.transcript.messages[start:]

        m_alice = run(ALICE)
        m_bob = run(BOB)
        assert [m.n_bytes for m in m_alice] == [m.n_bytes for m in m_bob]
        assert [m.sender for m in m_alice] == [
            {"alice": "bob", "bob": "alice"}[m.sender] for m in m_bob
        ]

    @pytest.mark.parametrize("owner", [ALICE, BOB])
    def test_psi_oriented(self, owner):
        eng = mk_engine()
        oe = OrientedEngine(eng, owner)
        res = oe.psi([1, 2, 3], [2, 9], [70, 80])
        ind = res.ind.reconstruct()
        pay = res.payload.reconstruct()
        bins = res.bin_of_item_index()
        assert ind[bins[1]] == 1 and pay[bins[1]] == 70
        assert ind[bins[0]] == 0 and ind[bins[2]] == 0


@pytest.mark.real
@pytest.mark.parametrize("flip", [False, True], ids=["as_written", "swapped"])
def test_each_extension_instance_has_one_physical_receiver(monkeypatch, flip):
    """Over a REAL Q3 (0.03 MB), record who physically sends every
    IKNP batch's ``u`` columns — the instance's receiver — per
    instance: each has exactly one, Alice for the engine's forward
    instance and Bob for its mirror.  An oriented call that handed the
    forward instance to a role-swapped protocol would make the
    receiver of one instance the sender of another of its batches."""
    from repro.mpc import Engine, Mode
    from repro.mpc.ot import SoftSpokenExtension
    from repro.tpch import PREPARED, generate

    receivers = {}
    real_phase = SoftSpokenExtension._column_phase

    def spy(self, m, r):
        before = len(self.ctx.transcript.messages)
        out = real_phase(self, m, r)
        # a first batch runs the base phase first; its own u is last
        sent = self.ctx.transcript.messages[before:][-1]
        assert sent.label.endswith("ot/ext/u")
        receivers.setdefault(id(self), set()).add(sent.sender)
        return out

    monkeypatch.setattr(SoftSpokenExtension, "_column_phase", spy)
    query = PREPARED["Q3"](generate(0.03), flip_owners=flip)
    engine = Engine(query.make_context(Mode.REAL, seed=5))
    engine.backend = "yannakakis"
    result, _ = query.run_secure(engine)
    assert result.semantically_equal(query.run_plain()[0])
    forward = engine.ot
    assert receivers == {
        id(forward): {ALICE},
        id(forward.reverse): {BOB},
    }
