"""Transcript metering: bytes, rounds, sections, fingerprints."""

import pytest

from repro.mpc import ALICE, BOB, Context, Mode, Transcript, other_party


class TestTranscript:
    def test_totals(self):
        t = Transcript()
        t.send(ALICE, 100, "x")
        t.send(BOB, 50, "y")
        assert t.total_bytes == 150
        assert t.bytes_from(ALICE) == 100
        assert t.bytes_from(BOB) == 50

    def test_rounds_count_direction_changes(self):
        t = Transcript()
        t.send(ALICE, 1, "a")
        t.send(ALICE, 1, "b")
        t.send(BOB, 1, "c")
        t.send(ALICE, 1, "d")
        assert t.rounds == 3

    def test_sections_nest(self):
        t = Transcript()
        with t.section("psi"):
            t.send(ALICE, 10, "seeds")
            with t.section("ot"):
                t.send(BOB, 20, "u")
        assert t.messages[0].label == "psi/seeds"
        assert t.messages[1].label == "psi/ot/u"
        assert t.bytes_by_section() == {"psi": 30}
        assert t.bytes_by_section(depth=2) == {"psi/seeds": 10, "psi/ot": 20}

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Transcript().send(ALICE, -1, "x")

    def test_every_send_needs_a_label(self):
        t = Transcript()
        with pytest.raises(ValueError, match="label"):
            t.send(ALICE, 1, "")
        with pytest.raises(TypeError):
            t.send(ALICE, 1)  # type: ignore[call-arg]
        with t.section("psi"), pytest.raises(ValueError, match="label"):
            t.send(ALICE, 1, "")  # a section is no label
        assert t.messages == []

    def test_fingerprint_is_shape_only(self):
        t1, t2 = Transcript(), Transcript()
        for t in (t1, t2):
            t.send(ALICE, 10, "a")
            t.send(BOB, 20, "b")
        assert t1.fingerprint() == t2.fingerprint()
        t2.send(ALICE, 1, "c")
        assert t1.fingerprint() != t2.fingerprint()

    def test_summary_mentions_totals(self):
        t = Transcript()
        t.send(ALICE, 10, "x")
        assert "10" in t.summary()

    def test_rounds_by_section(self):
        t = Transcript()
        with t.section("reduce"):
            t.send(ALICE, 1, "a")
            t.send(BOB, 1, "b")
            t.send(BOB, 1, "c")
        with t.section("join"):
            t.send(BOB, 1, "d")
            t.send(ALICE, 1, "e")
        # Direction changes are counted per section independently.
        assert t.rounds_by_section() == {"reduce": 2, "join": 2}
        with t.section("reduce"):
            t.send(ALICE, 1, "f")
        assert t.rounds_by_section()["reduce"] == 3

    def test_rounds_by_section_depth_and_unlabelled(self):
        t = Transcript()
        t.send(ALICE, 1, "seeds")  # outside every section
        with t.section("psi"):
            with t.section("ot"):
                t.send(BOB, 1, "u")
                t.send(ALICE, 1, "v")
            t.send(ALICE, 1, "w")
        assert t.rounds_by_section() == {"seeds": 1, "psi": 2}
        assert t.rounds_by_section(depth=2) == {
            "seeds": 1, "psi/ot": 2, "psi/w": 1,
        }

    def test_slice_rounds(self):
        t = Transcript()
        t.send(ALICE, 1, "a")
        t.send(ALICE, 1, "b")
        t.send(BOB, 1, "c")
        assert Transcript.slice_rounds(t.messages) == 2
        assert Transcript.slice_rounds(t.messages[1:]) == 2
        assert Transcript.slice_rounds([]) == 0

    def test_to_json_includes_rounds_by_section(self):
        t = Transcript()
        with t.section("semijoin"):
            t.send(ALICE, 4, "x")
        blob = t.to_json()
        assert blob["rounds_by_section"] == {"semijoin": 1}


class TestContext:
    def test_other_party(self):
        assert other_party(ALICE) == BOB
        assert other_party(BOB) == ALICE
        with pytest.raises(ValueError):
            other_party("carol")

    def test_swapped_roles_relabels_sender(self):
        ctx = Context(Mode.SIMULATED, seed=0)
        ctx.send(ALICE, 5, "plain")
        with ctx.swapped_roles():
            ctx.send(ALICE, 5, "swapped")
            with ctx.swapped_roles():
                ctx.send(ALICE, 5, "double")
        senders = [m.sender for m in ctx.transcript.messages]
        assert senders == [ALICE, BOB, ALICE]

    def test_random_ring_vector_in_range(self):
        ctx = Context(Mode.SIMULATED, seed=1)
        v = ctx.random_ring_vector(1000)
        assert (v < ctx.modulus).all()


class TestSecurityParams:
    def test_defaults_match_paper(self):
        from repro.mpc import DEFAULT_PARAMS
        from repro.mpc.params import (
            CUCKOO_EXPANSION,
            CUCKOO_HASHES,
            KAPPA,
            SIGMA,
        )

        assert KAPPA == 128
        assert SIGMA == 40
        assert DEFAULT_PARAMS.ell == 32
        assert CUCKOO_EXPANSION == 1.27
        assert CUCKOO_HASHES == 3

    def test_ring_width_is_the_only_setting(self):
        # kappa, sigma and the cuckoo shape are fixed by the wire
        # formats; a SecurityParams that varied them could never be run.
        import dataclasses

        from repro.mpc import SecurityParams

        assert [f.name for f in dataclasses.fields(SecurityParams)] == ["ell"]
        with pytest.raises(TypeError):
            SecurityParams(kappa=256)  # type: ignore[call-arg]

    def test_derived_properties(self):
        from repro.mpc import SecurityParams

        p = SecurityParams(ell=48)
        assert p.modulus == 2**48

    def test_params_frozen(self):
        import dataclasses

        from repro.mpc import DEFAULT_PARAMS

        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_PARAMS.ell = 64
