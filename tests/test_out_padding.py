"""Output-size padding (Sections 4 and 6.3): hiding the true OUT from
Bob behind a declared upper bound."""

from functools import partial

import numpy as np
import pytest

from repro.core import SecureAnnotations, SecureRelation, oblivious_join
from repro.core.protocol import secure_yannakakis_shared
from repro.mpc import ALICE, BOB, Mode
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
)
from repro.yannakakis import build_plan

from .conftest import make_engine

RING = IntegerRing(32)


mk_engine = partial(make_engine, seed=1)


def shared_rel(eng, owner, attrs, tuples, annots):
    rel = AnnotatedRelation(attrs, tuples, annots, RING)
    sec = SecureRelation.from_annotated(owner, rel)
    sec.annotations = SecureAnnotations.shared(
        eng.share(owner, rel.annotations)
    )
    return sec


class TestPadding:
    def test_padded_rows_are_zero_annotated(self):
        eng = mk_engine()
        r = shared_rel(eng, ALICE, ("a",), [(1,), (2,), (3,)], [5, 0, 7])
        res = oblivious_join(eng, {"R": r}, [], pad_out_to=6)
        assert len(res.tuples) == 6
        vals = res.annotations.reconstruct()
        nonzero = {
            t: int(v) for t, v in zip(res.tuples, vals) if int(v)
        }
        assert nonzero == {(1,): 5, (3,): 7}

    def test_bob_sees_declared_size(self):
        eng = mk_engine()
        r = shared_rel(eng, ALICE, ("a",), [(1,)], [9])
        oblivious_join(eng, {"R": r}, [], pad_out_to=5)
        # transcript carries OUT after padding; the traffic after the
        # size disclosure scales with 5, not with 1
        sizes = [
            m
            for m in eng.ctx.transcript.messages
            if m.label.endswith("out_size")
        ]
        assert len(sizes) == 1

    def test_transcript_hides_true_out(self):
        """Same declared bound, different true OUT -> identical traffic."""

        def run(annots):
            eng = mk_engine(seed=7)
            r = shared_rel(
                eng, ALICE, ("a",), [(i,) for i in range(4)], annots
            )
            oblivious_join(eng, {"R": r}, [], pad_out_to=4)
            return eng.ctx.transcript.fingerprint()

        assert run([1, 1, 1, 1]) == run([0, 0, 0, 1])

    def test_bound_violation_raises(self):
        eng = mk_engine()
        r = shared_rel(eng, ALICE, ("a",), [(1,), (2,)], [1, 1])
        with pytest.raises(ValueError):
            oblivious_join(eng, {"R": r}, [], pad_out_to=1)

    def test_protocol_level_padding(self):
        eng = mk_engine()
        r1 = AnnotatedRelation(
            ("a", "b"), [(1, 1), (2, 2)], [3, 4], RING
        )
        r2 = AnnotatedRelation(("b",), [(1,), (2,)], [1, 1], RING)
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b",)})
        plan = build_plan(
            find_free_connex_tree(h, {"a", "b"}), ("a", "b")
        )
        sec = {
            "R1": SecureRelation.from_annotated(ALICE, r1),
            "R2": SecureRelation.from_annotated(BOB, r2),
        }
        res = secure_yannakakis_shared(eng, sec, plan, pad_out_to=10)
        assert len(res.tuples) == 10
        vals = res.annotations.reconstruct()
        real = {t for t, v in zip(res.tuples, vals) if int(v)}
        assert real == {(1, 1), (2, 2)}

    def test_padding_rows_hide_how_many_dummies_were_made(self):
        """J*'s padding rows are Alice's to see, and they depend on
        their positions alone: Bob's duplicate keys make the owner-local
        aggregations draw dummies from the process-wide counter, and
        the padding must not show how many."""
        from repro.relalg.columns import is_dummy_tuple

        from .test_protocol import OWNER_SPLITS, example_11

        def run(persons):
            rels = example_11()
            r2 = rels["R2"]
            rels["R2"] = AnnotatedRelation(
                r2.attributes,
                [(p, d) for p, (_, d) in zip(persons, r2.tuples)],
                r2.annotations,
                RING,
            )
            tree = find_free_connex_tree(
                Hypergraph({n: r.attributes for n, r in rels.items()}),
                {"cls"},
            )
            eng = mk_engine(mode=Mode.SIMULATED)
            sec = {
                n: SecureRelation.from_annotated(OWNER_SPLITS[0][n], r)
                for n, r in rels.items()
            }
            res = secure_yannakakis_shared(
                eng, sec, build_plan(tree, ("cls",)), pad_out_to=8
            )
            padding = [t for t in res.tuples if is_dummy_tuple(t)]
            return eng.ctx.transcript.fingerprint(), padding

        runs = [
            run(persons)
            for persons in (
                ["p1", "p2", "p3", "p4"],
                ["p1", "p1", "p2", "p3"],
                ["p1", "p1", "p1", "p1"],
            )
        ]
        assert runs[0][1], "no padding row to compare"
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
