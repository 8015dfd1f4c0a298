"""Ownership-split symmetry of the secure protocol.

Swapping every relation's owner (ALICE <-> BOB) must not change the
query answer, and the communication pattern must transform predictably:

* ``reduce`` / ``semijoin`` — these phases orient every sub-protocol at
  the relation *owner* (via ``Context.swapped_roles``), so a global
  owner flip mirrors the per-party byte counts exactly — apart from
  the one-time base phases of the two OT extension instances, which
  belong to the physical parties and land wherever each instance is
  first used (they are left out of the comparison, with the mirror's
  tree corrections in the ``u`` right after its seed batch);
* ``full_join`` — Alice-anchored by design: Alice's sent bytes are
  owner-independent, while the reveal payloads (sent for Bob-owned
  relations only) move with the flip, so Bob's bytes may change;
* ``result`` — Alice is the designated receiver whoever owns what, so
  the section is identical, not mirrored.
"""

import pytest

from repro.mpc import ALICE, BOB, Engine, Mode
from repro.mpc.costs import tree_correction_bytes
from repro.tpch import PREPARED, generate

SCALE = 1
SEED = 7

#: Sections whose per-party bytes must mirror exactly under the flip.
MIRRORED_SECTIONS = ("reduce", "semijoin")


def party_section_bytes(transcript):
    """``{(section, sender): bytes}`` at depth-1 section granularity,
    base-phase messages and the mirror's tree corrections left out."""
    out = {}
    corrections = 0
    for m in transcript.messages:
        n_bytes, corrections = m.n_bytes - corrections, 0
        if "/base/" in m.label:
            if m.label.endswith("ot/ext/base/ot/ext/u"):
                # the mirror's seed batch: its first u comes next
                corrections = tree_correction_bytes(128)
            continue
        section = m.label.split("/")[0] if m.label else ""
        key = (section, m.sender)
        out[key] = out.get(key, 0) + n_bytes
    return out


def run_pair(name, **prepare_kwargs):
    dataset = generate(SCALE)
    results, breakdowns = [], []
    for flip in (False, True):
        query = PREPARED[name](
            dataset, flip_owners=flip, **prepare_kwargs
        )
        engine = Engine(query.make_context(Mode.SIMULATED, seed=SEED))
        result, _ = query.run_secure(engine)
        results.append(result)
        breakdowns.append(party_section_bytes(engine.ctx.transcript))
    return results, breakdowns


def assert_symmetry(results, breakdowns):
    base, flipped = breakdowns
    assert results[0].semantically_equal(results[1])
    sections = {k[0] for k in base} | {k[0] for k in flipped}
    for section in sections:
        a1 = base.get((section, ALICE), 0)
        b1 = base.get((section, BOB), 0)
        a2 = flipped.get((section, ALICE), 0)
        b2 = flipped.get((section, BOB), 0)
        if section in MIRRORED_SECTIONS:
            assert (a1, b1) == (b2, a2), section
        elif section == "result":
            # Alice receives the result in both runs.
            assert (a1, b1) == (a2, b2), section
            assert a1 == 0, section
        elif section == "full_join":
            # Alice's traffic is owner-independent; only the reveal
            # payloads (for Bob-owned relations) move with the flip.
            assert a1 == a2, section


@pytest.mark.parametrize("name", ["Q3", "Q10", "Q18"])
def test_owner_flip_symmetry(name):
    results, breakdowns = run_pair(name)
    assert_symmetry(results, breakdowns)
    # The reduce phase really is exercised (mirroring isn't vacuous).
    assert breakdowns[0].get(("reduce", ALICE), 0) > 0


@pytest.mark.slow
@pytest.mark.parametrize("name,kwargs", [("Q8", {}), ("Q9", {"nations": [8]})])
def test_owner_flip_symmetry_composed(name, kwargs):
    results, breakdowns = run_pair(name, **kwargs)
    assert_symmetry(results, breakdowns)


def test_swap_owners_builder():
    from repro.query.builder import JoinAggregateQuery
    from repro.relalg import AnnotatedRelation, IntegerRing

    ring = IntegerRing(32)
    r1 = AnnotatedRelation(("a", "b"), [(1, 2)], [3], ring)
    r2 = AnnotatedRelation(("b", "c"), [(2, 4)], [5], ring)
    q = (
        JoinAggregateQuery(output=["b"])
        .add_relation("R1", r1, owner=ALICE)
        .add_relation("R2", r2, owner=BOB)
    )
    m = q.swap_owners()
    assert m.owners == {"R1": BOB, "R2": ALICE}
    assert m.output == q.output
    assert m.relations["R1"] is r1
    # Involution: flipping twice restores the original split.
    assert m.swap_owners().owners == q.owners
    # The cost model is owner-flip symmetric: same plan either way.
    assert str(m.plan()) == str(q.plan())
