"""Property-based tests of the full secure protocol and key invariants
(hypothesis-driven; SIMULATED mode for speed)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SecureRelation, secure_yannakakis
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.mpc.oep import oblivious_extended_permutation
from repro.mpc.ot import make_ot
from repro.mpc.sharing import share_vector
from repro.mpc.waksman import apply_network, benes_network
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
)
from repro.yannakakis import build_plan, naive_join_aggregate


RING = IntegerRing(32)


@st.composite
def two_relation_instance(draw):
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(1, 6))
    r1 = AnnotatedRelation(
        ("a", "b"),
        [
            (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            for _ in range(n1)
        ],
        [draw(st.integers(0, 9)) for _ in range(n1)],
        RING,
    )
    r2 = AnnotatedRelation(
        ("b", "c"),
        [
            (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            for _ in range(n2)
        ],
        [draw(st.integers(0, 9)) for _ in range(n2)],
        RING,
    )
    output = draw(st.sampled_from([(), ("b",), ("a", "b")]))
    owners = draw(
        st.sampled_from(
            [
                {"R1": ALICE, "R2": BOB},
                {"R1": BOB, "R2": ALICE},
                {"R1": ALICE, "R2": ALICE},
            ]
        )
    )
    return r1, r2, output, owners


@given(instance=two_relation_instance())
def test_secure_protocol_equals_naive(instance):
    r1, r2, output, owners = instance
    rels = {"R1": r1, "R2": r2}
    h = Hypergraph({n: r.attributes for n, r in rels.items()})
    tree = find_free_connex_tree(h, set(output))
    plan = build_plan(tree, output)
    engine = Engine(Context(Mode.SIMULATED, seed=0))
    sec = {
        n: SecureRelation.from_annotated(owners[n], rels[n])
        for n in rels
    }
    result, _ = secure_yannakakis(engine, sec, plan)
    expect = naive_join_aggregate(rels, list(output))
    assert result.semantically_equal(expect)


@given(
    perm=st.integers(1, 40).flatmap(
        lambda n: st.permutations(list(range(n)))
    ),
)
def test_benes_routes_any_permutation(perm):
    routed = apply_network(benes_network(perm), list(range(len(perm))))
    for i, p in enumerate(perm):
        assert routed[p] == i


@given(
    values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
    data=st.data(),
)
def test_oep_matches_numpy_take(values, data):
    n_out = data.draw(st.integers(1, 12))
    xi = [
        data.draw(st.integers(0, len(values) - 1)) for _ in range(n_out)
    ]
    ctx = Context(Mode.SIMULATED, seed=1)
    ot = make_ot(ctx)
    sv = share_vector(ctx, ALICE, values)
    out = oblivious_extended_permutation(ctx, ot, xi, sv, n_out)
    expect = np.asarray(values, dtype=np.uint64)[np.asarray(xi)]
    assert (out.reconstruct() == expect).all()


@given(
    values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    data=st.data(),
)
def test_merge_chain_invariant(values, data):
    """Positions flagged 'same as next' always emit 0; group totals
    appear exactly once per group, and the grand total is preserved."""
    n = len(values)
    same = [data.draw(st.booleans()) for _ in range(n - 1)]
    engine = Engine(Context(Mode.SIMULATED, seed=2))
    v = engine.share(BOB, values)
    out = engine.merge_aggregate_sum(same, v).reconstruct()
    mod = engine.ctx.modulus
    for i, flag in enumerate(same):
        if flag:
            assert out[i] == 0
    assert int(out.sum()) % mod == sum(values) % mod
