"""A prepared relation lays out its own tuples once.

``TupleStore.groups`` and ``TupleStore.sort_layout`` memoise, per
attribute tuple, the owner-local groupings and sort orders that the
reduce-joins and aggregations derive from a store's rows.  These tests
pin that the memo is read-only, that it changes nothing a run produces
(result, transcript, context counters), and that a second run of a
prepared query re-codes none of its input stores' key projections.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.mpc import Engine, Mode
from repro.relalg import columns
from repro.relalg.columns import (
    TupleStore,
    group_by_first_appearance,
    joint_row_codes,
    sort_with_same_flags,
)
from repro.tpch import PREPARED, generate

SEED = 5


def small_store() -> TupleStore:
    return TupleStore.from_columns(
        ("a", "b"),
        [[3, 1, 3, 2, 1, 0], ["x", "y", "x", "x", "y", "y"]],
        nonce=np.array([0, 0, 0, 0, 0, 9], dtype=np.int64),
    )


def test_layouts_equal_the_kernels_they_memoise():
    store = small_store()
    proj = store.project(("b", "a"))
    gid, first = group_by_first_appearance(joint_row_codes([proj])[0])
    got_gid, keys = store.groups(("b", "a"))
    assert got_gid.tolist() == gid.tolist()
    assert keys.materialize() == proj.take(first).materialize()
    order, same = sort_with_same_flags(joint_row_codes([proj])[0])
    got_order, sorted_proj, got_same = store.sort_layout(("b", "a"))
    assert got_order.tolist() == order.tolist()
    assert got_same.tolist() == same.tolist()
    assert sorted_proj.materialize() == proj.take(order).materialize()


def test_cached_arrays_are_read_only_and_stable():
    store = small_store()
    gid, keys = store.groups(("a",))
    order, sorted_proj, same = store.sort_layout(("a", "b"))
    cached = [gid, order, same]
    for s in (keys, sorted_proj):
        cached += [s.nonce, *(c.codes for c in s.columns)]
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0
    # One layout per attribute tuple, the same objects on every call;
    # the store's own arrays stay as they were.
    assert store.groups(("a",))[1] is keys
    assert store.sort_layout(["a", "b"])[0] is order
    assert store.nonce.flags.writeable
    assert all(c.codes.flags.writeable for c in store.columns)


def _run(query, mode: Mode, backend: str):
    engine = Engine(query.make_context(mode, seed=SEED))
    engine.backend = backend
    result, _ = query.run_secure(engine)
    ctx = engine.ctx
    return (
        sorted((t, int(v)) for t, v in result),
        ctx.transcript.fingerprint(),
        ctx.counters,
        ctx.rng.bit_generator.state,
    )


@pytest.fixture(scope="module")
def datasets():
    return {scale: generate(scale) for scale in (0.03, 0.1)}


@pytest.mark.parametrize(
    "name, backend, mode, scale",
    [
        ("Q3", "yannakakis", Mode.SIMULATED, 0.1),
        ("Q3", "linear", Mode.SIMULATED, 0.1),
        pytest.param(
            "Q3", "yannakakis", Mode.REAL, 0.03, marks=pytest.mark.real
        ),
        pytest.param(
            "Q3", "linear", Mode.REAL, 0.03, marks=pytest.mark.real
        ),
        # Q8's two plans, numerator and denominator, share input stores.
        ("Q8", "yannakakis", Mode.SIMULATED, 0.1),
    ],
)
def test_a_warm_run_equals_a_fresh_one(datasets, name, backend, mode, scale):
    """The second run of a prepared query, which reads the layouts its
    first run left, gives the same result, transcript fingerprint,
    context counters and generator state as the first run of a freshly
    prepared one."""
    dataset = datasets[scale]
    fresh = _run(PREPARED[name](dataset), mode, backend)
    held = PREPARED[name](dataset)
    _run(held, mode, backend)
    assert _run(held, mode, backend) == fresh


def test_a_second_run_recodes_no_input_key_projection(datasets, monkeypatch):
    """Every ``joint_row_codes`` call over one projection of an input
    store is made by the first run (or the plaintext run that set up
    the query); the second run reads the memo."""
    query = PREPARED["Q3"](datasets[0.1])
    inputs = {
        id(c)
        for rel in query._build().relations.values()
        for c in rel.store.columns
    }
    calls = []
    original = columns.joint_row_codes

    def counted(stores):
        if len(stores) == 1 and stores[0].arity and all(
            id(c) in inputs for c in stores[0].columns
        ):
            calls.append(stores[0].attributes)
        return original(stores)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "joint_row_codes", None) is original
        ):
            monkeypatch.setattr(module, "joint_row_codes", counted)
    per_run = []
    for _ in range(2):
        calls.clear()
        _run(query, Mode.SIMULATED, "yannakakis")
        per_run.append(list(calls))
    assert per_run[0], "the first run codes its input key projections"
    assert per_run[1] == []
