"""Cuckoo hashing, simple hashing, bin hashes, item encoding."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.mpc.cuckoo import (
    DUMMY_ALICE,
    DUMMY_BOB,
    CuckooTable,
    candidate_bins,
    encode_item,
    fingerprints,
    has_duplicates,
    item_digests,
    num_bins,
    simple_hash_bins,
)


def bin_members(items, seeds, n_bins):
    """``simple_hash_bins`` as one index list per bin."""
    members, counts = simple_hash_bins(items, seeds, n_bins)
    assert counts.sum() == len(members) and len(counts) == n_bins
    return [m.tolist() for m in np.split(members, np.cumsum(counts)[:-1])]


class TestEncodeItem:
    def test_types_are_disjoint(self):
        # 1 and "1" and (1,) must encode differently.
        assert encode_item(1) != encode_item("1")
        assert encode_item(1) != encode_item((1,))
        assert encode_item(True) != encode_item(1)

    def test_tuple_structure_preserved(self):
        assert encode_item((1, 2)) != encode_item((12,))
        assert encode_item(("ab", "c")) != encode_item(("a", "bc"))

    def test_negative_ints(self):
        assert encode_item(-5) != encode_item(5)

    def test_nested_tuples(self):
        assert encode_item(((1, 2), 3)) != encode_item((1, (2, 3)))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_item(3.14)

    @given(
        a=st.one_of(st.integers(), st.text(max_size=8)),
        b=st.one_of(st.integers(), st.text(max_size=8)),
    )
    def test_injective_on_scalars(self, a, b):
        if a != b:
            assert encode_item(a) != encode_item(b)

    def test_int64_range_is_fixed_width(self):
        # What lets whole int columns encode as one matrix: tag + 8
        # bytes across the int64 range, a second tag beyond it.
        edge = [0, 1, -1, 2**63 - 1, -(2**63)]
        assert {len(encode_item(v)) for v in edge} == {9}
        wide = [2**63, -(2**63) - 1, 2**200, -(2**200)]
        encoded = [encode_item(v) for v in edge + wide]
        assert len(set(encoded)) == len(encoded)
        assert all(e[:1] == b"I" for e in encoded[len(edge):])


class TestDigests:
    def test_one_row_per_item(self):
        d = item_digests([1, "1", (1,), ("a", 2)])
        assert d.shape == (4, 4) and d.dtype == np.uint64
        assert not has_duplicates(d)
        assert item_digests([]).shape == (0, 4)

    def test_matrix_passes_through(self):
        d = item_digests(list(range(10)))
        assert item_digests(d) is d
        with pytest.raises(ValueError):
            item_digests(np.zeros((3, 2), dtype=np.uint64))

    def test_duplicates_detected(self):
        assert has_duplicates(item_digests([1, 2, 1]))
        # Equal 64-bit prefixes alone are not duplicates.
        d = item_digests([1, 2, 3]).copy()
        d[1, 0] = d[0, 0]
        d[2, 0] = d[0, 0]
        assert not has_duplicates(d)
        d[2] = d[0]
        assert has_duplicates(d)


class TestFingerprint:
    def test_in_real_subspace(self):
        fps = fingerprints(item_digests([("x", i) for i in range(64)]))
        assert not (fps >> np.uint64(62)).any()  # top bits: dummies only

    def test_dummy_spaces_disjoint(self):
        assert DUMMY_ALICE >> 62 == 2
        assert DUMMY_BOB >> 62 == 3

    def test_seed_changes_candidate_bins(self):
        d = item_digests(list(range(200)))
        a = candidate_bins(d, [b"a" * 16] * 3, 1000)
        b = candidate_bins(d, [b"b" * 16] * 3, 1000)
        assert (a != b).mean() > 0.9
        # ... and the three hash functions differ under one seed.
        assert (a[:, 0] != a[:, 1]).mean() > 0.9


class TestCuckooTable:
    def test_each_item_in_one_candidate_bin(self):
        items = [("item", i) for i in range(200)]
        table = CuckooTable(items)
        for idx in range(len(items)):
            assert any(table.bins[b] == idx for b in table.candidates[idx])

    def test_at_most_one_item_per_bin(self):
        table = CuckooTable(list(range(300)))
        occupied = table.bins[table.bins >= 0]
        assert len(set(occupied)) == len(occupied)

    def test_occupancy_equals_item_count(self):
        table = CuckooTable(list(range(50)))
        assert table.occupancy() == 50

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CuckooTable([1, 1, 2])

    def test_empty_set(self):
        table = CuckooTable([], n_bins=1)
        assert table.occupancy() == 0

    def test_default_bins_expansion(self):
        table = CuckooTable(list(range(100)))
        assert table.n_bins == num_bins(100) == 127

    def test_bins_of_item_matches_index(self):
        # Bob recomputes Alice's candidate bins from the seeds alone,
        # from the items or from their digest matrix.
        items = ["a", "b", "c"]
        table = CuckooTable(items)
        for given_as in (items, item_digests(items)):
            cand = candidate_bins(
                item_digests(given_as), table.seeds, table.n_bins
            )
            assert (cand == table.candidates).all()

    def test_accepts_digest_matrix(self):
        items = [("k", i) for i in range(80)]
        t1 = CuckooTable(items, seed=3)
        t2 = CuckooTable(item_digests(items), seed=3)
        assert (t1.bins == t2.bins).all() and t1.seeds == t2.seeds

    def test_deterministic_given_seed(self):
        t1 = CuckooTable(list(range(64)), seed=5)
        t2 = CuckooTable(list(range(64)), seed=5)
        assert (t1.bins == t2.bins).all()

    def test_impossible_table_raises(self):
        with pytest.raises(RuntimeError):
            CuckooTable(list(range(10)), n_bins=3, max_rehashes=2)


def random_digests(n, seed):
    """``n`` digest rows drawn uniformly: what a salted PRF gives."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=(n, 4), dtype=np.uint64)


class TestVectorisedInsertion:
    """Rounds of proposals, the lowest index winning each bin."""

    @given(n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_every_item_in_one_of_its_bins(self, n, seed):
        table = CuckooTable(random_digests(n, seed), seed=seed)
        occupied = np.flatnonzero(table.bins >= 0)
        placed = table.bins[occupied]
        # every item exactly once, so no bin holds two
        assert np.array_equal(np.sort(placed), np.arange(n))
        home = table.candidates[placed] == occupied[:, None]
        assert home.any(axis=1).all()

    def test_no_rehash_at_the_q3_sim_shape(self):
        # q3_sim's folds: 15,000 items in 19,050 bins.  One attempt
        # each: a rehash would raise.
        for seed in range(1000):
            table = CuckooTable(
                random_digests(15_000, seed), 19_050, seed=seed,
                max_rehashes=1,
            )
            assert table.occupancy() == 15_000


class TestSimpleHashing:
    def test_items_land_in_their_candidate_bins(self):
        alice = CuckooTable(list(range(50)))
        bob_items = list(range(25, 75))
        bins = bin_members(bob_items, alice.seeds, alice.n_bins)
        cand = candidate_bins(
            item_digests(bob_items), alice.seeds, alice.n_bins
        )
        for idx in range(len(bob_items)):
            holding = {b for b, members in enumerate(bins) if idx in members}
            # every candidate bin, each exactly once
            assert holding == set(cand[idx].tolist())
            assert sum(m.count(idx) for m in bins) == len(holding)
        assert all(m == sorted(m) for m in bins)

    def test_common_item_shares_a_bin(self):
        # The PSI correctness invariant: equal items meet in the bin the
        # cuckoo table chose for Alice's copy.
        alice = CuckooTable(list(range(40)))
        bins = bin_members(list(range(40)), alice.seeds, alice.n_bins)
        for i in range(40):
            b = [j for j, idx in enumerate(alice.bins) if idx == i][0]
            assert i in bins[b]


class TestLoadBound:
    """What the bin hashes promise simple hashing, and what the first
    PSI of a process must not import."""

    def test_bin_hashes_are_uniform(self):
        # Cuckoo hashing's failure bound assumes uniform, independent bin
        # hashes: chi-square
        # of each hash function's bin counts against the uniform law.
        from scipy.stats import chisquare

        d = item_digests(list(range(20000)))
        cand = candidate_bins(d, [bytes([h]) * 16 for h in range(3)], 100)
        for h in range(3):
            counts = np.bincount(cand[:, h], minlength=100)
            assert chisquare(counts).pvalue > 1e-4

    def test_secure_run_does_not_import_scipy(self):
        # A lazy import in the first PSI was ~1 s of every process's
        # first query, and scipy is not a declared dependency.
        code = (
            "import sys; from repro.mpc import Engine, Mode; "
            "from repro.tpch import PREPARED, generate; "
            "q = PREPARED['Q3'](generate(0.1)); "
            "q.run_secure(Engine(q.make_context(Mode.SIMULATED, seed=7))); "
            "sys.exit('scipy' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], timeout=120,
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
