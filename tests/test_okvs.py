"""The OKVS behind PSI's OPPRF: round trips, a public table size, and
the failure bound its dense part is sized by."""

import math

import numpy as np
import pytest

from repro.mpc.okvs import (
    EXPANSION,
    Okvs,
    _peel,
    dense_width,
    okvs_slots,
    pack_table,
    unpack_table,
)

SIGMA = 40


def random_keys(rng, n):
    """``n`` distinct ``(bin, fingerprint)`` keys."""
    keys = np.stack(
        [
            rng.choice(max(n, 1) * 4, size=n, replace=False),
            rng.integers(0, 1 << 62, size=n),
        ],
        axis=1,
    ).astype(np.uint64)
    return keys


def random_values(rng, n):
    return rng.integers(0, 1 << 64, size=(n, 2), dtype=np.uint64)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 4500])
def test_every_encoded_key_decodes_to_its_value(n):
    rng = np.random.default_rng(n)
    okvs = Okvs(n, SIGMA, b"seed")
    keys, values = random_keys(rng, n), random_values(rng, n)
    table = okvs.encode(keys, values, rng)
    assert table.shape == (okvs_slots(n, SIGMA), 2)
    assert (okvs.decode(table, keys) == values).all()


def test_table_size_is_a_function_of_the_bound():
    """Neither the keys, nor how many there are below the bound, nor
    the hash seed moves the table size."""
    rng = np.random.default_rng(1)
    for bound in (1, 5, 24, 300, 4500):
        sizes = {
            Okvs(bound, SIGMA, seed).encode(
                random_keys(rng, n), random_values(rng, n), rng
            ).shape
            for seed, n in [(b"a", bound), (b"b", bound), (b"a", bound // 2)]
        }
        assert sizes == {(okvs_slots(bound, SIGMA), 2)}
        assert okvs_slots(bound, SIGMA) == 3 * math.ceil(
            EXPANSION * bound / 3
        ) + dense_width(bound, SIGMA)


def test_dedup_keeps_the_table_shape():
    """Bob's entries of an item whose bin hashes collide are one key,
    not three: the deduplicated key set encodes under the same bound
    into the same table shape, and every key still decodes."""
    rng = np.random.default_rng(2)
    items = rng.integers(0, 1 << 62, size=50, dtype=np.uint64)
    bins = rng.integers(0, 8, size=(50, 3)).astype(np.uint64)  # collide
    entries = np.stack([bins.ravel(), np.repeat(items, 3)], axis=1)
    distinct = np.unique(entries, axis=0)
    assert len(distinct) < len(entries)
    okvs = Okvs(len(entries), SIGMA, b"dedup")
    values = random_values(rng, len(distinct))
    table = okvs.encode(distinct, values, rng)
    assert table.shape == (okvs_slots(150, SIGMA), 2)
    assert (okvs.decode(table, distinct) == values).all()


def test_no_failures_over_small_encodings():
    """Small key sets are where peeling most often leaves a 2-core
    (about 4 in 10 below 40 keys): the dense part solves every one."""
    rng = np.random.default_rng(3)
    cores = 0
    for trial in range(2000):
        n = int(rng.integers(2, 40))
        okvs = Okvs(n, SIGMA, trial.to_bytes(4, "little"))
        keys, values = random_keys(rng, n), random_values(rng, n)
        cores += len(_peel(okvs.rows(keys)[0], 3 * okvs.k)[1]) > 0
        table = okvs.encode(keys, values, rng)
        assert (okvs.decode(table, keys) == values).all()
    assert cores > 500  # the elimination really ran


def test_dependent_rows_abort():
    """A repeated key with two values cannot be encoded: the encoder
    raises and does not retry."""
    rng = np.random.default_rng(4)
    keys = random_keys(rng, 10)
    keys[9] = keys[0]
    with pytest.raises(RuntimeError, match="OKVS encoding failed"):
        Okvs(10, SIGMA, b"x").encode(keys, random_values(rng, 10), rng)


def test_unpinned_slots_are_uniform():
    """Slots no key touches keep their random draw: with no keys the
    table is the draw itself, and its bits are balanced."""
    rng = np.random.default_rng(5)
    table = Okvs(500, SIGMA, b"u").encode(
        np.zeros((0, 2), np.uint64), np.zeros((0, 2), np.uint64), rng
    )
    ones = np.unpackbits(table.view(np.uint8)).mean()
    assert abs(ones - 0.5) < 0.01


def exact_zero_sum_sets(n):
    """``E`` exactly: ``sum_s C(n, s) q(s)^3`` with the character sum
    ``q(s) = 2^-k sum_j C(k, j) (1 - 2j/k)^s``."""
    k = math.ceil(EXPANSION * n / 3)
    total = 0.0
    for s in range(2, n + 1, 2):
        q = sum(math.comb(k, j) * (1 - 2 * j / k) ** s for j in range(k + 1))
        total += math.comb(n, s) * (q / 2**k) ** 3
    return total


@pytest.mark.parametrize("n", [2, 3, 6, 12, 20, 30, 60])
def test_dense_width_covers_the_exact_union_bound(n):
    """``2^-d * E <= 2^-sigma``, with ``E`` the expected number of
    zero-sum row sets computed exactly at small ``n``."""
    extra = dense_width(n, SIGMA) - SIGMA
    assert 0 <= extra <= 1
    assert exact_zero_sum_sets(n) <= 2.0**extra


def test_dense_width_is_sigma_at_scale():
    for n in (300, 4500, 181_152):
        assert dense_width(n, SIGMA) == SIGMA
    assert dense_width(181_152, 80) == 80


@pytest.mark.parametrize(
    "bits", [(55, 32), (61, 64), (41, 48), (1, 1), (64, 1)]
)
def test_packed_table_decodes_to_the_low_bits(bits):
    """PSI sends the table at the token's and the ring's bits per slot:
    ``ceil(slots * sum(bits) / 8)`` bytes, and a decode of the unpacked
    table is the full decode with each column cut to its bits — for
    every key, encoded or not."""
    rng = np.random.default_rng(sum(bits))
    n = 300
    okvs = Okvs(n, SIGMA, b"packed")
    keys, values = random_keys(rng, n), random_values(rng, n)
    table = okvs.encode(keys, values, rng)
    wire = pack_table(table, bits)
    assert wire.nbytes == -(-len(table) * sum(bits) // 8)
    received = unpack_table(wire, len(table), bits)
    masks = np.asarray(
        [(1 << b) - 1 for b in bits], dtype=np.uint64
    )
    assert (received == table & masks).all()
    others = random_keys(rng, 50)
    for probe in (keys, others):
        full = okvs.decode(table, probe)
        assert (okvs.decode(received, probe) == full & masks).all()
    assert (okvs.decode(received, keys) == values & masks).all()
