"""The batched OPRF and the polynomial OPPRF hints."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import Context, Mode
from repro.mpc.oprf import (
    OPPRF_PRIME,
    BatchedOprf,
    charge_oprf_setup,
    lagrange_basis,
    poly_eval,
    poly_from_basis,
    poly_interpolate,
)
from repro.mpc.ot import make_ot
from repro.mpc.psi import psi_with_payloads

from .conftest import spy_scalar_muls

FIELD = st.integers(0, OPPRF_PRIME - 1)


class TestPolynomials:
    def test_interpolation_hits_points(self):
        pts = [(3, 10), (7, 20), (11, 5)]
        coeffs = poly_interpolate(pts)
        for x, y in pts:
            assert poly_eval(coeffs, x) == y

    def test_degree_matches_point_count(self):
        pts = [(1, 1), (2, 4), (3, 9), (4, 16)]
        assert len(poly_interpolate(pts)) == 4

    def test_rejects_duplicate_x(self):
        with pytest.raises(ValueError):
            poly_interpolate([(1, 2), (1, 3)])

    def test_random_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(1, 12))
            xs = list(
                {int(x) for x in rng.integers(0, OPPRF_PRIME, 3 * k)}
            )[:k]
            ys = [int(y) for y in rng.integers(0, OPPRF_PRIME, len(xs))]
            coeffs = poly_interpolate(list(zip(xs, ys)))
            for x, y in zip(xs, ys):
                assert poly_eval(coeffs, x) == y

    def test_constant_polynomial(self):
        coeffs = poly_interpolate([(5, 42)])
        assert poly_eval(coeffs, 999) == 42

    @given(
        points=st.dictionaries(FIELD, FIELD, max_size=28),
        # a second y-vector through the same xs, as PSI's payload
        # polynomial shares the token polynomial's basis
        other=st.lists(FIELD, min_size=28, max_size=28),
    )
    def test_hits_every_point_at_bin_sizes(self, points, other):
        pts = list(points.items())
        coeffs = poly_interpolate(pts)
        assert len(coeffs) == len(pts)  # degree < L
        assert all(0 <= c < OPPRF_PRIME for c in coeffs)
        for x, y in pts:
            assert poly_eval(coeffs, x) == y
        xs = [x for x, _ in pts]
        basis = lagrange_basis(xs)
        assert poly_from_basis(basis, [y for _, y in pts]) == coeffs
        ys2 = other[: len(xs)]
        assert poly_from_basis(basis, ys2) == poly_interpolate(
            list(zip(xs, ys2))
        )

    def test_basis_rejects_duplicate_x_mod_p(self):
        with pytest.raises(ValueError, match="distinct x"):
            lagrange_basis([3, 3 + OPPRF_PRIME])


@pytest.mark.real
class TestBatchedOprf:
    def test_real_alice_values_match_bob_evaluation(self):
        ctx = Context(Mode.REAL, seed=1)
        fps = [int(f) for f in np.random.default_rng(1).integers(
            0, 1 << 62, 12
        )]
        oprf = BatchedOprf(ctx, make_ot(ctx), fps)
        # Consistency: Bob evaluating on Alice's input recovers F_j(x_j).
        for j, fp in enumerate(fps):
            assert oprf.bob_eval(j, fp) == oprf.alice_values[j]

    def test_real_outputs_differ_across_rows(self):
        ctx = Context(Mode.REAL, seed=2)
        oprf = BatchedOprf(ctx, make_ot(ctx), [7, 7, 7])
        # The same input in different rows gets independent PRF values.
        assert len(set(oprf.alice_values)) == 3

    def test_real_other_inputs_look_unrelated(self):
        ctx = Context(Mode.REAL, seed=3)
        oprf = BatchedOprf(ctx, make_ot(ctx), [1, 2])
        assert oprf.bob_eval(0, 99) != oprf.alice_values[0]

    def test_simulated_charges_real_shape(self):
        """SIMULATED mode charges, message for message, what the REAL
        set-up sends — on a fresh OT pair (both base phases nested in
        the OPRF's) and on a warm one — and never constructs the
        protocol object."""
        real = Context(Mode.REAL, seed=5)
        sim = Context(Mode.SIMULATED, seed=5)
        real_ot, sim_ot = make_ot(real), make_ot(sim)
        for m in (0, 40):
            BatchedOprf(real, real_ot, list(range(m)))
            charge_oprf_setup(sim, sim_ot, m)
            assert (
                sim.transcript.fingerprint()
                == real.transcript.fingerprint()
            )
        assert [n for _, n, _ in sim.transcript.fingerprint()[-2:]] == [
            128 * 448 // 8, 448 * 40 // 8
        ]
        with pytest.raises(ValueError, match="charge_oprf_setup"):
            BatchedOprf(sim, sim_ot, [1, 2])

    def test_empty_input(self):
        ctx = Context(Mode.REAL, seed=6)
        oprf = BatchedOprf(ctx, make_ot(ctx), [])
        assert oprf.alice_values == []


@pytest.mark.real
def test_real_psi_draws_only_full_width_dh_exponents(monkeypatch):
    """Every secret scalar of a scalar multiplication a REAL PSI
    computes — the engine's base OTs are all of them — must be full
    width: a ``k``-bit scalar falls to Pollard's kangaroo in
    ``2^(k/2)``."""
    drawn = spy_scalar_muls(monkeypatch)
    ctx = Context(Mode.REAL, seed=11)
    psi_with_payloads(ctx, make_ot(ctx), [1, 2, 3], [2, 3, 4], [7, 8, 9])
    assert drawn
    assert all(k.bit_length() > 236 for k in drawn)
