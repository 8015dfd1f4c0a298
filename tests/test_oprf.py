"""The batched OPRF and the polynomial OPPRF hints.

The batched ``GF(2^61 - 1)`` interpolation is pinned coefficient for
coefficient against the one-bin-at-a-time oracle in
``tests/reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import Context, Mode
from repro.mpc.costs import SOFTSPOKEN_K
from repro.mpc.oprf import (
    OPPRF_PRIME,
    BatchedOprf,
    _inverse,
    charge_oprf_setup,
    horner,
    interpolate,
    mulmod,
)
from repro.mpc.ot import make_ot
from repro.mpc.psi import _make_distinct, psi_with_payloads

from . import reference
from .conftest import spy_scalar_muls

P = OPPRF_PRIME
FIELD = st.integers(0, P - 1)


def batched(points, *more_ys):
    """:func:`interpolate` on one bin: the coefficient rows of the
    polynomials through ``points`` and through their xs with each of
    ``more_ys``."""
    xs = np.array([[x for x, _ in points]], dtype=np.uint64).reshape(1, -1)
    ys = np.array(
        [[[y for _, y in points], *more_ys]], dtype=np.uint64
    ).reshape(1, 1 + len(more_ys), -1)
    return [[int(c) for c in row] for row in interpolate(xs, ys)[0]]


def evaluate(coeffs, x):
    """:func:`horner` on one polynomial."""
    c = np.array(coeffs, dtype=np.uint64).reshape(1, 1, -1)
    return int(horner(c, np.array([x], dtype=np.uint64))[0, 0])


class TestFieldArithmetic:
    # p - 1 = 2^61 - 2; the limb boundaries 2^32 and 2^60.
    EDGES = [0, 1, 2, P - 2, P - 1, 2**32 - 1, 2**32, 2**60]

    def test_mulmod_matches_python_ints(self):
        rng = np.random.default_rng(0)
        # p itself is a word below 2^61 too, and reads as 0.
        vals = self.EDGES + [P] + [int(v) for v in rng.integers(0, P, 300)]
        a = np.array(vals, dtype=np.uint64)
        got = mulmod(a[:, None], a[None, :])
        assert got.dtype == np.uint64
        for i, x in enumerate(vals):
            assert [int(v) for v in got[i]] == [x * y % P for y in vals]

    def test_inverse_matches_python_ints(self):
        rng = np.random.default_rng(1)
        vals = [v for v in self.EDGES if v] + [
            int(v) for v in rng.integers(1, P, 100)
        ]
        got = _inverse(np.array(vals, dtype=np.uint64))
        assert [int(v) for v in got] == [pow(x, -1, P) for x in vals]


class TestBatchedInterpolation:
    @pytest.mark.parametrize(
        "n_bins,load,rows", [(0, 5, 2), (3, 1, 2), (1, 1, 1), (7, 10, 3)]
    )
    @pytest.mark.parametrize("near_p", [False, True])
    def test_equals_reference(self, n_bins, load, rows, near_p):
        rng = np.random.default_rng(n_bins * 100 + load)
        low = P - 4 * load if near_p else 0
        xs = np.array(
            [low + rng.choice(P - low, load, replace=False)
             for _ in range(n_bins)],
            dtype=np.uint64,
        ).reshape(n_bins, load)
        ys = rng.integers(0, P, size=(n_bins, rows, load), dtype=np.uint64)
        coeffs = interpolate(xs, ys)
        assert coeffs.shape == (n_bins, rows, load)
        at = rng.integers(0, P, size=n_bins, dtype=np.uint64)
        values = horner(coeffs, at)
        for b in range(n_bins):
            basis = reference.lagrange_basis([int(x) for x in xs[b]])
            for r in range(rows):
                want = reference.poly_from_basis(
                    basis, [int(y) for y in ys[b, r]]
                )
                assert [int(c) for c in coeffs[b, r]] == want
                assert int(values[b, r]) == reference.poly_eval(
                    want, int(at[b])
                )

    def test_random_bin_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n_bins, load = (int(v) for v in rng.integers(1, 30, 2))
            xs = np.stack(
                [rng.choice(P, load, replace=False) for _ in range(n_bins)]
            ).astype(np.uint64)
            ys = rng.integers(0, P, size=(n_bins, 2, load), dtype=np.uint64)
            coeffs = interpolate(xs, ys)
            for b in range(n_bins):
                pts = list(zip(xs[b].tolist(), ys[b, 0].tolist()))
                assert coeffs[b, 0].tolist() == reference.poly_interpolate(
                    pts
                )


class TestPolynomials:
    def test_interpolation_hits_points(self):
        pts = [(3, 10), (7, 20), (11, 5)]
        (coeffs,) = batched(pts)
        for x, y in pts:
            assert evaluate(coeffs, x) == y

    def test_degree_matches_point_count(self):
        pts = [(1, 1), (2, 4), (3, 9), (4, 16)]
        assert len(batched(pts)[0]) == 4
        assert batched(pts)[0] == reference.poly_interpolate(pts)

    def test_rejects_duplicate_x(self):
        """The oracle rejects a repeated point; PSI never hands the
        batched kernel one (:func:`repro.mpc.psi._make_distinct`)."""
        with pytest.raises(ValueError):
            reference.poly_interpolate([(1, 2), (1, 3)])

    def test_random_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(1, 12))
            xs = list(
                {int(x) for x in rng.integers(0, P, 3 * k)}
            )[:k]
            ys = [int(y) for y in rng.integers(0, P, len(xs))]
            (coeffs,) = batched(list(zip(xs, ys)))
            for x, y in zip(xs, ys):
                assert evaluate(coeffs, x) == y

    def test_constant_polynomial(self):
        (coeffs,) = batched([(5, 42)])
        assert evaluate(coeffs, 999) == 42

    @given(
        points=st.dictionaries(FIELD, FIELD, max_size=28),
        # a second y-vector through the same xs, as PSI's payload
        # polynomial shares the token polynomial's points
        other=st.lists(FIELD, min_size=28, max_size=28),
    )
    def test_hits_every_point_at_bin_sizes(self, points, other):
        pts = list(points.items())
        ys2 = other[: len(pts)]
        coeffs, coeffs2 = batched(pts, ys2)
        assert len(coeffs) == len(pts)  # degree < L
        assert all(0 <= c < P for c in coeffs)
        for x, y in pts:
            assert evaluate(coeffs, x) == y
        assert coeffs == reference.poly_interpolate(pts)
        assert coeffs2 == reference.poly_interpolate(
            list(zip([x for x, _ in pts], ys2))
        )

    def test_basis_rejects_duplicate_x_mod_p(self):
        with pytest.raises(ValueError, match="distinct x"):
            reference.lagrange_basis([3, 3 + P])


class TestBinPoints:
    def test_colliding_fillers_are_redrawn(self):
        xs = np.array([[5, 5, 9, 5], [1, 2, 3, 4]], dtype=np.uint64)
        filler = np.array([[False, True, True, True], [True] * 4])
        before = xs.copy()
        _make_distinct(np.random.default_rng(0), xs, filler)
        assert all(len(set(row)) == 4 for row in xs.tolist())
        # Bob's own point and every non-colliding point stay put.
        assert xs[0, 0] == 5 and xs[0, 2] == 9
        assert (xs[1] == before[1]).all()

    def test_colliding_items_raise(self):
        xs = np.array([[7, 3, 7]], dtype=np.uint64)
        filler = np.array([[False, True, False]])
        with pytest.raises(RuntimeError, match="collision inside a bin"):
            _make_distinct(np.random.default_rng(0), xs, filler)

    @pytest.mark.real
    def test_forced_in_bin_oprf_collision_raises(self, monkeypatch):
        """Bob's OPRF values colliding inside a bin is the OPPRF's
        failure event: forced here, PSI still refuses to interpolate."""
        monkeypatch.setattr(
            BatchedOprf,
            "bob_eval",
            lambda self, rows, fps: np.zeros(len(rows), dtype=np.uint64),
        )
        ctx = Context(Mode.REAL, seed=4)
        with pytest.raises(RuntimeError, match="collision inside a bin"):
            psi_with_payloads(
                ctx, make_ot(ctx), list(range(4)), list(range(40)),
                list(range(40)),
            )


@pytest.mark.real
class TestBatchedOprf:
    def test_real_alice_values_match_bob_evaluation(self):
        ctx = Context(Mode.REAL, seed=1)
        fps = [int(f) for f in np.random.default_rng(1).integers(
            0, 1 << 62, 12
        )]
        oprf = BatchedOprf(ctx, make_ot(ctx), fps)
        # Consistency: Bob evaluating on Alice's input recovers F_j(x_j).
        rows = np.arange(len(fps))
        assert (oprf.bob_eval(rows, np.array(fps)) == oprf.alice_values).all()
        # ... in any order, with repeats, each item's code computed once.
        rows = np.array([3, 0, 3, 11, 5, 0])
        assert (
            oprf.bob_eval(rows, np.array(fps)[rows]) == oprf.alice_values[rows]
        ).all()

    def test_real_outputs_differ_across_rows(self):
        ctx = Context(Mode.REAL, seed=2)
        oprf = BatchedOprf(ctx, make_ot(ctx), [7, 7, 7])
        # The same input in different rows gets independent PRF values.
        assert len(set(oprf.alice_values)) == 3

    def test_real_other_inputs_look_unrelated(self):
        ctx = Context(Mode.REAL, seed=3)
        oprf = BatchedOprf(ctx, make_ot(ctx), [1, 2])
        (value,) = oprf.bob_eval(np.array([0]), np.array([99]))
        assert value != oprf.alice_values[0]

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
            128 // SOFTSPOKEN_K * 448 // 8, 448 * 40 // 8
        ]
        with pytest.raises(ValueError, match="charge_oprf_setup"):
            BatchedOprf(sim, sim_ot, [1, 2])

    def test_empty_input(self):
        ctx = Context(Mode.REAL, seed=6)
        oprf = BatchedOprf(ctx, make_ot(ctx), [])
        assert len(oprf.alice_values) == 0


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
