"""The differential-privacy extension (Section 7)."""

from functools import partial

import numpy as np
import pytest

from repro.core.dp import (
    discrete_laplace,
    dp_reveal,
    joint_sensitivity,
    max_multiplicity,
)
from repro.mpc import ALICE, BOB
from repro.relalg import AnnotatedRelation, IntegerRing
from repro.tpch.queries import to_signed

from .conftest import make_engine

RING = IntegerRing(32)


mk_engine = partial(make_engine, seed=3)


class TestSensitivity:
    def test_max_multiplicity(self):
        rel = AnnotatedRelation(
            ("k", "v"), [(1, 1), (1, 2), (1, 3), (2, 1)], None, RING
        )
        assert max_multiplicity(rel, ["k"]) == 3
        assert max_multiplicity(rel, ["k", "v"]) == 1

    def test_empty_relation(self):
        rel = AnnotatedRelation(("k",), [], None, RING)
        assert max_multiplicity(rel, ["k"]) == 0

    def test_joint_sensitivity_is_product(self):
        eng = mk_engine()
        assert joint_sensitivity(eng, 3, 7) == 21

    def test_joint_sensitivity_uses_protocol(self):
        eng = mk_engine()
        before = eng.ctx.transcript.total_bytes
        joint_sensitivity(eng, 2, 2)
        assert eng.ctx.transcript.total_bytes > before


class TestNoise:
    def test_zero_scale_is_noiseless(self):
        rng = np.random.default_rng(0)
        assert (discrete_laplace(rng, 0, 10) == 0).all()

    def test_distribution_shape(self):
        rng = np.random.default_rng(1)
        samples = discrete_laplace(rng, 5.0, 20_000)
        # symmetric around 0, std close to sqrt(2)*b for the two-sided
        # geometric with b=5
        assert abs(samples.mean()) < 0.5
        assert 5.0 < samples.std() < 9.0

    def test_integer_valued(self):
        rng = np.random.default_rng(2)
        assert discrete_laplace(rng, 2.5, 100).dtype == np.int64


class TestDpReveal:
    def test_noise_magnitude_tracks_epsilon(self):
        eng = mk_engine()
        true = 1_000_000
        sv = eng.share(ALICE, [true] * 400)
        loose = dp_reveal(eng, sv, sensitivity=10, epsilon=0.1)
        tight = dp_reveal(eng, sv, sensitivity=10, epsilon=100.0)
        err_loose = np.mean(
            [abs(to_signed(int(v) - true, 32)) for v in loose]
        )
        err_tight = np.mean(
            [abs(to_signed(int(v) - true, 32)) for v in tight]
        )
        assert err_tight < err_loose

    def test_tight_epsilon_is_nearly_exact(self):
        eng = mk_engine()
        sv = eng.share(BOB, [500])
        out = dp_reveal(eng, sv, sensitivity=1, epsilon=1000.0)
        assert abs(to_signed(int(out[0]) - 500, 32)) <= 1

    def test_rejects_bad_epsilon(self):
        eng = mk_engine()
        sv = eng.share(ALICE, [1])
        with pytest.raises(ValueError):
            dp_reveal(eng, sv, sensitivity=1, epsilon=0)

    def test_noise_added_before_reveal(self):
        """Alice's view contains only the noisy value: the reveal message
        carries Bob's (already noised) share."""
        eng = mk_engine(seed=9)
        sv = eng.share(ALICE, [100])
        out1 = dp_reveal(eng, sv, sensitivity=50, epsilon=0.5)
        out2 = dp_reveal(eng, sv, sensitivity=50, epsilon=0.5)
        # fresh noise each time
        assert int(out1[0]) != int(out2[0])
