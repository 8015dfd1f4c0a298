"""Shared fixtures: contexts, engines, and small random relations.

Also the suite-wide policy knobs: the hypothesis settings profile (so
no test file hard-codes its own example budget) and automatic ``real``
marking of every test that reaches REAL-mode cryptography through the
shared fixtures (``-m 'not real'`` then skips all of them).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.mpc.ot import CorrelatedBatch, LabelBatch, SimulatedOT
from repro.relalg import AnnotatedRelation, Hypergraph, IntegerRing

try:
    from hypothesis import settings as _hyp_settings

    # One shared example budget for every property test; select an
    # alternative with HYPOTHESIS_PROFILE=thorough (e.g. nightly).
    _hyp_settings.register_profile(
        "default", max_examples=25, deadline=None
    )
    _hyp_settings.register_profile("ci", max_examples=15, deadline=None)
    _hyp_settings.register_profile(
        "thorough", max_examples=200, deadline=None
    )
    _hyp_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "default")
    )
except ImportError:  # pragma: no cover - hypothesis is optional
    pass


def chain(n: int) -> Hypergraph:
    """``R0(a0, a1) - R1(a1, a2) - ...``: exactly one join tree."""
    return Hypergraph({f"R{i}": (f"a{i}", f"a{i + 1}") for i in range(n)})


def star(n: int) -> Hypergraph:
    """``n`` relations ``Ri(k, xi)``: all ``n^(n-2)`` trees are join trees."""
    return Hypergraph({f"R{i}": ("k", f"x{i}") for i in range(n)})


#: Fixtures whose use implies REAL-mode cryptography.
_REAL_FIXTURES = {"real_ctx", "real_engine"}


def pytest_collection_modifyitems(config, items):
    """Auto-mark ``real`` on tests that run REAL-mode crypto via the
    shared fixtures or a ``Mode.REAL`` parametrization."""
    for item in items:
        if _REAL_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.real)
            continue
        callspec = getattr(item, "callspec", None)
        if callspec is not None and any(
            v is Mode.REAL for v in callspec.params.values()
        ):
            item.add_marker(pytest.mark.real)


def make_engine(mode=Mode.SIMULATED, seed=0):
    """One-line engine factory for tests that need several engines (or
    non-fixture parametrisation).  Test modules alias it with their
    historical default seed via ``functools.partial`` instead of each
    re-defining the same helper."""
    return Engine(Context(mode, seed=seed))


def spy_scalar_muls(monkeypatch):
    """Record the scalar of every P-256 scalar multiplication from here
    on — the unit of public-key work — in the list returned: one entry
    per ``base_mul`` and one per point a ``mul``/``mul_x`` multiplies."""
    from repro.mpc import p256

    scalars = []
    for name in ("base_mul", "mul", "mul_x"):

        def spy(k, *points, real=getattr(p256, name)):
            value = k.private_numbers().private_value
            scalars.extend([value] * (len(points[0]) if points else 1))
            return real(k, *points)

        monkeypatch.setattr(p256, name, spy)
    return scalars


class IdealOT(SimulatedOT):
    """The ideal OT functionality, for REAL garbling without the
    extension's crypto (its own tests cover that; skipping its base
    phase keeps these fast): it charges what :class:`SimulatedOT`
    charges and, given choice bits, deals random pads or
    Δ-correlated labels from the context's RNG — one ``delta`` per
    instance, drawn at its first label batch."""

    _delta = None

    def correlated(self, choices, widths):
        batch = super().correlated(choices, widths)
        if choices is None:
            return batch
        r = np.asarray(choices, dtype=np.uint8) & 1
        if len(r) != sum(count for count, _ in widths):
            raise ValueError("one choice bit per OT is required")
        p0, p1 = (
            np.frombuffer(self.ctx.random_bytes(32 * len(r)), np.uint8)
            .reshape(-1, 32)
            for _ in range(2)
        )
        pc = np.where(r.astype(bool)[:, None], p1, p0)
        return CorrelatedBatch(self.ctx, widths, r, [p0, p1, pc])

    def labels(self, n, choices=None):
        super().labels(n)
        if choices is None:
            return None
        r = np.asarray(choices, dtype=np.uint8) & 1
        if len(r) != n:
            raise ValueError("one choice bit per OT is required")
        if self._delta is None:
            delta = np.frombuffer(self.ctx.random_bytes(16), np.uint8).copy()
            delta[0] |= 1
            self._delta = delta
        zero = np.frombuffer(self.ctx.random_bytes(16 * n), np.uint8)
        zero = zero.reshape(n, 16)
        return LabelBatch(zero, zero ^ (r[:, None] * self._delta), self._delta)


def run_circuit(ctx, ot, circuit, alice_bits, bob_bits, weights=None,
                offsets=None, alice_weights=None):
    """``circuit`` through the seam, one instance per row of the bit
    matrices, with Bob's optional row weights and word offsets and
    Alice's optional row weights: returns
    ``(words, bits)`` — the ``(n, n_words)`` reconstructed shared words
    (mod ``2**ell`` of the context) and the ``(n, revealed)`` output
    bits.  SIMULATED evaluates the circuit in the clear."""
    from repro.mpc.costs import circuit_counts
    from repro.mpc.yao import garbled_call

    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    n = len(alice_bits)

    def ideal():
        rows = range(n)
        words = [
            circuit.evaluate_words(
                alice_bits[i], bob_bits[i], ctx.params.ell,
                () if weights is None else weights[i],
                () if offsets is None else offsets[i],
                () if alice_weights is None else alice_weights[i],
            )
            for i in rows
        ]
        bits = [circuit.evaluate(alice_bits[i], bob_bits[i]) for i in rows]
        plain = np.asarray(words, dtype=np.uint64).reshape(n, -1)
        return (
            plain.T.reshape(-1) if circuit.rows else None,
            np.asarray(bits, dtype=np.uint8).reshape(n, -1),
        )

    shares, bits = garbled_call(
        ctx, ot, circuit_counts(circuit), n,
        real=lambda: (
            circuit, alice_bits, bob_bits, weights, offsets, alice_weights,
        ),
        ideal=ideal,
    )
    return shares.reconstruct().reshape(-1, n).T, bits


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def sim_ctx():
    return Context(Mode.SIMULATED, seed=1)


@pytest.fixture
def real_ctx():
    return Context(Mode.REAL, seed=2)


@pytest.fixture
def sim_engine(sim_ctx):
    return Engine(sim_ctx)


@pytest.fixture
def real_engine(real_ctx):
    return Engine(real_ctx)


@pytest.fixture(params=[Mode.SIMULATED, Mode.REAL])
def any_engine(request):
    ctx = Context(request.param, seed=3)
    return Engine(ctx)


RING = IntegerRing(32)


def random_relation(rng, attrs, n, key_range=8, annot_range=50, ring=RING):
    """A small random annotated relation with integer attributes."""
    tuples = [
        tuple(int(v) for v in rng.integers(0, key_range, len(attrs)))
        for _ in range(n)
    ]
    annots = rng.integers(0, annot_range, n)
    return AnnotatedRelation(attrs, tuples, annots, ring)
