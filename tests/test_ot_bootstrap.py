"""One public-key set-up per engine.

The forward extension instance's ``kappa`` Chou-Orlandi base OTs are
the only public-key OT work an engine does: its mirror ``ot.reverse``
and every KKRT OPRF take their base OTs as random OTs of an existing
extension instance.  Pinned here: the scalar-multiplication count of a
REAL query, the correctness of the bootstrapped seeds, estimator == metered
== REAL for each order in which the instances are first used, that
checkpoint/revive keeps the pair a pair, and the structural guard that
no second public-key call site comes back.
"""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.mpc.ot as ot_module
from repro.bench.estimator import estimate_query_cost
from repro.mpc import ALICE, BOB, Context, Engine, Mode, SecurityParams
from repro.mpc import costs
from repro.mpc.oprf import BatchedOprf
from repro.mpc.ot import make_ot
from repro.runtime import FaultPlan, enable_session
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.durable import revive

from .conftest import spy_scalar_muls
from .test_ot import assert_received_off_path
from .test_backends import two_relation_query

SRC = Path(repro.__file__).parent
KAPPA = 128
K = costs.SOFTSPOKEN_K


# ----------------------------------------------------------------------
# (a) scalar multiplications of a whole REAL query
# ----------------------------------------------------------------------


@pytest.mark.real
@pytest.mark.parametrize("backend", ["yannakakis", "linear"])
def test_real_q3_runs_one_chou_orlandi_per_engine(monkeypatch, backend):
    """Q3 at 0.03 MB (the benchmark's ``q3_real``): one base phase of
    4 * kappa + 1 scalar multiplications per engine, and under
    ``linear`` 3 per blinded and 1 per tokenised DH-OPRF element."""
    from repro.tpch import PREPARED, generate

    phases, muls = [], spy_scalar_muls(monkeypatch)
    real_base = ot_module._chou_orlandi

    def base_spy(*args):
        before = len(muls)
        out = real_base(*args)
        phases.append(len(muls) - before)
        return out

    monkeypatch.setattr(ot_module, "_chou_orlandi", base_spy)
    query = PREPARED["Q3"](generate(0.03))
    ctx = query.make_context(Mode.REAL, seed=7)
    engine = Engine(ctx)
    engine.backend = backend
    result, _ = query.run_secure(engine)
    assert result.semantically_equal(query.run_plain()[0])
    assert phases == [4 * KAPPA + 1]
    sent = {"blind": 0, "tokens": 0}
    for m in ctx.transcript.messages:
        kind = m.label.rsplit("/", 1)[-1]
        if kind in sent:
            sent[kind] += m.n_bytes
    m, n = sent["blind"] // 32, sent["tokens"] // costs.DH_TOKEN_BYTES
    assert (m > 0) == (backend == "linear")
    assert len(muls) == 4 * KAPPA + 1 + 3 * m + n


# ----------------------------------------------------------------------
# (b) the bootstrapped seeds are OTs of the offered pairs
# ----------------------------------------------------------------------


@pytest.mark.real
class TestBootstrappedSeeds:
    def test_mirror_receives_the_seed_its_bit_selects(self):
        """The mirror's trees grow from forward pads: the first level is
        the owner's pad pairs, and the punctured party receives every
        level's sum off its path — the first level's from its chosen
        pad, the deeper ones' as corrections in the first ``u``."""
        ctx = Context(Mode.REAL, seed=1)
        ot = make_ot(ctx)
        mirror = ot.reverse
        mirror._base_phase()
        assert len(mirror._s) == KAPPA
        level1 = mirror._level1
        assert level1.shape == (KAPPA // K, 2, 16)
        assert all(len({a.tobytes(), b.tobytes()}) == 2 for a, b in level1)
        # ... and the forward instance paid the one public-key phase.
        assert [lbl for _, _, lbl in ctx.transcript.fingerprint()] == [
            "ot/ext/base/ot/ext/base/A",
            "ot/ext/base/ot/ext/base/B",
            "ot/ext/base/ot/ext/base/ciphertexts",
            "ot/ext/base/ot/ext/u",
        ]
        with ctx.swapped_roles():
            mirror.labels(9, np.ones(9, dtype=np.uint8))
        assert ctx.transcript.fingerprint()[-1] == (
            BOB, KAPPA // K * 2 + costs.tree_correction_bytes(KAPPA),
            "ot/ext/u",
        )
        assert_received_off_path(mirror)

    def test_kkrt_columns_are_random_ots_of_the_mirror(self, monkeypatch):
        ctx = Context(Mode.REAL, seed=2)
        ot = make_ot(ctx)
        seen = []
        real_correlated = ot.reverse.correlated

        def spy(choices, widths):
            seen.append((choices, widths, real_correlated(choices, widths)))
            return seen[-1][2]

        monkeypatch.setattr(ot.reverse, "correlated", spy)
        fps = list(range(1, 9))
        oprf = BatchedOprf(ctx, ot, fps)
        (s, widths, cot), = seen
        assert widths == [(costs.OPRF_WIDTH, 128)] and len(s) == 448
        p0, p1, pc = cot.p0[0], cot.p1[0], cot.pc[0]
        assert (p0 != p1).any(axis=1).all()
        assert (pc == np.where(s[:, None].astype(bool), p1, p0)).all()
        # The OPRF built on them is consistent.
        assert (
            oprf.bob_eval(np.arange(len(fps)), np.asarray(fps))
            == oprf.alice_values
        ).all()


# ----------------------------------------------------------------------
# (c) estimator == metered == REAL, whichever instance is used first
# ----------------------------------------------------------------------


def _reverse_gilboa(engine, n=8):
    u = np.arange(1, n + 1, dtype=np.uint64)
    product = engine._gilboa_cross(BOB, u, u + np.uint64(100), "cross")
    assert (product.reconstruct() == u * (u + np.uint64(100))).all()


@pytest.mark.real
class TestFirstUseOrders:
    def both_modes(self, run):
        transcripts = []
        for mode in (Mode.REAL, Mode.SIMULATED):
            ctx = Context(mode, SecurityParams(ell=32), seed=9)
            run(Engine(ctx))
            transcripts.append(ctx.transcript)
        real, sim = transcripts
        # bytes, messages and labels — hence rounds — all agree
        assert real.fingerprint() == sim.fingerprint()
        assert real.rounds == sim.rounds
        return sim

    @pytest.mark.parametrize(
        "backend, base_labels",
        [
            # DH-OPRF join: the OEP of the parent's owner, Bob, opens
            # the mirror, which opens the forward instance
            (
                "linear",
                [
                    "oep/switches/ot/ext/base/ot/ext/base/A",
                    "B",
                    "ciphertexts",
                    "oep/switches/ot/ext/base/ot/ext/u",
                ],
            ),
            # the fold's PSI, Bob's, is the first OT consumer: its OPRF
            # opens the forward instance, its bin circuits the mirror
            (
                "yannakakis",
                [
                    "psi/oprf/base/ot/ext/base/A",
                    "B",
                    "ciphertexts",
                    "psi/oprf/base/ot/ext/u",
                    "bin_circuits/gc/alice_labels/ot/ext/base/ot/ext/u",
                ],
            ),
        ],
        ids=["forward-first", "psi-first"],
    )
    def test_query_routes(self, backend, base_labels):
        q = two_relation_query(6, 5, seed=4).set_backend(backend)
        out = len(q.run_plain())
        sim = self.both_modes(lambda e: q.run_secure(e))
        base = [m.label for m in sim.messages if "/base/" in m.label]
        assert len(base) == len(base_labels)
        assert all(got.endswith(w) for got, w in zip(base, base_labels))
        est = estimate_query_cost(q, out_size=out)
        assert est.total == sim.total_bytes

    def test_reverse_first(self):
        sim = self.both_modes(_reverse_gilboa)
        kappa_u, _ = costs.cot_bytes(KAPPA, costs.seed_ot_widths(KAPPA))
        u, ct = costs.cot_bytes(KAPPA, costs.gilboa_widths(32, 8))
        # the mirror's tree corrections ride in its first u
        assert [m.n_bytes for m in sim.messages] == [
            *costs.base_ot_bytes(KAPPA),
            kappa_u,
            u + costs.tree_correction_bytes(KAPPA),
            ct,
        ]
        assert (kappa_u, sim.rounds) == (512, 5)
        # the mirror's sender (Alice) chose in the forward batch
        assert [m.sender for m in sim.messages] == [
            ALICE, BOB, ALICE, ALICE, BOB, ALICE
        ]


# ----------------------------------------------------------------------
# checkpoint / revive keeps the pair a pair
# ----------------------------------------------------------------------


@pytest.mark.real
@pytest.mark.parametrize("via", ["deepcopy", "pickle"])
def test_checkpointed_engine_keeps_its_mirror(via):
    ctx = Context(Mode.REAL, SecurityParams(ell=32), seed=4)
    session = enable_session(ctx, FaultPlan(), seed=4)
    engine = Engine(ctx)
    _reverse_gilboa(engine)  # both set-ups done
    seeds = engine.ot.reverse._leaves_alice
    checkpoint = Checkpoint.capture(0, {}, engine, session)
    mark = len(ctx.transcript.messages)
    _reverse_gilboa(engine)  # the un-checkpointed continuation
    suffix = ctx.transcript.fingerprint()[mark:]
    assert [lbl for _, _, lbl in suffix] == [
        "cross/ot/ext/u", "cross/ot/ext/ciphertexts"
    ]

    if via == "deepcopy":
        checkpoint.restore({}, engine, session)
    else:
        engine, session, _, _ = revive(pickle.dumps(checkpoint))
    ot = engine.ot
    assert ot.reverse.reverse is ot and ot.reverse is not ot
    assert ot._base_done and ot.reverse._base_done
    assert (ot.reverse._leaves_alice == seeds).all()
    assert ot.reverse._leaves_alice is not seeds
    assert len(engine.ctx.transcript.messages) == mark
    _reverse_gilboa(engine)
    assert engine.ctx.transcript.fingerprint()[mark:] == suffix


@pytest.mark.parametrize("mode", [Mode.REAL, Mode.SIMULATED])
def test_pair_is_freed_without_the_cycle_collector(mode):
    """The mirror's back-reference is weak, so dropping the engine drops
    its context (circuits, transcript) at once: with a strong cycle,
    ``q3_real``'s peak RSS grew by 6 MB per operation."""
    import gc
    import weakref

    engine = Engine(Context(mode, seed=1))
    assert engine.ot.reverse.reverse is engine.ot
    gc.disable()
    try:
        ctx = weakref.ref(engine.ctx)
        del engine
        assert ctx() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# structural guard, beside tests/test_engine.py::TestOneSeam
# ----------------------------------------------------------------------


class TestOnePublicKeyCallSite:
    @staticmethod
    def trees():
        for path in sorted(SRC.rglob("*.py")):
            yield str(path.relative_to(SRC)), ast.parse(path.read_text())

    def test_chou_orlandi_has_one_caller(self):
        callers = [
            (name, cls.name, fn.name)
            for name, tree in self.trees()
            for cls in ast.walk(tree)
            if isinstance(cls, (ast.ClassDef, ast.Module))
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", ""))
            == "_chou_orlandi"
        ]
        assert callers == [
            ("mpc/ot.py", "SoftSpokenExtension", "_trees_by_chou_orlandi")
        ]

    def importers(self, module):
        """Source files with an import that names ``module``."""
        return sorted(
            {
                name
                for name, tree in self.trees()
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and module
                in {
                    part
                    for target in (
                        getattr(node, "module", None) or "",
                        *(alias.name for alias in node.names),
                    )
                    for part in target.split(".")
                }
            }
        )

    def test_only_ot_and_dhoprf_import_the_group(self):
        """OpenSSL is reached twice: P-256 for the public-key work and
        the fixed-key AES hash for the symmetric work."""
        assert self.importers("p256") == ["mpc/dhoprf.py", "mpc/ot.py"]
        assert self.importers("cryptography") == [
            "mpc/batch.py", "mpc/p256.py"
        ]

    def test_one_group_and_three_inert_names(self):
        """``group_bits`` or ``modp`` anywhere in ``src/``: the names
        the frozen benchmark harness still passes, and nothing else."""
        hits = [
            (name, line.strip())
            for path in sorted(SRC.rglob("*.py"))
            for name in [str(path.relative_to(SRC))]
            for line in path.read_text().splitlines()
            if "group_bits" in line or "modp" in line
        ]
        assert hits == [
            ("bench/estimator.py", "group_bits: Optional[int] = None,"),
            ("mpc/engine.py", "group_bits: Optional[int] = None,"),
            ("runtime/netrun.py", "group_bits: Optional[int] = None"),
        ]

    def test_no_narrow_exponent_hook(self):
        text = "".join(
            p.read_text() for p in sorted((SRC / "mpc").rglob("*.py"))
        )
        assert "exponent=" not in text
