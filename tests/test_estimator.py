"""The analytic cost estimator against the metered execution."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.bench.estimator import estimate_plan_cost, estimate_query_cost
from repro.core import SecureRelation, secure_yannakakis
from repro.exec import ExecutionTrace
from repro.mpc import ALICE, BOB, Context, Engine, Mode, SecurityParams
from repro.mpc.circuits.garbling import SEED_BYTES
from repro.mpc.costs import (
    SOFTSPOKEN_K,
    cot_bytes,
    tree_correction_bytes,
)
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
)
from repro.yannakakis import build_plan, build_two_phase_plan

from .test_backends import chain_query, two_relation_query

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def run_and_estimate(owners, n1, n2, output=("b",), seed=0, ell=32):
    rng = np.random.default_rng(seed)
    ring = IntegerRing(ell)
    params = SecurityParams(ell=ell)
    r1 = AnnotatedRelation(
        ("a", "b"),
        [(int(x), int(y)) for x, y in rng.integers(0, 50, (n1, 2))],
        rng.integers(1, 9, n1),
        ring,
    )
    r2 = AnnotatedRelation(
        ("b", "c"),
        [(int(x), int(y)) for x, y in rng.integers(0, 50, (n2, 2))],
        rng.integers(1, 9, n2),
        ring,
    )
    rels = {"R1": r1, "R2": r2}
    h = Hypergraph({n: r.attributes for n, r in rels.items()})
    plan = build_plan(find_free_connex_tree(h, set(output)), output)
    engine = Engine(Context(Mode.SIMULATED, params, seed=1))
    sec = {
        n: SecureRelation.from_annotated(owners[n], rels[n]) for n in rels
    }
    result, stats = secure_yannakakis(engine, sec, plan)
    est = estimate_plan_cost(
        plan,
        {"R1": n1, "R2": n2},
        owners,
        out_size=len(result),
        params=params,
    )
    assert stats.total_bytes == engine.ctx.transcript.total_bytes
    return engine.ctx.transcript, est


def assert_exact(est, transcript):
    """The estimate is the metered transcript's bytes, message count
    and rounds."""
    assert est == (
        transcript.total_bytes, len(transcript.messages), transcript.rounds
    )


class TestAccuracy:
    @pytest.mark.parametrize("n1,n2", [(10, 10), (40, 25), (7, 60)])
    def test_cross_party_exact(self, n1, n2):
        transcript, est = run_and_estimate(
            {"R1": ALICE, "R2": BOB}, n1, n2, seed=n1
        )
        assert_exact(est, transcript)

    def test_reverse_ownership_exact(self):
        transcript, est = run_and_estimate({"R1": BOB, "R2": ALICE}, 30, 20)
        assert_exact(est, transcript)

    def test_same_party_exact(self):
        # Plain-annotated inputs reach the full join: each relation is
        # secret-shared exactly once there.
        transcript, est = run_and_estimate({"R1": ALICE, "R2": ALICE}, 40, 25)
        assert_exact(est, transcript)

    def test_semijoin_phase_exact(self):
        # Output on both ends forces the semijoin/full-join phases.
        transcript, est = run_and_estimate(
            {"R1": ALICE, "R2": BOB}, 20, 20, output=("a", "b", "c")
        )
        assert_exact(est, transcript)

    @pytest.mark.parametrize("ell", [16, 20, 32, 44, 48])
    def test_exact_at_every_ring_width(self, ell):
        # A ring element is packed to ceil(ell / 8) bytes by every
        # primitive, share and reveal included.
        transcript, est = run_and_estimate(
            {"R1": ALICE, "R2": BOB}, 40, 25, ell=ell
        )
        assert_exact(est, transcript)


def _node_windows(trace, messages):
    """Each trace node with the transcript messages of its window (the
    scheduler dispatches every step under a node, back to back)."""
    off = 0
    for node in trace.nodes:
        yield node, messages[off : off + node.n_messages]
        off += node.n_messages


def two_phase(q):
    """``q`` pinned to its plan's two-phase ablation order (semijoins
    before the reduce phase), which runs the same nodes on operands of
    different plainness."""
    plan = q.plan()
    q._plan = build_two_phase_plan(plan.tree, plan.output)
    return q


class TestEstimatorEqualsMetered:
    """The estimator against the trace on every regime a fold/semijoin
    node has: back-end x owner split x child annotations (input-plain
    on the two-relation query; on the chain, r2 is shared by the time
    it folds into r1 whenever r3 -> r2 crossed owners) x phase order."""

    QUERIES = [
        pytest.param(
            lambda o=o: two_relation_query(24, 16, owners=o),
            id="pair-" + "".join(p[0] for p in o),
        )
        for o in itertools.product((ALICE, BOB), repeat=2)
    ] + [
        pytest.param(
            lambda o=o: chain_query(owners=o),
            id="chain-" + "".join(p[0] for p in o),
        )
        for o in itertools.product((ALICE, BOB), repeat=3)
    ] + [
        pytest.param(
            lambda: two_phase(chain_query()), id="chain-aba-two_phase"
        ),
    ]

    @pytest.mark.parametrize("backend", ["yannakakis", "linear"])
    @pytest.mark.parametrize("build", QUERIES)
    def test_plan_total_and_every_node(self, build, backend):
        q = build().set_backend(backend)
        tracer = ExecutionTrace()
        ctx = Context(Mode.SIMULATED, seed=5)
        result, _ = q.run_secure(Engine(ctx, tracer=tracer))
        est = estimate_query_cost(q, out_size=len(result))
        assert_exact(est, ctx.transcript)
        priced = 0
        for node, window in _node_windows(tracer, ctx.transcript.messages):
            if node.est_bytes is None:
                continue
            priced += 1
            # The marginal price leaves out the one-time base OTs,
            # which land in whichever node runs the first batch, and
            # the mirror's tree corrections, which ride in the first
            # ``u`` of the mirror that batch sets up.
            base = sum(
                m.n_bytes for m in window if "ot/ext/base/" in m.label
            )
            if any(
                m.label.endswith("ot/ext/base/ot/ext/u") for m in window
            ):
                base += tree_correction_bytes(128)
            assert node.est_bytes == node.n_bytes - base, node.label
        assert priced == len(q.backend_assignments())


class TestOneCostModel:
    """Structural guard: the estimator runs SIMULATED's own charge paths
    and sends only single messages itself, sized by ``repro.mpc.costs``."""

    CHARGE_PATHS = {
        "mpc.ot": {"SimulatedOT"},
        "mpc.yao": {"garbled_call"},
        "mpc.oprf": {"charge_oprf_setup"},
        "mpc.psi": {"charge_opprf"},
        "mpc.dhoprf": {"charge_dh_oprf"},
        "mpc.context": {"ALICE", "BOB", "Mode", "Meter"},
    }

    #: the multi-message primitives' sizes, which only the charge paths
    #: may compose
    PRIMITIVE_SIZES = {
        "cot_bytes", "garbled_bytes", "base_ot_bytes",
        "tree_correction_bytes", "kkrt_setup_bytes", "dh_oprf_bytes",
        "opprf_hint_bytes",
    }

    def test_estimator_imports_only_the_cost_model(self):
        tree = ast.parse((SRC / "bench" / "estimator.py").read_text())
        allowed = {"costs", "gadgets", "params"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            names = {a.name for a in node.names}
            if module == "mpc":
                assert names <= allowed, names
            elif module in self.CHARGE_PATHS:
                assert names <= self.CHARGE_PATHS[module], names
            elif module.startswith("mpc."):
                assert module[len("mpc."):] in allowed, module
        called = {
            getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert called & self.PRIMITIVE_SIZES == set()

    def test_estimator_internals_stay_internal(self):
        # Nothing outside the estimator builds its accumulator or its
        # meter; marginal prices come from estimate_node_bytes.
        private = ("_" "Estimator", "_" "Meter")
        root = SRC.parents[1]
        offenders = [
            str(path.relative_to(root))
            for top in ("src", "tests")
            for path in sorted((root / top).rglob("*.py"))
            if path != SRC / "bench" / "estimator.py"
            and any(name in path.read_text() for name in private)
        ]
        assert offenders == []


class TestBreakdown:
    def test_estimate_scales_linearly(self):
        _, small = run_and_estimate({"R1": ALICE, "R2": BOB}, 20, 20)
        _, big = run_and_estimate({"R1": ALICE, "R2": BOB}, 80, 80)
        ratio = big.total / small.total
        assert 2.5 < ratio < 6  # ~4x data, ~linear cost


class TestByteBudgetPin:
    """Q3 at 1 MB, SIMULATED, yannakakis: the wire format's bottom line.
    A change to a primitive's wire size is made in ``mpc/costs.py`` —
    and then here, knowingly."""

    TOTAL = 15_822_880
    #: set-up bytes (the benchmark's ``mpc.bytes.base_ot``): the one
    #: Chou-Orlandi phase, the mirror's seed-OT ``u``, one per PSI
    BASE = 8_353 + 512 + 2 * 1_792
    #: bytes per label class (the benchmark's ``mpc.bytes.*`` split),
    #: base OTs excluded
    GROUPS = {
        "gc/bob_labels": 64,
        # label OTs: the u columns alone, the first batch's with the
        # mirror's 3,072 B of tree corrections
        "gc/alice_labels/": 978_368,
        "/switches/": 2_129_904,
        "/cross": 1_152_000,
        # three-halves tables, then the decode bits and translated rows
        "gc/tables": 9_295_423,
        "gc/decode": 241_980,
        # the PSI payloads' evaluator rows: 8 B per bin (u, correction)
        "gc/alice_weights/": 30_536,
    }

    #: Q3 at 0.1 MB under each join back-end: (bytes, rounds)
    BACKENDS = {
        "yannakakis": (1_537_052, 29),
        "linear": (1_046_438, 21),
        "auto": (1_046_438, 21),
    }

    @staticmethod
    def transcript(scale_mb, backend):
        from repro.tpch.datagen import generate
        from repro.tpch.queries import PREPARED

        query = PREPARED["Q3"](generate(scale_mb))
        ctx = query.make_context(Mode.SIMULATED, seed=7)
        engine = Engine(ctx)
        engine.backend = backend
        query.run_secure(engine)
        return ctx.transcript

    @pytest.fixture(scope="class")
    def messages(self):
        return self.transcript(1, "yannakakis").messages

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bytes_and_rounds_per_backend(self, backend):
        t = self.transcript(0.1, backend)
        assert (t.total_bytes, t.rounds) == self.BACKENDS[backend]

    def test_total_and_label_groups(self, messages):
        assert sum(m.n_bytes for m in messages) == self.TOTAL
        base = sum(m.n_bytes for m in messages if "/base/" in m.label)
        assert base == self.BASE
        messages = [m for m in messages if "/base/" not in m.label]
        for pattern, want in self.GROUPS.items():
            got = sum(m.n_bytes for m in messages if pattern in m.label)
            assert got == want, pattern

    def test_groups_follow_the_closed_forms(self, messages):
        """One seed and one label batch per garbled batch, the label
        batch its ``u`` alone (``kappa/k`` bytes per 8 OTs, no
        ciphertexts); every uniform-width C-OT batch is ``(kappa/k bytes
        per 8 OTs, one ciphertext per OT)``."""
        messages = [m for m in messages if "/base/" not in m.label]
        seeds = [m for m in messages if m.label.endswith("gc/bob_labels")]
        tables = [m for m in messages if m.label.endswith("gc/tables")]
        assert [m.n_bytes for m in seeds] == [SEED_BYTES] * len(tables)
        labels = [m for m in messages if "gc/alice_labels/" in m.label]
        assert [m.label.rsplit("/", 3)[-3:] for m in labels] == [
            ["ot", "ext", "u"]
        ] * len(tables)
        assert all(m.n_bytes % (128 // SOFTSPOKEN_K) == 0 for m in labels)
        batch = [m.n_bytes for m in messages if "/cross" in m.label]
        for u, ct in zip(batch[::2], batch[1::2]):
            assert cot_bytes(128, [(ct // 4, 4)]) == (u, ct)
