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
    gilboa_widths,
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


def random_relation(rng, attrs, n, ring, key_range=50):
    return AnnotatedRelation(
        attrs,
        [
            tuple(int(v) for v in row)
            for row in rng.integers(0, key_range, (n, len(attrs)))
        ],
        rng.integers(1, 9, n),
        ring,
    )


def run_and_estimate(owners, n1, n2, output=("b",), seed=0, ell=32):
    rng = np.random.default_rng(seed)
    ring = IntegerRing(ell)
    rels = {
        "R1": random_relation(rng, ("a", "b"), n1, ring),
        "R2": random_relation(rng, ("b", "c"), n2, ring),
    }
    return meter_and_estimate(owners, rels, output, ell=ell)


def meter_and_estimate(owners, rels, output, ell=32, two_phase=False):
    """One metered SIMULATED run of ``rels`` and the estimate of its
    plan at the run's output size."""
    params = SecurityParams(ell=ell)
    h = Hypergraph({n: r.attributes for n, r in rels.items()})
    build = build_two_phase_plan if two_phase else build_plan
    plan = build(find_free_connex_tree(h, set(output)), output)
    engine = Engine(Context(Mode.SIMULATED, params, seed=1))
    sec = {
        n: SecureRelation.from_annotated(owners[n], rels[n]) for n in rels
    }
    result, stats = secure_yannakakis(engine, sec, plan)
    est = estimate_plan_cost(
        plan,
        {n: len(r) for n, r in rels.items()},
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


RING32 = IntegerRing(32)
OWNER_PAIRS = list(itertools.product((ALICE, BOB), repeat=2))
CHAIN = {"R1": ("a", "b"), "R2": ("b", "c"), "R3": ("c", "d")}


def chain_relations(order, split, sizes=(9, 6, 8)):
    """R1(a, b) -- R2(b, c) -- R3(c, d) of distinct tuples, inserted in
    ``order`` and owned by ``split`` (in that order)."""
    rng = np.random.default_rng(11)
    rels = {}
    for name, n in zip(CHAIN, sizes):
        keys = rng.choice(16, n, replace=False)
        rels[name] = AnnotatedRelation(
            CHAIN[name],
            [(int(k) // 4, int(k) % 4) for k in keys],
            rng.integers(1, 9, n),
            RING32,
        )
    return {n: rels[n] for n in order}, dict(zip(order, split))


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

    @pytest.mark.parametrize(
        "owners",
        [{"R1": ALICE, "R2": BOB}, {"R1": BOB, "R2": ALICE}],
        ids=["AB", "BA"],
    )
    def test_exact_with_pools_open(self, small_pool, owners):
        # Both instances' silent-OT pools open, drain and refill: the
        # estimator's instances follow the same counts.
        transcript, est = run_and_estimate(
            owners, 40, 25, output=("a", "b", "c")
        )
        labels = [m.label for m in transcript.messages]
        assert any(label.endswith("ot/ext/pool") for label in labels)
        assert_exact(est, transcript)

    @pytest.mark.parametrize("ell", [16, 20, 32, 44, 48])
    def test_exact_at_every_ring_width(self, ell):
        # A ring element is packed to ceil(ell / 8) bytes by every
        # primitive, share and reveal included.
        transcript, est = run_and_estimate(
            {"R1": ALICE, "R2": BOB}, 40, 25, ell=ell
        )
        assert_exact(est, transcript)

    @pytest.mark.parametrize("output", [("a",), ("b",), ("a", "b")])
    @pytest.mark.parametrize(
        "owners",
        [dict(zip(("R1", "R2"), o)) for o in OWNER_PAIRS],
        ids=["".join(p[0] for p in o) for o in OWNER_PAIRS],
    )
    def test_scalar_child_exact(self, owners, output):
        # R1(a, x) and R2(b, y) share no attribute: every fold and
        # semijoin between them has a scalar child, which joins by
        # sharing its sum on every back-end, never through a PSI.
        rng = np.random.default_rng(4)
        rels = {
            "R1": random_relation(rng, ("a", "x"), 10, RING32, 5),
            "R2": random_relation(rng, ("b", "y"), 6, RING32, 5),
        }
        transcript, est = meter_and_estimate(owners, rels, output)
        assert_exact(est, transcript)

    @pytest.mark.parametrize(
        "split", list(itertools.product((ALICE, BOB), repeat=3)),
        ids=lambda o: "".join(p[0] for p in o),
    )
    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("R1", "R2", "R3"))),
        ids="-".join,
    )
    def test_chain_full_join_exact(self, order, split):
        # Every attribute is output, so the full join keeps all three
        # relations; distinct tuples make the result size |J*|.  The
        # insertion order is the order the full join's steps run in.
        rels, owners = chain_relations(order, split)
        output = ("a", "b", "c", "d")
        transcript, est = meter_and_estimate(owners, rels, output)
        assert_exact(est, transcript)

    def test_chain_two_phase_exact(self):
        rels, owners = chain_relations(("R1", "R2", "R3"), (ALICE, BOB, ALICE))
        output = ("a", "b", "c", "d")
        transcript, est = meter_and_estimate(
            owners, rels, output, two_phase=True
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
    """Structural guard: the estimator runs the primitives' own send
    paths, the ones REAL and SIMULATED both send through, and sends only
    single messages itself, sized by ``repro.mpc.costs``."""

    SEND_PATHS = {
        "mpc.ot": {"SimulatedOT"},
        "mpc.yao": {"garbled_call"},
        "mpc.leaves": {"LeafOts"},
        "mpc.oprf": {"charge_oprf_setup"},
        "mpc.psi": {"charge_opprf"},
        "mpc.dhoprf": {"charge_dh_oprf"},
        "mpc.context": {"ALICE", "BOB", "Mode", "Meter"},
    }

    #: the multi-message primitives' sizes, which only the send paths
    #: may compose
    PRIMITIVE_SIZES = {
        "cot_bytes", "garbled_bytes", "base_ot_bytes",
        "tree_correction_bytes", "kkrt_setup_bytes", "dh_oprf_bytes",
        "opprf_hint_bytes", "leaf_ot_widths", "leaf_bytes",
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
            elif module in self.SEND_PATHS:
                assert names <= self.SEND_PATHS[module], names
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

    def test_every_backend_has_a_price(self):
        """A cross-owner node is priced by its back-end's entry of one
        table, held to the back-end registry like the dispatch table:
        a registered back-end with no price fails."""
        from repro.bench.estimator import CROSS_OWNER_PRICE
        from repro.core.semijoin import CROSS_OWNER
        from repro.leakage import BACKEND_CONTRACTS, check_backend_keys

        assert set(CROSS_OWNER_PRICE) == set(CROSS_OWNER)
        extra = {**BACKEND_CONTRACTS, "mystery": frozenset()}
        with pytest.raises(ValueError, match="registers.*'mystery'"):
            check_backend_keys(CROSS_OWNER_PRICE, extra)
        source = (SRC / "bench" / "estimator.py").read_text()
        assert '== "linear"' not in source


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

    TOTAL = 5_676_731
    #: set-up bytes (the benchmark's ``mpc.bytes.base_ot``): the one
    #: Chou-Orlandi phase, the mirror's seed-OT ``u``, one per PSI
    BASE = 8_353 + 512 + 2 * 1_792
    #: bytes per label class (the benchmark's ``mpc.bytes.*`` split),
    #: base OTs excluded
    GROUPS = {
        "gc/bob_labels": 48,
        # label OTs: the u columns alone, the first batch's with the
        # mirror's 3,072 B of tree corrections; a PSI bin's are its 11
        # leaf masks (14 with 4-bit leaves: 393,216)
        "gc/alice_labels/": 362_752,
        # the OEPs: one C-OT of a ring element per switch and copy
        # gate, each network on its own wire count, an extended
        # permutation's first one only the switches that feed its
        # outputs (2,129,904 with two-word switches on power-of-two
        # padded networks, 941,084 with the whole first network)
        "/switches/": 866_512,
        # Gilboa's triangle: 528 bits per pair at ell = 32, u and
        # corrections (1,152,000 with ell bits per OT)
        "/cross": 873_000,
        # three-halves tables (10 ANDs per PSI bin), then the decode bits
        # and translated rows
        "gc/tables": 2_072_700,
        "gc/decode": 49_980,
        # the PSI payloads' evaluator rows: 8 B per bin (u, correction)
        "gc/alice_weights/": 30_536,
        # the sum chain: one C-OT of a ring element per boundary
        "/merge_sum/": 12_012,
        # one OKVS per PSI, a slot at the token's and the ring's bits
        # (388,304 at 16 B a slot): 1.3 slots per Bob entry bound (3 per
        # item) and 40 dense
        "/opprf_hints": 251_792,
        # the PSI bins' leaf OTs: Bob's u, a random OT per token bit,
        # then Alice's 32 one-bit messages per 5-bit leaf (872,530 with
        # 4-bit leaves)
        "/leaves/": 930_634,
    }

    #: Q3 at 0.1 MB under each join back-end: (bytes, rounds)
    BACKENDS = {
        "yannakakis": (538_062, 29),
        "linear": (342_272, 21),
        # every node linear since the OEP's switches shrank (before,
        # lineitem -> orders went to the PSI: 621,651 B in 25 rounds)
        "auto": (342_272, 21),
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
        ciphertexts); the sum chain is one C-OT batch of ring elements
        (``kappa/k`` bytes per 8 OTs, one ciphertext per OT), a Gilboa
        cross term one of ``ell`` segments, ``ell - i`` bits each."""
        messages = [m for m in messages if "/base/" not in m.label]
        seeds = [m for m in messages if m.label.endswith("gc/bob_labels")]
        tables = [m for m in messages if m.label.endswith("gc/tables")]
        assert [m.n_bytes for m in seeds] == [SEED_BYTES] * len(tables)
        labels = [m for m in messages if "gc/alice_labels/" in m.label]
        assert [m.label.rsplit("/", 3)[-3:] for m in labels] == [
            ["ot", "ext", "u"]
        ] * len(tables)
        assert all(m.n_bytes % (128 // SOFTSPOKEN_K) == 0 for m in labels)
        widths = {
            # u is kappa/k = 32 bytes per 8 OTs, 32 OTs per pair
            "/cross": lambda u, ct: gilboa_widths(32, u // 128),
            "/merge_sum/": lambda u, ct: [(ct // 4, 32)],
        }
        for pattern, shape in widths.items():
            batch = [m.n_bytes for m in messages if pattern in m.label]
            assert batch, pattern
            for u, ct in zip(batch[::2], batch[1::2]):
                assert cot_bytes(128, shape(u, ct)) == (u, ct)
