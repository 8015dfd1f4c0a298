"""The execution layer: IR compilation, scheduling, tracing, caching.

The load-bearing property is **transcript byte-identity**: the
scheduler must replay the legacy sequential orchestration's transcript
byte-for-byte — same sizes, same senders, same labels, same order —
for every ownership split and both modes.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from repro.core import SecureRelation, is_dummy_tuple
from repro.core.protocol import (
    legacy_secure_yannakakis,
    legacy_secure_yannakakis_shared,
    secure_yannakakis,
    secure_yannakakis_shared,
)
from repro.exec import (
    AlignStep,
    ExecPlan,
    ExecutionTrace,
    JoinStep,
    ProductStep,
    ReduceFoldStep,
    RevealResultStep,
    RevealStep,
    Scheduler,
    ShareStep,
    compile_plan,
)
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.relalg import Hypergraph, find_free_connex_tree
from repro.yannakakis import build_plan, build_two_phase_plan

from .test_protocol import OWNER_SPLITS, example_11

OUTPUT = ("cls",)
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def make_plan(rels, output=OUTPUT, two_phase=False):
    h = Hypergraph({n: r.attributes for n, r in rels.items()})
    tree = find_free_connex_tree(h, set(output))
    if two_phase:
        return build_two_phase_plan(tree, tuple(output))
    return build_plan(tree, tuple(output))


def secure_inputs(rels, owners):
    return {
        n: SecureRelation.from_annotated(owners[n], rels[n])
        for n in rels
    }


def owners_of(sec):
    return {n: r.owner for n, r in sec.items()}


# ----------------------------------------------------------------------
# IR structure
# ----------------------------------------------------------------------


def test_compile_step_structure():
    rels = example_11()
    plan = make_plan(rels)
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    ep = compile_plan(plan, owners, reveal_result=True, name="ex11")
    kinds = [s.kind for s in ep.steps]
    assert kinds.count("share") == 3
    assert kinds[-1] == "reveal_result"
    assert "join" in kinds and "product" in kinds
    assert ep.result_slot == "output"
    # Folded-away children get no reveal/align steps.
    folded = {s.child for s in ep.steps if isinstance(s, ReduceFoldStep)}
    revealed = {s.relation for s in ep.steps if isinstance(s, RevealStep)}
    assert folded.isdisjoint(revealed)
    aligned = {s.relation for s in ep.steps if isinstance(s, AlignStep)}
    assert aligned == revealed
    # Dependencies: every align waits on the join; the product on all
    # aligns; the final reveal on the product.
    join = next(s for s in ep.steps if isinstance(s, JoinStep))
    prod = next(s for s in ep.steps if isinstance(s, ProductStep))
    for s in ep.steps:
        if isinstance(s, AlignStep):
            assert join.id in ep.deps[s.id]
            assert s.id in ep.deps[prod.id]
    reveal_res = ep.steps[-1]
    assert prod.id in ep.deps[reveal_res.id]
    assert ep.stage_of[reveal_res.id] == max(ep.stage_of.values())


def test_compile_missing_relation_raises():
    rels = example_11()
    plan = make_plan(rels)
    with pytest.raises(KeyError, match="missing input relations"):
        compile_plan(plan, {"R1": ALICE, "R2": BOB})


def test_plan_json_roundtrip():
    rels = example_11()
    plan = make_plan(rels)
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    ep = compile_plan(plan, owners, pad_out_to=9, reveal_result=True,
                      name="ex11")
    blob = ep.dumps()
    back = ExecPlan.loads(blob)
    assert back.steps == ep.steps
    assert back.inputs == ep.inputs
    assert back.result_slot == ep.result_slot
    assert back.deps == ep.deps
    assert back.stage_of == ep.stage_of
    # JSON is pure data — stable under a second round trip.
    assert json.loads(blob) == json.loads(back.dumps())


def test_plan_describe_mentions_every_step():
    rels = example_11()
    ep = compile_plan(
        make_plan(rels), {"R1": ALICE, "R2": BOB, "R3": ALICE}
    )
    text = ep.describe()
    for s in ep.steps:
        assert f"#{s.id} " in text


def test_stages_group_independent_reveals():
    rels = example_11()
    ep = compile_plan(
        make_plan(rels), {"R1": ALICE, "R2": BOB, "R3": ALICE}
    )
    reveal_stages = {
        ep.stage_of[s.id]
        for s in ep.steps
        if isinstance(s, RevealStep)
    }
    # All surviving relations' reveals are mutually independent: they
    # land in the same dependency stage.
    assert len(reveal_stages) == 1


# ----------------------------------------------------------------------
# Scheduler vs legacy: byte-identical transcripts
# ----------------------------------------------------------------------


def run_both(rels, owners, mode, *, two_phase=False, seed=11):
    plan = make_plan(rels, two_phase=two_phase)

    def one(fn):
        ctx = Context(mode, seed=seed)
        engine = Engine(ctx)
        result, stats = fn(engine, secure_inputs(rels, owners), plan)
        return ctx.transcript.fingerprint(), result

    f_legacy, r_legacy = one(legacy_secure_yannakakis)
    f_new, r_new = one(secure_yannakakis)
    return f_legacy, r_legacy, f_new, r_new


@pytest.mark.parametrize("owners", OWNER_SPLITS)
def test_fingerprint_identity_simulated(owners):
    f_legacy, r_legacy, f_new, r_new = run_both(
        example_11(), owners, Mode.SIMULATED
    )
    assert f_new == f_legacy
    assert r_new.semantically_equal(r_legacy)


@pytest.mark.real
def test_fingerprint_identity_real():
    f_legacy, r_legacy, f_new, r_new = run_both(
        example_11(), {"R1": ALICE, "R2": BOB, "R3": ALICE}, Mode.REAL
    )
    assert f_new == f_legacy
    assert r_new.semantically_equal(r_legacy)


def test_fingerprint_identity_two_phase():
    f_legacy, r_legacy, f_new, r_new = run_both(
        example_11(), {"R1": BOB, "R2": ALICE, "R3": BOB},
        Mode.SIMULATED, two_phase=True,
    )
    assert f_new == f_legacy
    assert r_new.semantically_equal(r_legacy)


def test_fingerprint_identity_shared_with_padding():
    rels = example_11()
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    plan = make_plan(rels)

    def one(fn):
        ctx = Context(Mode.SIMULATED, seed=3)
        engine = Engine(ctx)
        res = fn(engine, secure_inputs(rels, owners), plan,
                 pad_out_to=8)
        return ctx.transcript.fingerprint(), res

    f_legacy, r_legacy = one(legacy_secure_yannakakis_shared)
    f_new, r_new = one(secure_yannakakis_shared)
    assert f_new == f_legacy
    # Padding rows carry fresh dummy nonces; the real rows must match.
    real_new = [t for t in r_new.tuples if not is_dummy_tuple(t)]
    real_legacy = [t for t in r_legacy.tuples if not is_dummy_tuple(t)]
    assert real_new == real_legacy
    assert len(r_new.tuples) == len(r_legacy.tuples) == 8
    assert len(r_new.annotations) == 8


def test_scheduler_missing_input_raises():
    rels = example_11()
    plan = make_plan(rels)
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    ep = compile_plan(plan, owners)
    ctx = Context(Mode.SIMULATED, seed=0)
    engine = Engine(ctx)
    sec = secure_inputs(rels, owners)
    del sec["R3"]
    with pytest.raises(KeyError, match="missing input relations"):
        Scheduler(engine).run(ep, sec)


# ----------------------------------------------------------------------
# Tracing and caching
# ----------------------------------------------------------------------


def test_trace_nodes_cover_transcript():
    rels = example_11()
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    plan = make_plan(rels)
    tracer = ExecutionTrace()
    ctx = Context(Mode.SIMULATED, seed=9)
    engine = Engine(ctx, tracer=tracer)
    secure_yannakakis(engine, secure_inputs(rels, owners), plan)

    ep = compile_plan(plan, owners, reveal_result=True)
    assert len(tracer.nodes) == len(ep.steps)
    assert [n.id for n in tracer.nodes] == [s.id for s in ep.steps]
    # The nodes partition the transcript: their byte/message/round
    # sums equal the whole run's.
    assert tracer.total_bytes == ctx.transcript.total_bytes
    assert (
        sum(n.n_messages for n in tracer.nodes)
        == len(ctx.transcript.messages)
    )
    assert all(n.seconds >= 0 for n in tracer.nodes)
    by_kind = {n.kind: n for n in tracer.nodes}
    assert by_kind["share"].n_bytes == 0
    assert by_kind["reveal"].n_bytes > 0
    assert by_kind["reveal"].section == "full_join"
    assert tracer.meta["cache"]["circuit_templates"] > 0
    # JSON export carries every node field.
    blob = tracer.to_json()
    assert blob["total_bytes"] == tracer.total_bytes
    assert {n["kind"] for n in blob["nodes"]} == set(by_kind)


def test_trace_sections_report_phases():
    rels = example_11()
    owners = {"R1": BOB, "R2": ALICE, "R3": BOB}
    tracer = ExecutionTrace()
    ctx = Context(Mode.SIMULATED, seed=9)
    engine = Engine(ctx, tracer=tracer)
    secure_yannakakis(
        engine, secure_inputs(rels, owners), make_plan(rels)
    )
    sections = tracer.by_section()
    assert sections.get("reduce", 0) > 0
    assert sections.get("full_join", 0) > 0


def test_gadget_template_cache_hits():
    rels = example_11()
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    ctx = Context(Mode.SIMULATED, seed=9)
    engine = Engine(ctx)
    secure_yannakakis(
        engine, secure_inputs(rels, owners), make_plan(rels)
    )
    stats = ctx.cache.stats()
    # Same-shaped gadgets recur across operators: the run must reuse
    # templates, not rebuild them.
    assert stats["circuit_hits"] > 0
    assert stats["circuit_templates"] >= 1
    assert stats["circuit_misses"] == stats["circuit_templates"]


def test_context_cache_stats_across_reruns():
    rels = example_11()
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    ctx = Context(Mode.SIMULATED, seed=9)
    engine = Engine(ctx)
    assert ctx.cache_stats() == ctx.cache.stats()
    assert ctx.cache_stats()["circuit_misses"] == 0
    secure_yannakakis(
        engine, secure_inputs(rels, owners), make_plan(rels)
    )
    first = ctx.cache_stats()
    # Every miss builds exactly one template; nothing is rebuilt.
    assert first["circuit_misses"] == first["circuit_templates"]
    assert first["topology_misses"] == first["topologies"]
    # A second run on the same context reuses every template: hit
    # counters grow, miss counters stay frozen.
    secure_yannakakis(
        engine, secure_inputs(rels, owners), make_plan(rels)
    )
    second = ctx.cache_stats()
    assert second["circuit_misses"] == first["circuit_misses"]
    assert second["topology_misses"] == first["topology_misses"]
    assert second["circuit_hits"] > first["circuit_hits"]


@pytest.mark.real
def test_topology_cache_shared_across_oeps():
    rels = example_11()
    owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
    ctx = Context(Mode.REAL, seed=9)
    engine = Engine(ctx)
    secure_yannakakis(
        engine, secure_inputs(rels, owners), make_plan(rels)
    )
    stats = ctx.cache.stats()
    # Every OEP routes two Benes networks; same-size topologies must
    # be built once per run.
    assert stats["topology_hits"] > 0
    assert stats["topologies"] >= 1


class TestOnePipeline:
    """Structural guard: a plan reaches the scheduler through
    ``core/protocol.py`` — one compile site, one scheduler — and no
    other module under ``src/repro`` assembles a run of its own."""

    def test_only_protocol_compiles_and_schedules(self):
        sites = sorted(
            (str(path.relative_to(SRC)), name)
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            for name in [
                getattr(node.func, "id", None)
                or getattr(node.func, "attr", None)
            ]
            if name in ("compile_plan", "Scheduler")
        )
        assert sites == [
            ("core/protocol.py", "Scheduler"),
            ("core/protocol.py", "compile_plan"),
        ]

    @pytest.mark.parametrize(
        "module", ["repro.serve.fingerprint", "repro.serve.plancache"]
    )
    def test_plan_cache_modules_are_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_no_entry_point_takes_a_precompiled_plan(self):
        import repro.core
        import repro.core.protocol as protocol

        for namespace in (repro.core, protocol):
            assert not hasattr(namespace, "secure_yannakakis_with_plan")
