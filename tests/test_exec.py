"""The execution layer: IR compilation, scheduling, tracing, caching.

The load-bearing property is **transcript byte-identity**: the
scheduler's transcript — sizes, senders, labels, order — and result
must hash to the pinned ``tests/golden/fingerprints.json`` digest for
every ownership split, the two-phase order and a padded shared run, in
both modes.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from repro.core import SecureRelation
from repro.core.protocol import secure_yannakakis
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
from repro.yannakakis import build_plan

from .test_golden_fingerprints import example_run, load_golden, run_digest
from .test_protocol import OWNER_SPLITS, example_11

OUTPUT = ("cls",)
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def make_plan(rels, output=OUTPUT):
    h = Hypergraph({n: r.attributes for n, r in rels.items()})
    return build_plan(find_free_connex_tree(h, set(output)), tuple(output))


def secure_inputs(rels, owners):
    return {
        n: SecureRelation.from_annotated(owners[n], rels[n])
        for n in rels
    }


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
    # The tuple is the execution order: every align runs after the
    # join, the product after every align, the final reveal last.
    join = next(s for s in ep.steps if isinstance(s, JoinStep))
    prod = next(s for s in ep.steps if isinstance(s, ProductStep))
    for s in ep.steps:
        if isinstance(s, AlignStep):
            assert join.id < s.id < prod.id
    assert ep.steps[-1].id == prod.id + 1


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
    # JSON is pure data — stable under a second round trip.
    assert json.loads(blob) == json.loads(back.dumps())


def test_plan_ids_are_positions():
    # The step tuple is the execution order: a loaded plan whose ids
    # are not 0..n-1 in order is rejected, not re-sorted.
    ep = compile_plan(
        make_plan(example_11()), {"R1": ALICE, "R2": BOB, "R3": ALICE}
    )
    blob = ep.to_json()
    blob["steps"][0]["id"], blob["steps"][1]["id"] = 1, 0
    with pytest.raises(ValueError, match="0..n-1"):
        ExecPlan.from_json(blob)


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda b: b["steps"][0].pop("id"), "id"),
        (lambda b: b["steps"][-1].update(extra=1), "extra"),
        (lambda b: b.pop("result_slot"), "result_slot"),
        (lambda b: b.update(stages=[]), "stages"),
    ],
    ids=["step-missing", "step-unknown", "plan-missing", "plan-unknown"],
)
def test_plan_json_rejects_missing_and_unknown_keys(mutate, key):
    ep = compile_plan(
        make_plan(example_11()), {"R1": ALICE, "R2": BOB, "R3": ALICE}
    )
    blob = ep.to_json()
    mutate(blob)
    with pytest.raises(ValueError, match=key):
        ExecPlan.from_json(blob)


# ----------------------------------------------------------------------
# Scheduler vs the golden file: byte-identical transcripts
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return load_golden()["runs"]


@pytest.mark.parametrize("owners", OWNER_SPLITS)
def test_fingerprint_identity_simulated(owners, golden):
    run = example_run("reduce_first", owners)
    assert run_digest(run) == golden[run]


@pytest.mark.real
def test_fingerprint_identity_real(golden):
    # REAL mode moves the same message sizes as SIMULATED, so it must
    # hash to the SIMULATED golden digest.
    run = example_run("reduce_first", {"R1": ALICE, "R2": BOB, "R3": ALICE})
    assert run_digest(run, mode=Mode.REAL) == golden[run]


def test_fingerprint_identity_two_phase(golden):
    run = example_run("two_phase", {"R1": BOB, "R2": ALICE, "R3": BOB})
    assert run_digest(run) == golden[run]


def test_fingerprint_identity_shared_with_padding(golden):
    run = example_run("shared_pad8", {"R1": ALICE, "R2": BOB, "R3": ALICE})
    assert run_digest(run) == golden[run]


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


def test_q3_node_messages_carry_the_node_section():
    # Each step's section is spelt once, by the step: every message a
    # sectioned node sends is labelled under that section.
    from repro.tpch import PREPARED, generate

    query = PREPARED["Q3"](generate(0.1))
    tracer = ExecutionTrace()
    ctx = query.make_context(Mode.SIMULATED, seed=7)
    query.run_secure(Engine(ctx, tracer=tracer))
    messages = ctx.transcript.messages
    assert sum(n.n_messages for n in tracer.nodes) == len(messages)
    start, checked = 0, set()
    for node in tracer.nodes:
        window = messages[start:start + node.n_messages]
        start += node.n_messages
        if node.section is None:
            continue
        for m in window:
            assert m.label.startswith(node.section + "/"), (
                node.label, m.label,
            )
            checked.add(node.section)
    assert checked == {"reduce", "full_join"}


class TestOnePipeline:
    """Structural guard: a plan reaches the scheduler through
    ``core/protocol.py`` — one scheduler — and no other module under
    ``src/repro`` assembles a run of its own.  The other
    ``compile_plan`` call sites are pure planning: the estimator, the
    router and the leakage audits read the compiled steps and never
    execute them."""

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
            ("bench/estimator.py", "compile_plan"),
            ("bench/estimator.py", "compile_plan"),
            ("core/protocol.py", "Scheduler"),
            ("core/protocol.py", "compile_plan"),
            ("fuzz/runner.py", "compile_plan"),
            ("query/planner.py", "compile_plan"),
            ("serve/service.py", "compile_plan"),
        ]

    @pytest.mark.parametrize(
        "module",
        [
            "repro.serve.fingerprint",
            "repro.serve.plancache",
            "repro.mpc.runcache",
        ],
    )
    def test_plan_cache_modules_are_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_no_entry_point_takes_a_precompiled_plan(self):
        import repro.core
        import repro.core.protocol as protocol

        for namespace in (repro.core, protocol):
            assert not hasattr(namespace, "secure_yannakakis_with_plan")
