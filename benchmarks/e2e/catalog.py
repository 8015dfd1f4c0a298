"""The benchmark's vocabulary: workloads, metric names, closed sets.

``BENCHMARK.json`` at the repo root is ``benchmark_json()`` written out
(README.md has the one-liner) and the smoke test asserts the two agree,
so a metric is defined in exactly one place.
Stdlib-only: importing it must not import ``repro`` (the worker times
that import as ``cold.import_s``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Protocol randomness is pinned; ``--seed`` varies the *data*.
PROTOCOL_SEED = 7
#: Seed used when none is given: ``repro.tpch.generate``'s own default,
#: so default-seed numbers match the ones the repo already documents.
DEFAULT_SEED = 20210618
#: Measuring window of one run (``--seconds``), as BENCHMARK.json says.
RUN_SECONDS = 8


@dataclass(frozen=True)
class Query:
    """One secure query inside an operation."""

    name: str
    scale_mb: float
    backend: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "SIMULATED" | "REAL" (in-process workloads) | "NET" (two
    #: ``python -m repro net`` OS processes per operation).
    mode: str
    queries: Tuple[Query, ...]
    #: Warm operations a run takes at least, whatever ``--seconds`` says.
    min_ops: int
    #: Fresh-process set-ups per run; ``setup_s`` is their median.
    setup_reps: int
    #: Warm untraced operations before the traced one (``--trace 1``).
    trace_ops: int
    #: Vector length of the direct per-primitive calls (0 = skipped).
    primitive_n: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="q3_sim",
            why=(
                "TPC-H Q3 at 10 MB, SIMULATED, yannakakis back-end: the "
                "paper's headline query; PSI bin circuits and garbled "
                "tables carry its bytes, numpy charge paths its time"
            ),
            mode="SIMULATED",
            queries=(Query("Q3", 10, "yannakakis"),),
            min_ops=3,
            setup_reps=2,
            trace_ops=3,
            primitive_n=65536,
        ),
        Workload(
            name="mix_auto_sim",
            why=(
                "Q10, Q18 and Q8 at 3 MB back to back under auto routing: "
                "DH-OPRF linear joins, semijoin and full-join phases, "
                "ell=48 and the division circuit, all absent from q3_sim"
            ),
            mode="SIMULATED",
            queries=(
                Query("Q10", 3, "auto"),
                Query("Q18", 3, "auto"),
                Query("Q8", 3, "auto"),
            ),
            min_ops=3,
            setup_reps=2,
            trace_ops=3,
            primitive_n=65536,
        ),
        Workload(
            name="q3_real",
            why=(
                "Q3 at 0.03 MB in REAL mode, Engine defaults, under "
                "yannakakis then linear: CPU-bound garbling, IKNP and "
                "2048-bit modexp that SIMULATED runs never execute"
            ),
            mode="REAL",
            queries=(
                Query("Q3", 0.03, "yannakakis"),
                Query("Q3", 0.03, "linear"),
            ),
            min_ops=2,
            # One set-up is a 15 s cold REAL operation; a second would
            # not fit the driver's time cap.
            setup_reps=1,
            trace_ops=1,
            primitive_n=256,
        ),
        Workload(
            name="net_q3",
            why=(
                "both parties of Q3 at 3 MB as two `python -m repro net` "
                "processes over localhost TCP with journals: session "
                "framing, lockstep exchange, checkpoints, fsync'd journal"
            ),
            mode="NET",
            queries=(Query("Q3", 3, "yannakakis"),),
            min_ops=3,
            setup_reps=2,
            trace_ops=2,
            primitive_n=0,
        ),
    )
}


def workload(name: str, smoke: bool) -> Workload:
    """The named workload; with ``smoke`` the same code path on Q3 at
    0.1 MB, SIMULATED (REAL becomes SIMULATED), two operations (one
    cold, one warm), one set-up."""
    w = WORKLOADS[name]
    if not smoke:
        return w
    backends = [q.backend for q in w.queries]
    return Workload(
        name=w.name,
        why=w.why,
        mode="SIMULATED" if w.mode == "REAL" else w.mode,
        queries=tuple(Query("Q3", 0.1, b) for b in backends),
        min_ops=1,
        setup_reps=1,
        trace_ops=1,
        primitive_n=64 if w.primitive_n else 0,
    )


# -- closed sets for the <k>/<b>/<c>/<s>/<p>/<t> placeholders ----------

NODE_KINDS = (
    "share", "reduce_fold", "semijoin", "aggregate", "reveal", "join",
    "align", "product", "divide", "reveal_result",
)
BACKENDS = ("yannakakis", "linear")

#: Transcript-label classes, first match wins (regex ``search`` on the
#: full slash-joined label).  ``payload_other`` is the catch-all.
BYTE_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("base_ot", r"/base/"),
    ("dhoprf", r"/dhoprf/"),
    ("psi_oprf", r"/psi/(oprf|seeds)"),
    ("psi_opprf_hints", r"/psi/opprf_hints"),
    ("gc_tables", r"/gc/tables"),
    ("gc_bob_labels", r"/gc/bob_labels"),
    ("gc_alice_labels_ot", r"/gc/alice_labels/"),
    ("oep_switches", r"/switches/"),
    ("gilboa_mul", r"/mul[^/]*/cross"),
    ("payload_other", r""),
)
SECTIONS = ("reduce", "semijoin", "full_join", "result", "other")
PRIMITIVES = (
    "base_ot", "iknp", "share", "gilboa", "garble", "merge_sum", "oep",
    "psi", "dhoprf",
)
TRANSPORT_COUNTERS = (
    "frames_sent", "frames_received", "acks_sent", "heartbeats_sent",
    "reconnects", "replayed", "dup_skipped",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen (README: how each was derived).
    bound: float = 0.0


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("query_s", "s", "lower", 0.25),
    Metric("comm_bytes", "B", "lower", 0.03),
    Metric("comm_rounds", "count", "lower", 0.15),
    Metric("comm_messages", "count", "lower", 0.12),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer() -> List[Metric]:
    out: List[Metric] = []

    def add(name: str, unit: str, better: str = "lower") -> None:
        out.append(Metric(name, unit, better))

    for name in ("generate_s", "prepare_s", "build_s"):
        add(f"tpch.{name}", "s")
    add("tpch.input_tuples", "count", "higher")
    add("tpch.effective_bytes", "B", "higher")
    add("relalg.plain_s", "s")
    add("query.plan_s", "s")
    add("query.route_s", "s")
    add("exec.compile_s", "s")
    add("bench.estimate_s", "s")
    for k in NODE_KINDS:
        add(f"exec.node.{k}.s", "s")
        add(f"exec.node.{k}.bytes", "B")
    for b in BACKENDS:
        add(f"exec.backend.{b}.s", "s")
        add(f"exec.backend.{b}.bytes", "B")
        add(f"exec.backend.{b}.nodes", "count")
    add("exec.traced_wall_s", "s")
    add("exec.nodes_sum_s", "s")
    add("exec.unattributed_s", "s")
    add("exec.est_drift_bytes_max", "B")
    for c, _ in BYTE_CLASSES:
        add(f"mpc.bytes.{c}", "B")
    for s in SECTIONS:
        add(f"mpc.bytes.section.{s}", "B")
    for p in PRIMITIVES:
        add(f"mpc.{p}.s", "s")
        add(f"mpc.{p}.bytes", "B")
    add("cold.first_op_s", "s")
    add("cold.penalty_s", "s")
    add("cold.import_s", "s")
    add("runtime.startup_s", "s")
    add("runtime.solo_s", "s")
    add("runtime.session_overhead_s", "s")
    add("runtime.overhead_s", "s")
    add("runtime.framing.bytes", "B")
    for t in TRANSPORT_COUNTERS:
        add(f"runtime.transport.{t}", "count")
    add("runtime.durable.checkpoints", "count")
    add("runtime.durable.journal_bytes", "B")
    add("runtime.durable.journal_per_input_byte", "ratio")
    add("runtime.durable.scan_s", "s")
    add("runtime.durable.revive_s", "s")
    add("runtime.resume_s", "s")
    add("trace.overhead_share", "ratio")
    return out


PER_LAYER: Tuple[Metric, ...] = tuple(_per_layer())


def benchmark_json() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
