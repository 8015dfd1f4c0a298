"""Per-layer numbers, taken from outside ``src/``.

Three sources, as the README's glossary describes: the public
``Engine(tracer=)`` hook (``exec.*``), classification of the public
``Transcript`` message labels (``mpc.bytes.*``), and direct timed calls
into each layer's public functions (``tpch.*``, ``query.*``,
``bench.*``, ``mpc.<p>.*``).  ``repro`` is imported inside the
functions so the worker can time the first import.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from catalog import (
    BACKENDS,
    BYTE_CLASSES,
    NODE_KINDS,
    PER_LAYER,
    PROTOCOL_SEED,
    SECTIONS,
    Query,
)
from spans import Spans

#: A transcript fingerprint: (sender, n_bytes, label) per message.
Fingerprint = Sequence[Tuple[str, int, str]]

_CLASS_RES = [(name, re.compile(pattern)) for name, pattern in BYTE_CLASSES]


def zeros() -> Dict[str, float]:
    """Every per-layer metric at 0: a workload that never enters a
    layer reports 0 for it."""
    return {m.name: 0.0 for m in PER_LAYER}


def make_span_trace(spans: Spans) -> Any:
    """An ``ExecutionTrace`` that also stamps each node's start on the
    harness clock, so nodes become spans (``NodeTrace`` itself only
    keeps durations)."""
    from repro.exec.trace import ExecutionTrace

    class SpanTrace(ExecutionTrace):
        def __init__(self) -> None:
            super().__init__()
            self.starts: List[float] = []

        @contextmanager
        def node(self, transcript: Any, **kwargs: Any) -> Iterator[None]:
            self.starts.append(spans.now())
            with super().node(transcript, **kwargs):
                yield

    return SpanTrace()


def add_node_spans(spans: Spans, trace: Any, parent: int) -> None:
    for node, start in zip(trace.nodes, trace.starts):
        spans.add(
            f"exec.node.{node.kind}:{node.label}",
            start, start + node.seconds, parent,
        )


def node_metrics(traces: Iterable[Any], traced_wall: float) -> Dict[str, float]:
    """``exec.*`` from the ``ExecutionTrace`` of every query of one
    traced operation."""
    out: Dict[str, float] = {}
    nodes = [n for t in traces for n in t.nodes]
    for k in NODE_KINDS:
        mine = [n for n in nodes if n.kind == k]
        out[f"exec.node.{k}.s"] = sum(n.seconds for n in mine)
        out[f"exec.node.{k}.bytes"] = sum(n.n_bytes for n in mine)
    for b in BACKENDS:
        mine = [n for n in nodes if n.backend == b]
        out[f"exec.backend.{b}.s"] = sum(n.seconds for n in mine)
        out[f"exec.backend.{b}.bytes"] = sum(n.n_bytes for n in mine)
        out[f"exec.backend.{b}.nodes"] = len(mine)
    nodes_sum = sum(n.seconds for n in nodes)
    out["exec.traced_wall_s"] = traced_wall
    out["exec.nodes_sum_s"] = nodes_sum
    out["exec.unattributed_s"] = traced_wall - nodes_sum
    out["exec.est_drift_bytes_max"] = max(
        (abs(n.est_bytes - n.n_bytes) for n in nodes
         if n.est_bytes is not None),
        default=0,
    )
    return out


def byte_class_metrics(fingerprints: Iterable[Fingerprint]) -> Dict[str, float]:
    """``mpc.bytes.<c>`` and ``mpc.bytes.section.<s>``: every message
    lands in exactly one class and one section."""
    out: Dict[str, float] = {f"mpc.bytes.{c}": 0 for c, _ in BYTE_CLASSES}
    out.update({f"mpc.bytes.section.{s}": 0 for s in SECTIONS})
    for fingerprint in fingerprints:
        for _sender, n_bytes, label in fingerprint:
            path = "/" + label
            cls = next(c for c, rx in _CLASS_RES if rx.search(path))
            out[f"mpc.bytes.{cls}"] += n_bytes
            head = label.split("/", 1)[0]
            section = head if head in SECTIONS else "other"
            out[f"mpc.bytes.section.{section}"] += n_bytes
    return out


def sum_checks(layers: Dict[str, float], comm_bytes: int,
               max_unattributed: Tuple[float, float]) -> Dict[str, bool]:
    """The three parts-sum-to-the-whole assertions of one traced
    operation; ``max_unattributed`` is (share of wall, floor in s)."""
    share, floor = max_unattributed
    node_s = sum(layers[f"exec.node.{k}.s"] for k in NODE_KINDS)
    wall = layers["exec.traced_wall_s"]
    unattributed = layers["exec.unattributed_s"]
    return {
        "node_seconds_plus_unattributed_is_wall": (
            abs(node_s + unattributed - wall) <= 1e-6
            and -1e-6 <= unattributed <= share * wall + floor
        ),
        "byte_classes_sum_to_comm_bytes": (
            sum(layers[f"mpc.bytes.{c}"] for c, _ in BYTE_CLASSES)
            == comm_bytes
            and sum(layers[f"mpc.bytes.section.{s}"] for s in SECTIONS)
            == comm_bytes
        ),
        "node_bytes_sum_to_comm_bytes": (
            sum(layers[f"exec.node.{k}.bytes"] for k in NODE_KINDS)
            == comm_bytes
        ),
    }


def estimate_bytes(prepared: Any, query: Query, out_size: int,
                   group_bits: int) -> Optional[int]:
    """Whole-plan estimate for one query, or ``None`` for the decomposed
    queries (Q8) that expose no single plan to price."""
    from repro.bench.estimator import estimate_query_cost

    if prepared._build is None:
        return None
    jq = prepared._build()
    return estimate_query_cost(
        jq, out_size=out_size, group_bits=group_bits,
        backends=jq.backend_assignments(query.backend),
    ).total


def planning_metrics(
    prepared: Sequence[Any], queries: Sequence[Query],
    out_sizes: Sequence[int], group_bits: int, spans: Spans,
) -> Dict[str, float]:
    """Direct calls into the per-query planning layers, summed over the
    operation's queries (single-plan queries only)."""
    from repro.bench.estimator import estimate_query_cost
    from repro.exec import compile_plan

    out = dict.fromkeys(
        ("tpch.build_s", "query.plan_s", "query.route_s",
         "exec.compile_s", "bench.estimate_s"), 0.0,
    )
    for p, q, out_size in zip(prepared, queries, out_sizes):
        if p._build is None:
            continue
        with spans.span("tpch.build") as s:
            jq = p._build()
        out["tpch.build_s"] += s.seconds
        with spans.span("query.plan") as s:
            plan = jq.plan()
        out["query.plan_s"] += s.seconds
        with spans.span("query.route") as s:
            routes = jq.backend_assignments(q.backend)
        out["query.route_s"] += s.seconds
        with spans.span("exec.compile") as s:
            compile_plan(
                plan, owners=dict(jq.owners),
                input_order=list(jq.relations),
                reveal_result=True, backends=routes,
            )
        out["exec.compile_s"] += s.seconds
        with spans.span("bench.estimate") as s:
            estimate_query_cost(
                jq, out_size=out_size, group_bits=group_bits,
                backends=routes,
            )
        out["bench.estimate_s"] += s.seconds
    return out


def primitive_metrics(mode: Any, n: int, spans: Spans) -> Dict[str, float]:
    """One direct call into each primitive's public entry point at
    vector length ``n`` on a warm engine (both OT directions' base
    phases done; ``base_ot`` is the first of them)."""
    import numpy as np
    from repro.mpc import (
        ALICE,
        BOB,
        Context,
        Engine,
        SecurityParams,
        oblivious_extended_permutation,
        psi_with_payloads,
    )
    from repro.mpc.dhoprf import dh_oprf_match

    ctx = Context(mode, SecurityParams(ell=32), seed=PROTOCOL_SEED)
    engine = Engine(ctx)
    rng = np.random.default_rng(PROTOCOL_SEED)
    out: Dict[str, float] = {}

    def call(name: str, fn: Any) -> None:
        before = ctx.transcript.total_bytes
        with spans.span(f"mpc.{name}") as s:
            fn()
        out[f"mpc.{name}.s"] = s.seconds
        out[f"mpc.{name}.bytes"] = ctx.transcript.total_bytes - before

    pair = (bytes(16), bytes([1]) * 16)
    call("base_ot", lambda: engine.ot.transfer([pair], [1]))
    tiny = engine.share_column(ALICE, [1, 2, 3, 4])
    engine.mul_shared(tiny, tiny)  # reverse-direction base OTs
    dh_oprf_match(ctx, [(0,)], [(0,)])  # one-off DH group validation

    col = rng.integers(0, 1000, n)
    x = engine.share_column(ALICE, col)
    y = engine.share_column(BOB, col)
    pairs = [pair] * n
    choices = rng.integers(0, 2, n).tolist()
    same = rng.integers(0, 2, n - 1).astype(bool)
    xi = rng.integers(0, n, n)
    alice_items = [(i,) for i in range(n)]
    bob_items = [(i,) for i in range(n // 2, n + n // 2)]
    payloads = list(range(n))

    call("iknp", lambda: engine.ot.transfer(pairs, choices))
    call("share", lambda: engine.reconstruct_column(
        engine.share_column(ALICE, col)))
    call("gilboa", lambda: engine.mul_shared(x, y))
    call("garble", lambda: engine.indicator_nonzero(x))
    call("merge_sum", lambda: engine.merge_aggregate_sum(same, y))
    call("oep", lambda: oblivious_extended_permutation(
        ctx, engine.ot, xi, x, n))
    call("psi", lambda: psi_with_payloads(
        ctx, engine.ot, alice_items, bob_items, payloads))
    call("dhoprf", lambda: dh_oprf_match(ctx, alice_items, bob_items))
    return out
