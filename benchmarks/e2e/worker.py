"""One pass over one workload in one fresh OS process.

``run.py`` spawns this file; its last stdout line is one JSON object
(set-up time, warm samples, counts, checks, per-layer numbers, spans).
A fresh process per pass is what makes ``setup_s``, ``peak_rss_mb`` and
the ``cold.*`` numbers per workload.

Passes: ``timed`` measures the end-to-end metrics with no tracer
attached; ``traced`` takes a few untraced warm operations, then one
traced operation and the direct per-layer calls; ``both`` is ``timed``
followed by the traced part, for the human-facing full report.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import layers
import netparty
from catalog import (
    PER_LAYER,
    PROTOCOL_SEED,
    TRANSPORT_COUNTERS,
    WORKLOADS,
    Workload,
    workload,
)
from spans import Spans

#: How much of a traced operation's wall time may stay outside every
#: ``ExecutionTrace`` node (scheduler, dispatch, input marshalling): a
#: share of the wall time plus a floor for millisecond-sized smoke
#: operations.  Measured: 0.4 % on q3_sim, 9-14 % on mix_auto_sim's Q18.
MAX_UNATTRIBUTED = (0.25, 0.05)
#: Engine's own default base-OT group, named because the estimator
#: must be told the same value.
ENGINE_GROUP_BITS = 2048


class Checks:
    """Operations and output checks attempted, and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _counts_of(fingerprints: Sequence[layers.Fingerprint]) -> Dict[str, int]:
    """``Transcript``'s bytes / rounds / messages, recomputed from the
    fingerprints of an operation's queries and summed (a round is a
    maximal run of one sender)."""
    rounds = 0
    for fingerprint in fingerprints:
        last = None
        for sender, _n, _label in fingerprint:
            if sender != last:
                rounds += 1
                last = sender
    return {
        "comm_bytes": sum(n for f in fingerprints for _s, n, _l in f),
        "comm_rounds": rounds,
        "comm_messages": sum(len(f) for f in fingerprints),
    }


def _warm_loop(run_one: Any, floor: int, seconds: float) -> List[float]:
    """Closed loop, one operation outstanding: at least ``floor``
    operations, and more until ``seconds`` have passed."""
    samples: List[float] = []
    start = time.perf_counter()
    while len(samples) < floor or time.perf_counter() - start < seconds:
        samples.append(run_one())
    return samples


def _peak_rss_mb(who: int) -> float:
    """High-water mark so far; taken before the traced part so the
    end-to-end number never includes the tracer's own memory."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _loop_budget(w: Workload, args: argparse.Namespace) -> Tuple[int, float]:
    if args.passes == "traced":
        return w.trace_ops, 0.0
    return w.min_ops, args.seconds


# -- in-process workloads (SIMULATED / REAL) ----------------------------


class QueryRun(NamedTuple):
    """What one secure query of an operation produced."""

    result: Any
    fingerprint: layers.Fingerprint
    #: The query's ``ExecutionTrace`` (traced operations only).
    trace: Any
    span_id: int


def run_op(prepared: Sequence[Any], w: Workload, mode: Any, spans: Spans,
           *, name: str = "op", traced: bool = False,
           group_bits: int = ENGINE_GROUP_BITS, seed: int = PROTOCOL_SEED,
           session: bool = False) -> Tuple[float, List[QueryRun]]:
    """One operation: every query of the workload, back to back, each
    on a fresh context.  ``session`` attaches the runtime session the
    way ``repro net`` does."""
    from repro.mpc import Engine

    if session:
        from repro.runtime import enable_session

    runs: List[QueryRun] = []
    with spans.span(name) as op:
        for p, q in zip(prepared, w.queries):
            with spans.span(f"query.{q.name}.{q.backend}") as qs:
                ctx = p.make_context(mode, seed=seed)
                trace = layers.make_span_trace(spans) if traced else None
                engine = Engine(ctx, group_bits, tracer=trace)
                engine.backend = q.backend
                sess = (enable_session(ctx, None, seed=seed)
                        if session else None)
                result, _stats = p.run_secure(engine)
                if sess is not None:
                    sess.finish()
            runs.append(QueryRun(
                result, ctx.transcript.fingerprint(), trace, qs.id))
    return op.seconds, runs


def inprocess_pass(w: Workload, args: argparse.Namespace, spans: Spans,
                   checks: Checks) -> Dict[str, Any]:
    with spans.span("setup"):
        with spans.span("import") as sp_import:
            from repro.mpc import Mode
            from repro.tpch import PREPARED, generate
        mode = Mode[w.mode]
        with spans.span("tpch.generate") as sp_generate:
            datasets = {
                scale: generate(scale, seed=args.seed)
                for scale in sorted({q.scale_mb for q in w.queries})
            }
        with spans.span("tpch.prepare") as sp_prepare:
            prepared = [PREPARED[q.name](datasets[q.scale_mb])
                        for q in w.queries]
        with spans.span("relalg.plain") as sp_plain:
            plains = [p.run_plain()[0] for p in prepared]
        cold_s, cold_runs = run_op(prepared, w, mode, spans, name="op.cold")
    setup_s = time.monotonic() - args.spawned_at
    out: Dict[str, Any] = {"setup_s": setup_s}
    if args.setup_only:
        return out

    counts = _counts_of([r.fingerprint for r in cold_runs])
    if mode is Mode.REAL:
        # REAL must send exactly what the SIMULATED cost model charges.
        _, sim_runs = run_op(prepared, w, Mode.SIMULATED, spans,
                             name="op.simulated_reference")
        reference = [r.fingerprint for r in sim_runs]
    else:
        reference = [r.fingerprint for r in cold_runs]

    def check_op(name: str, runs: List[QueryRun]) -> None:
        wrong = [
            q.name for q, r, plain in zip(w.queries, runs, plains)
            if not r.result.semantically_equal(plain)
        ]
        checks.record(f"{name}.result_equals_plaintext", not wrong,
                      f"differs on {wrong}")
        same = [r.fingerprint for r in runs] == reference
        checks.record(
            f"{name}.transcript_repeats"
            + ("_and_real_equals_simulated" if mode is Mode.REAL else ""),
            same, "fingerprint differs from the reference run",
        )

    check_op("op.cold", cold_runs)
    for q, p, r in zip(w.queries, prepared, cold_runs):
        est = layers.estimate_bytes(p, q, len(r.result), ENGINE_GROUP_BITS)
        if est is not None:
            metered = _counts_of([r.fingerprint])["comm_bytes"]
            checks.record(
                f"estimator.{q.name}.{q.backend}", est == metered,
                f"estimate {est} != metered {metered}",
            )

    def warm_op() -> float:
        seconds, runs = run_op(prepared, w, mode, spans)
        check_op("op", runs)
        return seconds

    samples = _warm_loop(warm_op, *_loop_budget(w, args))
    out.update(samples=samples, counts=counts,
               peak_rss_mb=_peak_rss_mb(resource.RUSAGE_SELF))
    if args.passes == "timed":
        return out

    traced_s, traced_runs = run_op(prepared, w, mode, spans,
                                   name="op.traced", traced=True)
    check_op("op.traced", traced_runs)
    for r in traced_runs:
        layers.add_node_spans(spans, r.trace, r.span_id)
    metrics = layers.zeros()
    metrics.update(layers.node_metrics(
        [r.trace for r in traced_runs], traced_s))
    metrics.update(layers.byte_class_metrics(
        [r.fingerprint for r in traced_runs]))
    metrics.update(layers.planning_metrics(
        prepared, w.queries, [len(r.result) for r in traced_runs],
        ENGINE_GROUP_BITS, spans))
    with spans.span("primitives"):
        metrics.update(layers.primitive_metrics(mode, w.primitive_n, spans))
    warm_median = statistics.median(samples)
    metrics.update({
        "tpch.generate_s": sp_generate.seconds,
        "tpch.prepare_s": sp_prepare.seconds,
        "tpch.input_tuples": sum(p.input_tuples for p in prepared),
        "tpch.effective_bytes": sum(p.effective_bytes for p in prepared),
        "relalg.plain_s": sp_plain.seconds,
        "cold.first_op_s": cold_s,
        "cold.penalty_s": cold_s - warm_median,
        "cold.import_s": sp_import.seconds,
        "trace.overhead_share": (traced_s - warm_median) / warm_median,
    })
    out.update(layers=metrics, sums=layers.sum_checks(
        metrics, counts["comm_bytes"], MAX_UNATTRIBUTED))
    return out


# -- the two-process workload -------------------------------------------


def net_pass(w: Workload, args: argparse.Namespace, spans: Spans,
             checks: Checks, workdir: str) -> Dict[str, Any]:
    query = w.queries[0]
    # `repro net` has one seed, the protocol's, and always generates
    # the default data set: on this workload --seed varies the
    # protocol randomness, not the data.
    seed = args.seed

    with spans.span("setup"):
        with spans.span("import") as sp_import:
            from repro.runtime import NetConfig, solo_profile
            from repro.runtime.netrun import equal_to_baseline
        config = NetConfig(
            role="alice", query=query.name, scale_mb=query.scale_mb,
            seed=seed, backend=query.backend,
        )
        with spans.span("runtime.solo.cold"):
            baseline = solo_profile(config)
        with spans.span("op.cold") as sp_cold:
            first = netparty.run_pair(query, seed, workdir, "cold")
    setup_s = time.monotonic() - args.spawned_at
    out: Dict[str, Any] = {"setup_s": setup_s}
    if args.setup_only:
        return out

    def check_pair(name: str, pair: netparty.PairResult) -> None:
        bad = []
        for role in netparty.ROLES:
            outcome = pair.outcomes[role]
            if pair.codes[role] != 0:
                bad.append(f"{role} exited {pair.codes[role]}")
            elif outcome is None or "profile" not in outcome:
                bad.append(f"{role} wrote no profile")
            else:
                drift = equal_to_baseline(outcome, baseline)
                if drift:
                    bad.append(f"{role}: {drift}")
        checks.record(f"{name}.parties_match_solo", not bad, "; ".join(bad))

    check_pair("op.cold", first)
    pairs = [first]

    def warm_op() -> float:
        with spans.span("op"):
            pair = netparty.run_pair(
                query, seed, workdir, f"warm{len(pairs)}")
        check_pair("op", pair)
        checks.record(
            "op.journal_bytes_repeat",
            abs(pair.journal_bytes - first.journal_bytes) <= 8,
            f"{pair.journal_bytes} vs {first.journal_bytes}",
        )
        pairs.append(pair)
        return pair.wall_s

    samples = _warm_loop(warm_op, *_loop_budget(w, args))

    # Durability: kill Bob mid-plan, keep only the committed journal
    # bytes, resume, and demand the byte-identical outcome.
    kill_node = baseline.nodes_seen[len(baseline.nodes_seen) // 2]
    with spans.span("op.kill_resume"):
        resumed = netparty.run_pair(
            query, seed, workdir, "resume", kill_bob_at_node=kill_node)
    check_pair("kill_resume", resumed)
    bob = resumed.outcomes["bob"] or {}
    checks.record(
        "kill_resume.resumed_from_journal",
        bob.get("resumed_from") is not None,
        f"bob's outcome says resumed_from={bob.get('resumed_from')}",
    )

    out.update(
        samples=samples,
        counts=_counts_of([baseline.fingerprint]),
        journal_bytes=first.journal_bytes,
        # The larger of the two parties, over every pair so far.
        peak_rss_mb=_peak_rss_mb(resource.RUSAGE_CHILDREN),
    )
    if args.passes == "timed":
        return out

    # `repro net` has no tracer switch, so there is no traced pair: the
    # transport counters are the last warm operation's, and the traced
    # run is the in-process mirror in _net_solo_layers.
    warm_median = statistics.median(samples)
    transport = [
        (pairs[-1].outcomes[r] or {}).get("transport") or {}
        for r in netparty.ROLES
    ]
    metrics = layers.zeros()
    metrics.update({
        f"runtime.transport.{t}": sum(s.get(t, 0) for s in transport)
        for t in TRANSPORT_COUNTERS
    })
    metrics.update(_net_solo_layers(w, config, baseline, spans, checks))
    metrics.update(_net_durable_layers(first.journals["bob"], spans, checks))
    startup = []
    for _ in range(3):
        with spans.span("runtime.startup") as sp:
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           check=True)
        startup.append(sp.seconds)
    metrics.update({
        "cold.first_op_s": sp_cold.seconds,
        "cold.penalty_s": sp_cold.seconds - warm_median,
        "cold.import_s": sp_import.seconds,
        "runtime.startup_s": statistics.median(startup),
        "runtime.overhead_s": (
            warm_median - metrics["runtime.solo_s"]
            - statistics.median(startup)),
        "runtime.durable.journal_bytes": first.journal_bytes,
        "runtime.durable.journal_per_input_byte": (
            first.journal_bytes / metrics["tpch.effective_bytes"]),
        "runtime.resume_s": resumed.resume_s,
    })
    out.update(layers=metrics, sums=layers.sum_checks(
        metrics, out["counts"]["comm_bytes"], MAX_UNATTRIBUTED))
    return out


def _net_solo_layers(w: Workload, config: Any, baseline: Any, spans: Spans,
                     checks: Checks) -> Dict[str, float]:
    """The run the parties mirror, in process with the session attached
    as `repro net` attaches it and the tracer on: the exec/mpc split of
    exactly the bytes the parties metered, framing included."""
    from repro.bench.estimator import session_framing_overhead
    from repro.mpc import Mode
    from repro.runtime import solo_profile
    from repro.tpch import PREPARED, generate

    query = w.queries[0]
    with spans.span("tpch.generate") as sp_generate:
        dataset = generate(query.scale_mb)
    with spans.span("tpch.prepare") as sp_prepare:
        prepared = [PREPARED[query.name](dataset)]
    with spans.span("relalg.plain") as sp_plain:
        prepared[0].run_plain()

    def solo(name: str, **kwargs: Any) -> Tuple[float, QueryRun]:
        seconds, runs = run_op(
            prepared, w, Mode.SIMULATED, spans, name=name,
            group_bits=config.group_bits, seed=config.seed, **kwargs)
        return seconds, runs[0]

    # Alternate the two variants: a single 0.4 s shot of each is noise.
    rounds = [
        (solo("solo.no_session")[0], solo("solo.session", session=True)[0])
        for _ in range(3)
    ]
    plain_s = statistics.median(r[0] for r in rounds)
    session_s = statistics.median(r[1] for r in rounds)
    traced_s, traced = solo("solo.traced", session=True, traced=True)
    layers.add_node_spans(spans, traced.trace, traced.span_id)
    with spans.span("runtime.solo") as sp_solo:
        solo_profile(config)

    checks.record(
        "traced.in_process_run_matches_net_baseline",
        tuple(traced.fingerprint) == tuple(baseline.fingerprint),
        "fingerprint differs",
    )
    framing = session_framing_overhead(len(baseline.fingerprint))
    metered = _counts_of([baseline.fingerprint])["comm_bytes"]
    est = layers.estimate_bytes(
        prepared[0], query, len(traced.result), config.group_bits)
    checks.record(
        f"estimator.{query.name}.{query.backend}",
        est is not None and est + framing == metered,
        f"estimate {est} + framing {framing} != metered {metered}",
    )

    out = layers.node_metrics([traced.trace], traced_s)
    out.update(layers.byte_class_metrics([traced.fingerprint]))
    out.update(layers.planning_metrics(
        prepared, w.queries, [len(traced.result)], config.group_bits, spans))
    out.update({
        "tpch.generate_s": sp_generate.seconds,
        "tpch.prepare_s": sp_prepare.seconds,
        "tpch.input_tuples": prepared[0].input_tuples,
        "tpch.effective_bytes": prepared[0].effective_bytes,
        "relalg.plain_s": sp_plain.seconds,
        "runtime.solo_s": sp_solo.seconds,
        "runtime.session_overhead_s": session_s - plain_s,
        "runtime.framing.bytes": framing,
        "trace.overhead_share": (traced_s - session_s) / session_s,
    })
    return out


def _net_durable_layers(journal: str, spans: Spans,
                        checks: Checks) -> Dict[str, float]:
    """Public ``Journal`` / ``DurableStore`` / ``revive`` on the journal
    a finished party left behind."""
    from repro.runtime import DurableStore, Journal, revive

    with spans.span("runtime.durable.scan") as sp_scan:
        n_records = sum(1 for _ in Journal.scan(journal))
    state = DurableStore.load(journal)
    with spans.span("runtime.durable.revive") as sp_revive:
        revive(state.latest[1])
    checks.record(
        "durable.journal_is_meta_checkpoints_done",
        state.done is not None and n_records == len(state.checkpoints) + 2,
        f"{n_records} records, {len(state.checkpoints)} checkpoints",
    )
    return {
        "runtime.durable.checkpoints": len(state.checkpoints),
        "runtime.durable.scan_s": sp_scan.seconds,
        "runtime.durable.revive_s": sp_revive.seconds,
    }


# -- entry point --------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", required=True,
                    choices=["timed", "traced", "both"])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's time.monotonic() at spawn")
    ap.add_argument("--scratch", required=True,
                    help="directory (inside the checkout) for journals")
    args = ap.parse_args(argv)

    w = workload(args.workload, args.smoke)
    spans = Spans(w.name, keep=args.passes != "timed")
    checks = Checks()
    if w.mode == "NET":
        with tempfile.TemporaryDirectory(
                prefix=f"{w.name}-", dir=args.scratch) as workdir:
            out = net_pass(w, args, spans, checks, workdir)
    else:
        out = inprocess_pass(w, args, spans, checks)

    if "layers" in out:
        unknown = set(out["layers"]) - {m.name for m in PER_LAYER}
        checks.record("layers.only_declared_metrics", not unknown,
                      f"undeclared: {sorted(unknown)}")
        for name, ok in out["sums"].items():
            checks.record(f"sum_to_whole.{name}", ok)
    out.update(
        workload=w.name,
        seed=args.seed,
        attempted=checks.attempted,
        failures=checks.failures,
        spans=spans.to_json(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
