"""Command-line interface.

::

    python -m repro figures --queries Q3 Q10 --scales 1 3 [--json rows.json]
    python -m repro tpch Q3 --scale 1 [--real] [--backend auto]
    python -m repro trace Q3 --scale 1 [-o trace.json]
    python -m repro estimate Q3 --scale 10
    python -m repro fuzz --seed 0 --iterations 50 [--backend both]
    python -m repro chaos --query q3 --scale tiny --sweep all
    python -m repro chaos --level process --query q3 --stride 8
    python -m repro net --role alice --listen 127.0.0.1:9501 --query Q3
    python -m repro net --role bob --connect 127.0.0.1:9501 --query Q3
    python -m repro net --role bob --connect ... --resume --journal bob.syj
    python -m repro serve --queries Q3 Q10 --tenants 2 --check-solo
    python -m repro serve --isolation-sweep --stride 1
    python -m repro lint src/
    python -m repro demo

``figures`` regenerates the paper's evaluation series; ``tpch`` runs a
single benchmark query end to end and prints results + costs;
``trace`` runs one query through the execution scheduler and dumps the
per-operator ExecutionTrace as JSON; ``estimate`` prints the analytic
cost prediction without running the protocol; ``fuzz`` runs the
differential query fuzzer and obliviousness transcript audit (see
docs/TESTING.md); ``chaos`` sweeps a deterministic fault point across
every wire message and plan node of a query execution and requires
every run to end completed-correct or clean-abort (see
docs/ROBUSTNESS.md) — ``--level process`` runs the sweep over real OS
processes and TCP sockets, SIGKILLing and resuming parties; ``net``
runs one party of a two-process query over a real socket, with
disk-durable checkpoints and ``--resume`` crash recovery; ``lint``
runs the obliviousness &
channel-discipline static analyzer (see docs/LINTING.md); ``serve``
drives a scripted multi-tenant workload through the query service —
interleaved sessions, shared set-up store, per-tenant budgets — and can
byte-compare every session against its solo run or sweep fault points
in one tenant while watching another for transcript drift (see
docs/SERVING.md); ``demo`` runs the Example 1.1 quickstart with REAL
cryptography.
"""

from __future__ import annotations

import argparse
import sys

from .bench import check_figure_shape, format_figure, run_figure
from .mpc import Context, Engine, Mode

__all__ = ["main"]


def _cmd_figures(args) -> int:
    failures = 0
    all_rows = []
    for name in args.queries:
        rows = run_figure(
            name, scales=args.scales,
            q9_nations=list(range(args.q9_nations)),
        )
        all_rows.extend(rows)
        print(format_figure(rows))
        problems = check_figure_shape(rows)
        for p in problems:
            print(f"  SHAPE VIOLATION: {p}")
        failures += bool(problems)
        print()
    if args.json:
        import dataclasses
        import json

        lines = [json.dumps(dataclasses.asdict(r)) for r in all_rows]
        with open(args.json, "w") as fh:  # one row per line: diffable
            fh.write("[\n" + ",\n".join(lines) + "\n]\n")
        print(f"wrote {len(lines)} rows to {args.json}")
    return 1 if failures else 0


def _cmd_tpch(args) -> int:
    from .tpch import generate, prepare

    query = prepare(
        args.query, generate(args.scale), list(range(args.q9_nations))
    )
    mode = Mode.REAL if args.real else Mode.SIMULATED
    engine = Engine(query.make_context(mode, seed=args.seed))
    engine.backend = args.backend
    result, stats = query.run_secure(engine)
    plain, plain_seconds = query.run_plain()
    ok = result.semantically_equal(plain)
    print(f"{query.name}: {query.description}")
    print(f"  result rows: {len(result)} (matches plaintext: {ok})")
    for row, value in sorted(result, key=str)[: args.show]:
        print(f"    {row} -> {value / query.result_scale:,.2f}")
    print(
        f"  secure ({mode.value}): {stats.seconds:.2f}s, "
        f"{stats.total_bytes / 1e6:,.1f} MB, {stats.rounds} rounds"
    )
    print(f"  plaintext: {plain_seconds:.2f}s")
    return 0 if ok else 1


def _cmd_trace(args) -> int:
    import json

    from .exec import ExecutionTrace
    from .tpch import generate, prepare

    query = prepare(
        args.query, generate(args.scale), list(range(args.q9_nations))
    )
    mode = Mode.REAL if args.real else Mode.SIMULATED
    tracer = ExecutionTrace()
    engine = Engine(query.make_context(mode, seed=args.seed), tracer=tracer)
    engine.backend = args.backend
    query.run_secure(engine)
    tracer.meta["query"] = query.name
    tracer.meta["scale_mb"] = args.scale
    tracer.meta["mode"] = mode.value
    tracer.meta["backend"] = args.backend
    payload = json.dumps(tracer.to_json(), indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
        print(
            f"{query.name}: {len(tracer.nodes)} trace nodes, "
            f"{tracer.total_bytes / 1e6:,.1f} MB -> {args.output}"
        )
    else:
        print(payload)
    return 0


def _cmd_estimate(args) -> int:
    from .bench.estimator import BACKENDS, estimate_node_costs
    from .bench.estimator import estimate_query_cost
    from .tpch import PREPARED, generate

    dataset = generate(args.scale)
    query = PREPARED[args.query](dataset)
    print(
        f"{query.name} at {args.scale} MB: "
        f"{query.input_tuples:,} input tuples, "
        f"effective input {query.effective_bytes / 1e6:.2f} MB"
    )
    if query._build is None:
        print(
            "  decomposed into several plans (Section 7), so there is no "
            "single plan to price; run `tpch` for the measured total"
        )
        return 0
    jq = query._build()
    sizes = {n: len(r) for n, r in jq.relations.items()}
    routed = jq.backend_assignments("auto")
    print("  fold/semijoin nodes, marginal bytes (base OTs excluded):")
    node_costs = estimate_node_costs(jq.plan(), sizes, jq.owners)
    for label, costs in node_costs.items():
        cells = "  ".join(f"{b} {costs[b]:,}" for b in BACKENDS)
        print(f"    {label}: {cells}  -> auto routes {routed[label]}")
    est = estimate_query_cost(jq, out_size=0, backends=routed)
    print(
        f"  plan total under auto routing: {est.total:,} B at out_size=0 "
        "(reduce + semijoin + reveal; the output-sized part of the full "
        "join is left out)"
    )
    return 0


def _make_fault_plan(kind, at, ticks):
    """One-spec FaultPlan from the fuzz CLI's fault options."""
    from .runtime import (
        DEFAULT_NODE_BUDGET,
        FaultPlan,
        FaultSpec,
        MESSAGE_FAULT_KINDS,
    )
    from .mpc.transcript import BOB

    if kind == "perturb_share":
        spec = FaultSpec("perturb_share")
    elif kind == "crash":
        spec = FaultSpec("crash", node=at, party=BOB)
    elif kind in MESSAGE_FAULT_KINDS:
        spec = FaultSpec(
            kind,
            message_index=at,
            ticks=ticks if ticks else DEFAULT_NODE_BUDGET + 1,
        )
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown fault kind {kind!r}")
    return FaultPlan([spec])


def _cmd_fuzz(args) -> int:
    from .fuzz import (
        fuzz,
        iter_corpus,
        replay_file,
    )

    if args.replay:
        failures = replay_file(args.replay, audit=not args.no_audit)
        for f in failures:
            print(f)
        print(
            f"replay {args.replay}: "
            + ("FAILED" if failures else "ok")
        )
        return 1 if failures else 0

    if args.corpus is not None:
        from .fuzz import check_instance

        n, bad = 0, 0
        for path, instance in iter_corpus(args.corpus or None):
            failures = check_instance(
                instance, audit=not args.no_audit,
                backend=args.backend,
            )
            n += 1
            for f in failures:
                bad += 1
                print(f"{path.name}: {f}")
        print(f"corpus: {n} instances, {bad} failures")
        return 1 if bad else 0

    fault = (
        _make_fault_plan(
            args.inject_fault, args.fault_at, args.fault_ticks
        )
        if args.inject_fault
        else None
    )

    def progress(i, report):
        if (i + 1 - args.start) % 10 == 0:
            print(
                f"  ... {i + 1 - args.start}/{args.iterations} "
                f"instances, {len(report.failures)} failures"
            )

    report = fuzz(
        args.seed,
        args.iterations,
        start=args.start,
        real_every=args.real_every,
        audit=not args.no_audit,
        fault=fault,
        max_failures=args.max_failures,
        on_progress=progress,
        save_failures_to=args.save_failures,
        backend=args.backend,
    )
    for f in report.failures:
        print(f)
    print(f"fuzz --seed {args.seed}: {report.summary()}")
    if args.inject_fault:
        # Self-test mode: the injected fault MUST be detected.
        caught = bool(report.failures)
        print(
            "injected fault was "
            + ("caught and reported" if caught else "NOT caught")
        )
        return 0 if caught else 1
    return 0 if report.ok else 1


def _cmd_net(args) -> int:
    import json

    from .runtime import (
        NetConfig,
        ProcessFaults,
        ReconnectPolicy,
        ProtocolAbort,
        parse_endpoint,
        run_party,
    )

    faults = None
    if any(
        v is not None
        for v in (
            args.kill_at_node, args.kill_at_wire, args.drop_at_wire,
            args.stall_at_wire, args.partition_at_wire,
        )
    ):
        faults = ProcessFaults(
            kill_at_node=args.kill_at_node,
            kill_at_wire=args.kill_at_wire,
            drop_at_wire=args.drop_at_wire,
            stall_at_wire=args.stall_at_wire,
            stall_ms=args.stall_ms,
            partition_at_wire=args.partition_at_wire,
            partition_ms=args.partition_ms,
        )

    config = NetConfig(
        role=args.role,
        query=args.query,
        scale_mb=0.1 if args.scale == "tiny" else float(args.scale),
        seed=args.seed,
        backend=args.backend,
        listen=parse_endpoint(args.listen) if args.listen else None,
        connect=parse_endpoint(args.connect) if args.connect else None,
        journal=args.journal,
        resume=args.resume,
        reconnect=ReconnectPolicy(
            max_attempts=args.reconnect_attempts,
        ),
        heartbeat_s=args.heartbeat,
        idle_timeout_s=args.idle_timeout,
        exchange_deadline_s=args.exchange_deadline,
        faults=faults,
    )

    def emit(payload) -> None:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")

    try:
        outcome = run_party(config)
    except ProtocolAbort as abort:
        # Sanitized failure: the typed abort is the whole public story.
        emit(
            {
                "status": "abort",
                "role": config.role,
                "query": config.query,
                "abort": abort.to_json(),
            }
        )
        print(f"net {config.role} {config.query}: ABORT {abort}")
        return 2
    emit(outcome)
    profile = outcome["profile"]
    print(
        f"net {config.role} {config.query}: done, "
        f"{profile['n_messages']} msgs"
        + (
            f", resumed from node {outcome['resumed_from']}"
            if outcome.get("resumed_from") is not None
            else ""
        )
    )
    return 0


def _sweep_progress(args):
    """``on_progress`` for any sweep: violations always print."""

    def progress(i, n, outcome):
        if args.verbose or outcome.classification == "VIOLATION":
            print(f"  [{i}/{n}] {outcome}")

    return progress


def _finish_sweep(args, title, report, real_sample=None) -> int:
    """The one print/write/exit path of every sweep command.  A sweep
    that classified no fault point proved nothing, so it fails."""
    import json

    print(f"{title}: {report.summary()}")
    payload = report.to_json()
    ok = report.ok and report.n_fault_points > 0
    if not report.n_fault_points:
        print("FAILED: the sweep classified zero fault points")
    if real_sample is not None:
        print(f"{title} [real]: {real_sample.summary()}")
        payload["real_sample"] = real_sample.to_json()
        ok = ok and real_sample.ok
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"report -> {args.output}")
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    import tempfile

    from .runtime import (
        MESSAGE_FAULT_KINDS,
        PROCESS_FAULT_KINDS,
        FaultPlan,
        NetConfig,
        build_specs,
        classify_fault,
        make_tpch_runner,
        sweep,
        sweep_faults,
        sweep_processes,
    )

    level_kinds = (
        PROCESS_FAULT_KINDS
        if args.level == "process"
        else MESSAGE_FAULT_KINDS + ("crash",)
    )
    kinds = tuple(args.kinds) if args.kinds else level_kinds
    foreign = [k for k in kinds if k not in level_kinds]
    if foreign:
        args.error(
            f"--level {args.level} sweeps the kinds "
            f"{', '.join(level_kinds)}; got {', '.join(foreign)}"
        )
    scale = 0.1 if args.scale == "tiny" else float(args.scale)
    stride = 1 if args.sweep == "all" else args.stride
    meta = dict(
        query=args.query, scale_mb=scale, backend=args.backend,
        level=args.level, stride=stride, kinds=list(kinds),
    )
    title = (
        f"chaos {args.query} scale={scale} backend={args.backend} "
        f"[{args.level} level]"
    )

    if args.level == "process":
        config = NetConfig(
            role="alice",  # per-scenario roles are set by the harness
            query=args.query,
            scale_mb=scale,
            seed=args.seed,
            backend=args.backend,
        )
        with tempfile.TemporaryDirectory(prefix="repro-netchaos-") as wd:
            report = sweep_processes(
                config, kinds=kinds, stride=stride, workdir=wd,
                timeout_s=args.timeout, on_progress=_sweep_progress(args),
            )
        report.meta.update(meta)
        return _finish_sweep(args, title, report)

    run = make_tpch_runner(
        args.query, scale_mb=scale, seed=args.seed, backend=args.backend
    )
    report = sweep_faults(
        run, kinds=kinds, stride=stride, on_progress=_sweep_progress(args)
    )
    report.meta.update(meta, mode="simulated")
    real_sample = None
    if args.real_sample:
        # REAL-mode spot check: the identical session/fault machinery
        # over genuine cryptography, at a handful of evenly spaced
        # fault points (REAL runs cost ~20s each at tiny scale).
        run = make_tpch_runner(
            args.query, scale_mb=scale, real=True, seed=args.seed,
            backend=args.backend,
        )
        baseline = run(FaultPlan())
        specs = build_specs(baseline, kinds=kinds)
        step = max(1, len(specs) // args.real_sample)
        real_sample = sweep(
            specs[::step][: args.real_sample],
            lambda spec: classify_fault(run, baseline, spec),
            baseline,
            lambda i, n, outcome: print(f"  real: {outcome}"),
        )
        real_sample.meta.update(meta, mode="real")
    return _finish_sweep(args, title, report, real_sample)


def _cmd_serve(args) -> int:
    import json

    from .runtime import MESSAGE_FAULT_KINDS
    from .serve import isolation_sweep, run_workload, tpch_request

    scale = 0.1 if args.scale == "tiny" else float(args.scale)
    kinds = (
        tuple(args.kinds)
        if args.kinds
        else MESSAGE_FAULT_KINDS + ("crash",)
    )

    if args.isolation_sweep:
        # Two-tenant sweep: fault every point of the victim's run,
        # require the observer byte-identical to its solo baseline.
        victim_q = args.queries[0]
        observer_q = (
            args.queries[1] if len(args.queries) > 1 else args.queries[0]
        )

        def factory(query, tenant, seed):
            def make(faults):
                return tpch_request(
                    query, tenant=tenant, scale_mb=scale, real=args.real,
                    seed=seed, name=f"{query}/{tenant}", faults=faults,
                    backend=args.backend,
                )

            return make

        report = isolation_sweep(
            factory(victim_q, "victim", args.seed),
            factory(observer_q, "observer", args.seed + 1),
            interleave=args.interleave, kinds=kinds, stride=args.stride,
            on_progress=_sweep_progress(args),
        )
        report.meta.update(
            victim=victim_q, observer=observer_q, scale_mb=scale,
            backend=args.backend, level="serve", kinds=list(kinds),
        )
        return _finish_sweep(
            args,
            f"serve isolation {victim_q}->{observer_q} scale={scale} "
            f"interleave={args.interleave}",
            report,
        )

    requests = [
        tpch_request(
            q, tenant=f"tenant{i % args.tenants}", scale_mb=scale,
            real=args.real, seed=args.seed,
            name=f"{q}#{i}", backend=args.backend,
        )
        for i, q in enumerate(args.queries)
    ]
    budgets = None
    if args.budget_mb:
        budgets = {
            f"tenant{t}": (int(args.budget_mb * 1e6), 1 << 30)
            for t in range(args.tenants)
        }
    result = run_workload(
        requests, interleave=args.interleave, budgets=budgets,
        check_solo=args.check_solo,
    )
    print(
        f"serve {args.tenants} tenants, interleave="
        f"{args.interleave}: {result.report.summary()}"
    )
    for s in result.report.sessions:
        line = (
            f"  {s['tenant']}/{s['request']}: {s['state']}, "
            f"{s.get('n_messages', 0)} msgs, "
            f"{s.get('total_bytes', 0) / 1e6:,.2f} MB"
        )
        if args.check_solo and s["request"] in result.solo_deltas:
            delta = result.solo_deltas[s["request"]]
            line += (
                "  [== solo]" if delta == "" else f"  [DRIFT: {delta}]"
            )
        print(line)
    ok = all(
        s["state"] in ("done", "rejected")
        for s in result.report.sessions
    )
    if args.check_solo:
        ok = ok and result.isolated
    payload = result.to_json()

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"report -> {args.output}")
    return 0 if ok else 1


def _cmd_demo(args) -> int:
    import runpy
    from pathlib import Path

    script = (
        Path(__file__).resolve().parent.parent.parent
        / "examples"
        / "quickstart.py"
    )
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    print("examples/quickstart.py not found", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument(
        "--queries", nargs="+",
        default=["Q3", "Q10", "Q18", "Q8", "Q9"],
    )
    p.add_argument("--scales", nargs="+", type=float, default=[1, 3, 10])
    p.add_argument("--q9-nations", type=int, default=25)
    p.add_argument(
        "--json", metavar="PATH",
        help="also write the measured rows (FigureRow fields) as JSON",
    )
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("tpch", help="run one TPC-H benchmark query")
    p.add_argument("query", choices=["Q3", "Q10", "Q18", "Q8", "Q9"])
    p.add_argument("--scale", type=float, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--show", type=int, default=5)
    p.add_argument("--q9-nations", type=int, default=25)
    p.add_argument(
        "--real", action="store_true",
        help="REAL-mode cryptography (slow; use tiny scales)",
    )
    p.add_argument(
        "--backend", choices=["yannakakis", "linear", "auto"],
        default="yannakakis",
        help="join back-end: the paper's PSI protocol, the "
        "linear-complexity DH-OPRF protocol, or per-node cost routing "
        "(see docs/BACKENDS.md)",
    )
    p.set_defaults(fn=_cmd_tpch)

    p = sub.add_parser(
        "trace", help="per-operator execution trace as JSON"
    )
    p.add_argument("query", choices=["Q3", "Q10", "Q18", "Q8", "Q9"])
    p.add_argument("--scale", type=float, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--q9-nations", type=int, default=25)
    p.add_argument(
        "-o", "--output", default=None,
        help="write the JSON here instead of stdout",
    )
    p.add_argument(
        "--real", action="store_true",
        help="REAL-mode cryptography (slow; use tiny scales)",
    )
    p.add_argument(
        "--backend", choices=["yannakakis", "linear", "auto"],
        default="yannakakis",
        help="join back-end; fold/semijoin trace nodes report their "
        "routed back-end and estimated bytes",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("estimate", help="analytic cost prediction")
    p.add_argument("query", choices=["Q3", "Q10", "Q18", "Q8", "Q9"])
    p.add_argument("--scale", type=float, default=1)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzer + obliviousness transcript audit",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="master seed of the instance stream")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument(
        "--start", type=int, default=0,
        help="first instance index (for replaying a failing seed)",
    )
    p.add_argument(
        "--real-every", type=int, default=10,
        help="every Nth instance also runs a tiny REAL-mode "
        "differential (0 disables)",
    )
    p.add_argument(
        "--no-audit", action="store_true",
        help="skip the obliviousness transcript audit",
    )
    p.add_argument(
        "--inject-fault", nargs="?", const="perturb_share",
        default=None, metavar="KIND",
        choices=[
            "perturb_share", "corrupt", "truncate", "drop",
            "duplicate", "reorder", "hang", "crash",
        ],
        help="self-test: inject one deterministic fault (default "
        "kind: perturb_share; channel kinds are injected by the "
        "session layer) and require the fuzzer to catch it — as an "
        "oracle mismatch or a typed protocol abort (exit 0 iff "
        "caught)",
    )
    p.add_argument(
        "--fault-at", type=int, default=3, metavar="N",
        help="wire-message index (message faults) or plan-node id "
        "(crash) the injected fault targets",
    )
    p.add_argument(
        "--fault-ticks", type=int, default=0, metavar="T",
        help="hang duration in virtual ticks (0 = just past the "
        "node deadline budget)",
    )
    p.add_argument("--max-failures", type=int, default=10)
    p.add_argument(
        "--save-failures", default=None, metavar="DIR",
        help="write failing instances as replayable JSON here",
    )
    p.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-check one saved instance/failure file",
    )
    p.add_argument(
        "--corpus", default=None, metavar="DIR", nargs="?", const="",
        help="replay every corpus file (default: tests/corpus)",
    )
    p.add_argument(
        "--backend",
        choices=["yannakakis", "linear", "auto", "both"],
        default="yannakakis",
        help='join back-end; "both" runs every instance under both '
        "protocols — the cross-protocol differential oracle plus a "
        "per-back-end obliviousness audit",
    )
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "chaos",
        help="fault-injection sweep: every message is a fault point",
    )
    p.add_argument(
        "--query", type=lambda s: s.upper(), default="Q3",
        choices=["Q3", "Q10", "Q18", "Q8", "Q9"],
        help="TPC-H query to sweep (case-insensitive)",
    )
    p.add_argument(
        "--scale", default="tiny",
        help='dataset scale in MB, or "tiny" (= 0.1)',
    )
    p.add_argument(
        "--sweep", choices=["all", "quick"], default="all",
        help='"all" faults every wire-message index; "quick" '
        "strides (see --stride)",
    )
    p.add_argument(
        "--stride", type=int, default=5,
        help="message-index stride for --sweep quick",
    )
    p.add_argument(
        "--kinds", nargs="+", default=None,
        choices=[
            "corrupt", "truncate", "drop", "duplicate", "reorder",
            "hang", "crash",
            "kill-node", "kill-wire", "stall", "partition",
        ],
        help="fault kinds to sweep (default: all for the selected "
        "level; kill-node/kill-wire/stall/partition are process-level "
        "and a kind of the other level is rejected)",
    )
    p.add_argument(
        "--level", choices=["message", "process"], default="message",
        help='"message" perturbs frames inside one process (PR-5); '
        '"process" runs both parties as real OS processes over TCP '
        "and kills/drops/partitions them (see docs/ROBUSTNESS.md)",
    )
    p.add_argument(
        "--backend", choices=["yannakakis", "linear", "auto"],
        default="yannakakis",
        help="join back-end the swept runs execute under",
    )
    p.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-scenario wall-clock budget for --level process",
    )
    p.add_argument(
        "--real-sample", type=int, default=0, metavar="N",
        help="additionally spot-check N fault points in REAL mode "
        "(slow: ~20s per run at tiny scale)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--verbose", action="store_true",
        help="print every fault point's classification",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="write the JSON report here",
    )
    p.set_defaults(fn=_cmd_chaos, error=p.error)

    p = sub.add_parser(
        "net",
        help="run one party of a two-process query over a real socket",
    )
    p.add_argument(
        "--role", required=True, choices=["alice", "bob"],
        help="which party this process plays",
    )
    p.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="accept the peer's connection here (conventionally alice)",
    )
    p.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="dial the peer there (conventionally bob)",
    )
    p.add_argument(
        "--query", type=lambda s: s.upper(), default="Q3",
        choices=["Q3", "Q10", "Q18"],
        help="single-plan TPC-H query to run (case-insensitive)",
    )
    p.add_argument(
        "--scale", default="tiny",
        help='dataset scale in MB, or "tiny" (= 0.1)',
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--backend", choices=["yannakakis", "linear", "auto"],
        default="yannakakis", help="join back-end",
    )
    p.add_argument(
        "--journal", default=None, metavar="FILE",
        help="disk journal for durable checkpoints (enables --resume "
        "after a crash)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from the newest committed checkpoint in --journal "
        "instead of starting fresh",
    )
    p.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write the outcome payload (profile, transport stats, "
        "abort) as JSON here",
    )
    p.add_argument(
        "--heartbeat", type=float, default=0.25, metavar="S",
        help="heartbeat interval in seconds",
    )
    p.add_argument(
        "--idle-timeout", type=float, default=10.0, metavar="S",
        help="silent-connection window before a reconnect is attempted",
    )
    p.add_argument(
        "--exchange-deadline", type=float, default=120.0, metavar="S",
        help="hard wall-clock bound on one frame exchange",
    )
    p.add_argument(
        "--reconnect-attempts", type=int, default=10,
        help="reconnect attempts per episode before a terminal "
        "connection-lost abort",
    )
    g = p.add_argument_group(
        "fault injection (chaos-harness self-test hooks)"
    )
    g.add_argument("--kill-at-node", type=int, default=None,
                   metavar="NODE", help="SIGKILL self at this plan node")
    g.add_argument("--kill-at-wire", type=int, default=None,
                   metavar="N", help="SIGKILL self at wire exchange N")
    g.add_argument("--drop-at-wire", type=int, default=None,
                   metavar="N", help="force-close the TCP connection "
                   "once, at wire exchange N")
    g.add_argument("--stall-at-wire", type=int, default=None,
                   metavar="N", help="freeze at wire exchange N")
    g.add_argument("--stall-ms", type=int, default=400)
    g.add_argument("--partition-at-wire", type=int, default=None,
                   metavar="N", help="drop the connection AND freeze "
                   "at wire exchange N")
    g.add_argument("--partition-ms", type=int, default=400)
    p.set_defaults(fn=_cmd_net)

    p = sub.add_parser(
        "serve",
        help="multi-tenant query service: interleaved sessions, "
        "shared set-up store, per-tenant budgets",
    )
    p.add_argument(
        "--queries", nargs="+", type=lambda s: s.upper(),
        default=["Q3", "Q10", "Q18", "Q8", "Q9"],
        choices=["Q3", "Q10", "Q18", "Q8", "Q9"],
        help="TPC-H queries to serve (assigned to tenants round-robin; "
        "with --isolation-sweep, the first is the faulted victim and "
        "the second the observer)",
    )
    p.add_argument(
        "--tenants", type=int, default=2,
        help="number of tenants the queries are spread over",
    )
    p.add_argument(
        "--scale", default="tiny",
        help='dataset scale in MB, or "tiny" (= 0.1)',
    )
    p.add_argument(
        "--interleave", choices=["round_robin", "clock"],
        default="round_robin",
        help="cross-session interleaving policy",
    )
    p.add_argument(
        "--budget-mb", type=float, default=0, metavar="MB",
        help="per-tenant byte budget in MB (0 = unmetered)",
    )
    p.add_argument(
        "--check-solo", action="store_true",
        help="re-run each completed session solo and require its "
        "transcript byte-identical",
    )
    p.add_argument(
        "--isolation-sweep", action="store_true",
        help="two-tenant chaos mode: sweep fault points in the victim "
        "session, require the observer byte-identical to solo at every "
        "point",
    )
    p.add_argument(
        "--stride", type=int, default=1,
        help="message-index stride for --isolation-sweep",
    )
    p.add_argument(
        "--kinds", nargs="+", default=None,
        choices=[
            "corrupt", "truncate", "drop", "duplicate", "reorder",
            "hang", "crash",
        ],
        help="fault kinds for --isolation-sweep (default: all)",
    )
    p.add_argument(
        "--real", action="store_true",
        help="REAL-mode cryptography (slow; use tiny scales)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--backend", choices=["yannakakis", "linear", "auto"],
        default="yannakakis",
        help="join back-end every served session runs under",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print every fault point's classification",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="write the JSON report here",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="obliviousness & channel-discipline static analysis",
    )
    from .lint.runner import add_lint_arguments, cmd_lint

    add_lint_arguments(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("demo", help="run the quickstart example")
    p.set_defaults(fn=_cmd_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
