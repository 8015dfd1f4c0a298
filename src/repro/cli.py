"""Command-line interface.

::

    python -m repro figures --queries Q3 Q10 --scales 1 3 [--json rows.json]
    python -m repro tpch Q3 --scale 1 [--real] [--backend auto]
    python -m repro trace Q3 --scale 1 [-o trace.json]
    python -m repro estimate Q3 --scale 10
    python -m repro fuzz --seed 0 --iterations 50 [--backend both]
    python -m repro chaos --query q3 --scale tiny
    python -m repro chaos --level process --query q3 --stride 8
    python -m repro net --role alice --listen 127.0.0.1:9501 --query Q3
    python -m repro net --role bob --connect 127.0.0.1:9501 --query Q3
    python -m repro net --role bob --connect ... --resume --journal bob.syj
    python -m repro serve --queries Q3 Q10 --tenants 2 --check-solo
    python -m repro serve --isolation-sweep --stride 1
    python -m repro lint src/
    python -m repro demo

Each sub-command's one-line summary is in ``repro --help`` and its
options in ``repro <sub-command> --help``; ``--scale`` is a dataset
size in MB, or ``tiny`` (= 0.1), everywhere.  docs/TESTING.md covers
``fuzz``, docs/ROBUSTNESS.md ``chaos`` and ``net``, docs/SERVING.md
``serve`` and docs/LINTING.md ``lint``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exec import ExecutionTrace
from .leakage import BACKENDS
from .mpc import Engine, Mode
from .query import BACKEND_POLICIES
from .runtime.faults import (
    MESSAGE_FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    kinds_of,
)
from .runtime.netrun import NET_QUERIES, NetConfig, parse_endpoint
from .tpch import PREPARED, generate, prepare

__all__ = ["build_parser", "main"]

#: The TPC-H queries of every sub-command but ``net`` (``NET_QUERIES``).
QUERIES = tuple(PREPARED)


def _scale_arg(text: str) -> float:
    """argparse ``type=`` of ``--scale``: a positive number of MB, or
    ``tiny`` (= 0.1)."""
    try:
        mb = 0.1 if text == "tiny" else float(text)
    except ValueError:
        mb = 0.0
    if not 0 < mb < float("inf"):
        raise argparse.ArgumentTypeError(
            f'{text!r} is not a positive number of MB or "tiny"'
        )
    return mb


def _write_json(path: str, payload) -> None:
    """The one writer behind every ``-o``."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _cmd_figures(args) -> int:
    from .bench import check_figure_shape, format_figure, run_figure

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

        lines = [json.dumps(dataclasses.asdict(r)) for r in all_rows]
        with open(args.json, "w") as fh:  # one row per line: diffable
            fh.write("[\n" + ",\n".join(lines) + "\n]\n")
        print(f"wrote {len(lines)} rows to {args.json}")
    return 1 if failures else 0


def _cmd_lint(args) -> int:
    from .lint.runner import cmd_lint

    return cmd_lint(args)


def _run_tpch(args, tracer=None):
    """The run path of ``tpch`` and ``trace``: prepare ``args.query``,
    run it on one engine, and return ``(query, mode, result, stats)``."""
    query = prepare(
        args.query, generate(args.scale), list(range(args.q9_nations))
    )
    mode = Mode.REAL if args.real else Mode.SIMULATED
    engine = Engine(query.make_context(mode, seed=args.seed), tracer=tracer)
    engine.backend = args.backend
    return (query, mode, *query.run_secure(engine))


def _cmd_tpch(args) -> int:
    query, mode, result, stats = _run_tpch(args)
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
    tracer = ExecutionTrace()
    query, mode, _, _ = _run_tpch(args, tracer)
    tracer.meta.update(
        query=query.name, scale_mb=args.scale, mode=mode.value,
        backend=args.backend,
    )
    if args.output:
        _write_json(args.output, tracer.to_json())
        print(
            f"{query.name}: {len(tracer.nodes)} trace nodes, "
            f"{tracer.total_bytes / 1e6:,.1f} MB -> {args.output}"
        )
    else:
        print(json.dumps(tracer.to_json(), indent=2))
    return 0


def _cmd_estimate(args) -> int:
    from .bench.estimator import estimate_node_costs, estimate_query_cost

    query = PREPARED[args.query](generate(args.scale))
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
        f"  plan total under auto routing: {est.total:,} B in "
        f"{est.messages:,} messages, {est.rounds:,} rounds at out_size=0 "
        "(reduce + semijoin + reveal; the output-sized part of the full "
        "join is left out)"
    )
    return 0


def _fault_arg(*levels):
    """argparse ``type=`` for a fault SPEC (``KIND[@AT][:DURATION]
    [/PARTY]``) whose kind is at one of ``levels``."""
    kinds = kinds_of(*levels)

    def parse(text):
        try:
            spec = FaultSpec.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if spec.kind not in kinds:
            raise argparse.ArgumentTypeError(
                f"{spec.kind!r} is not one of {', '.join(kinds)}"
            )
        return spec

    return parse


def _cmd_fuzz(args) -> int:
    from .fuzz import fuzz, iter_corpus, replay_file

    if args.replay:
        failures = replay_file(args.replay, audit=not args.no_audit)
        for f in failures:
            print(f)
        print(f"replay {args.replay}: {'FAILED' if failures else 'ok'}")
        return 1 if failures else 0

    if args.corpus is not None:
        paths = [path for path, _ in iter_corpus(args.corpus or None)]
        bad = 0
        for path in paths:
            for f in replay_file(str(path), audit=not args.no_audit):
                bad += 1
                print(f"{path.name}: {f}")
        print(f"corpus: {len(paths)} instances, {bad} failures")
        return 1 if bad else 0

    fault = FaultPlan([args.inject_fault]) if args.inject_fault else None

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


def _net_config(args) -> NetConfig:
    """``repro net``'s parsed arguments as one party's config."""
    return NetConfig(
        role=args.role,
        query=args.query,
        scale_mb=args.scale,
        seed=args.seed,
        backend=args.backend,
        listen=parse_endpoint(args.listen) if args.listen else None,
        connect=parse_endpoint(args.connect) if args.connect else None,
        journal=args.journal,
        resume=args.resume,
        faults=tuple(args.fault),
    )


def _cmd_net(args) -> int:
    from .runtime import JournalRefused, ProtocolAbort, run_party
    from .runtime.netrun import EXIT_JOURNAL_REFUSED

    try:
        config = _net_config(args)
    except ValueError as exc:
        args.error(str(exc))
    try:
        outcome = run_party(config)
    except JournalRefused as refused:
        print(f"net {config.role} {config.query}: journal refused: "
              f"{refused}")
        return EXIT_JOURNAL_REFUSED
    except ProtocolAbort as abort:
        # Sanitized failure: the typed abort is the whole public story.
        outcome = {
            "status": "abort",
            "role": config.role,
            "query": config.query,
            "abort": abort.to_json(),
        }
        print(f"net {config.role} {config.query}: ABORT {abort}")
    else:
        print(
            f"net {config.role} {config.query}: done, "
            f"{outcome['profile']['n_messages']} msgs"
            + (
                f", resumed from node {outcome['resumed_from']}"
                if outcome.get("resumed_from") is not None
                else ""
            )
        )
    if args.output:
        _write_json(args.output, outcome)
    return 2 if outcome["status"] == "abort" else 0


def _sweep_progress(args):
    """``on_progress`` for any sweep: violations always print."""

    def progress(i, n, outcome):
        if args.verbose or outcome.classification == "VIOLATION":
            print(f"  [{i}/{n}] {outcome}")

    return progress


def _finish_sweep(args, title, report, real_sample=None) -> int:
    """The one print/write/exit path of every sweep command.  A sweep
    that classified no fault point proved nothing, so it fails."""
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
        _write_json(args.output, payload)
        print(f"report -> {args.output}")
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    import tempfile

    from .runtime import (
        build_specs,
        classify_fault,
        make_tpch_runner,
        sweep,
        sweep_faults,
        sweep_processes,
    )

    level_kinds = kinds_of(args.level)
    kinds = tuple(args.kinds) if args.kinds else level_kinds
    foreign = [k for k in kinds if k not in level_kinds]
    if foreign:
        args.error(
            f"--level {args.level} sweeps the kinds "
            f"{', '.join(level_kinds)}; got {', '.join(foreign)}"
        )
    meta = dict(
        query=args.query, scale_mb=args.scale, backend=args.backend,
        level=args.level, stride=args.stride, kinds=list(kinds),
    )
    title = (
        f"chaos {args.query} scale={args.scale} backend={args.backend} "
        f"[{args.level} level]"
    )

    if args.level == "process":
        config = NetConfig(
            role="alice",  # per-scenario roles are set by the harness
            query=args.query,
            scale_mb=args.scale,
            seed=args.seed,
            backend=args.backend,
        )
        with tempfile.TemporaryDirectory(prefix="repro-netchaos-") as wd:
            report = sweep_processes(
                config, kinds=kinds, stride=args.stride, workdir=wd,
                timeout_s=args.timeout, on_progress=_sweep_progress(args),
            )
        report.meta.update(meta)
        return _finish_sweep(args, title, report)

    real_sample = None
    for real in (False, True)[: 1 + bool(args.real_sample)]:
        run = make_tpch_runner(
            args.query, scale_mb=args.scale, real=real, seed=args.seed,
            backend=args.backend,
        )
        if not real:
            report = sweep_faults(
                run, kinds=kinds, stride=args.stride,
                on_progress=_sweep_progress(args),
            )
            report.meta.update(meta, mode="simulated")
        else:
            # REAL-mode spot check: the identical session/fault machinery
            # over genuine cryptography, at a handful of evenly spaced
            # fault points (REAL runs cost ~20s each at tiny scale).
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
    import functools

    from .serve import isolation_sweep, run_workload, tpch_request

    if args.isolation_sweep:
        # Two-tenant sweep: fault every point of the victim's run,
        # require the observer byte-identical to its solo baseline.  A
        # lone query is both.  Each request factory is tpch_request
        # short of its next positional parameter, ``faults``.
        victim_q, observer_q = (args.queries * 2)[:2]
        report = isolation_sweep(
            functools.partial(
                tpch_request, victim_q, "victim", args.scale, args.real,
                args.seed, f"{victim_q}/victim", backend=args.backend,
            ),
            functools.partial(
                tpch_request, observer_q, "observer", args.scale,
                args.real, args.seed + 1, f"{observer_q}/observer",
                backend=args.backend,
            ),
            interleave=args.interleave, kinds=args.kinds,
            stride=args.stride,
            on_progress=_sweep_progress(args),
        )
        report.meta.update(
            victim=victim_q, observer=observer_q, scale_mb=args.scale,
            backend=args.backend, level="serve", kinds=list(args.kinds),
        )
        return _finish_sweep(
            args,
            f"serve isolation {victim_q}->{observer_q} scale={args.scale} "
            f"interleave={args.interleave}",
            report,
        )

    requests = [
        tpch_request(
            q, tenant=f"tenant{i % args.tenants}", scale_mb=args.scale,
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
    if args.output:
        _write_json(args.output, result.to_json())
        print(f"report -> {args.output}")
    return 0 if ok else 1


def _cmd_demo(args) -> int:
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples/quickstart.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    print("examples/quickstart.py not found", file=sys.stderr)
    return 1


#: The options several sub-commands share, each defined once; a
#: sub-command picks its own with :func:`_add_options`.
_OUTPUT = dict(
    dest="output", default=None, metavar="FILE",
    help="write the JSON (trace, report or party outcome) here",
)
_OPTIONS = {
    "query": dict(choices=QUERIES),
    "--seed": dict(type=int, default=7),
    "--backend": dict(
        choices=BACKEND_POLICIES, default="yannakakis",
        help="join back-end: the paper's PSI protocol, the "
        "linear-complexity DH-OPRF protocol, or per-node cost routing "
        "(see docs/BACKENDS.md)",
    ),
    "--real": dict(
        action="store_true",
        help="REAL-mode cryptography (slow; use tiny scales)",
    ),
    "--q9-nations": dict(type=int, default=25),
    "--verbose": dict(
        action="store_true",
        help="print every fault point's classification",
    ),
    "--output": _OUTPUT,
    "--out": _OUTPUT,  # `repro net`'s spelling
}


def _add_options(p, *flags, scale=None) -> None:
    """Add the shared options ``flags`` to ``p`` (``--output`` and
    ``--out`` also as ``-o``) and, unless ``scale`` is None, ``--scale``
    with that default."""
    if scale is not None:
        p.add_argument(
            "--scale", type=_scale_arg, default=scale,
            help='dataset scale in MB, or "tiny" (= 0.1)',
        )
    for flag in flags:
        names = ("-o", flag) if flag in ("--output", "--out") else (flag,)
        p.add_argument(*names, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument(
        "--queries", nargs="+", default=list(QUERIES), choices=QUERIES
    )
    p.add_argument(
        "--scales", nargs="+", type=_scale_arg, default=[1, 3, 10]
    )
    _add_options(p, "--q9-nations")
    p.add_argument(
        "--json", metavar="PATH",
        help="also write the measured rows (FigureRow fields) as JSON",
    )
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("tpch", help="run one TPC-H benchmark query")
    _add_options(
        p, "query", "--seed", "--backend", "--real", "--q9-nations",
        scale=1,
    )
    p.add_argument("--show", type=int, default=5)
    p.set_defaults(fn=_cmd_tpch)

    p = sub.add_parser(
        "trace", help="per-operator execution trace as JSON"
    )
    _add_options(
        p, "query", "--seed", "--backend", "--real", "--q9-nations",
        "--output", scale=1,
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("estimate", help="analytic cost prediction")
    _add_options(p, "query", scale=1)
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
        "--inject-fault", nargs="?", const=FaultSpec("perturb_share"),
        default=None, metavar="SPEC",
        type=_fault_arg("message", "input"),
        help="self-test: inject one fault, KIND[@AT][/PARTY] "
        "(default: perturb_share; e.g. corrupt@3, crash@2/bob) and "
        "require the fuzzer to catch it — as an oracle mismatch or a "
        "typed protocol abort (exit 0 iff caught)",
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
        choices=[*BACKEND_POLICIES, "both"],
        default="yannakakis",
        help='join back-end; "both" runs every instance under both '
        "protocols — the cross-protocol differential oracle plus a "
        "per-back-end obliviousness audit. --replay and --corpus "
        'ignore it: each file replays under its saved back-end, or "both" '
        "when it has none",
    )
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "chaos",
        help="fault-injection sweep: every message is a fault point",
    )
    p.add_argument(
        "--query", type=str.upper, default="Q3", choices=QUERIES,
        help="TPC-H query to sweep (case-insensitive)",
    )
    _add_options(
        p, "--seed", "--backend", "--verbose", "--output", scale="tiny"
    )
    p.add_argument(
        "--stride", type=int, default=1,
        help="fault every STRIDE-th wire-message index (1: every one)",
    )
    p.add_argument(
        "--kinds", nargs="+", default=None,
        choices=MESSAGE_FAULT_KINDS + PROCESS_FAULT_KINDS,
        help="fault kinds to sweep (default: all for the selected "
        f"level; message level: {', '.join(MESSAGE_FAULT_KINDS)}; "
        f"process level: {', '.join(PROCESS_FAULT_KINDS)}; a kind of "
        "the other level is rejected)",
    )
    p.add_argument(
        "--level", choices=["message", "process"], default="message",
        help='"message" perturbs frames inside one process; '
        '"process" runs both parties as real OS processes over TCP '
        "and kills/disconnects/partitions them (see "
        "docs/ROBUSTNESS.md)",
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
        "--query", type=str.upper, default="Q3", choices=NET_QUERIES,
        help="single-plan TPC-H query to run (case-insensitive)",
    )
    _add_options(p, "--seed", "--backend", "--out", scale="tiny")
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
    g = p.add_argument_group(
        "fault injection (chaos-harness self-test hooks)"
    )
    process_fault = _fault_arg("process")
    g.add_argument(
        "--fault", action="append", default=[], metavar="SPEC",
        type=process_fault,
        help="fire a process-level fault on this party, KIND@AT[:MS] "
        f"with KIND one of {', '.join(PROCESS_FAULT_KINDS)}; AT is "
        "the plan node for kill-node, the wire exchange otherwise "
        "(e.g. kill-wire@12, stall@12:400; repeatable)",
    )
    g.add_argument(
        "--kill-at-node", dest="fault", action="append", metavar="NODE",
        type=lambda node: process_fault(f"kill-node@{node}"),
        help="same as --fault kill-node@NODE",
    )
    p.set_defaults(fn=_cmd_net, error=p.error)

    p = sub.add_parser(
        "serve",
        help="multi-tenant query service: interleaved sessions, "
        "per-tenant budgets",
    )
    p.add_argument(
        "--queries", nargs="+", type=str.upper, default=list(QUERIES),
        choices=QUERIES,
        help="TPC-H queries to serve (assigned to tenants round-robin; "
        "with --isolation-sweep, the first is the faulted victim and "
        "the second the observer)",
    )
    p.add_argument(
        "--tenants", type=int, default=2,
        help="number of tenants the queries are spread over",
    )
    _add_options(
        p, "--seed", "--backend", "--real", "--verbose", "--output",
        scale="tiny",
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
        "--kinds", nargs="+", default=MESSAGE_FAULT_KINDS,
        choices=MESSAGE_FAULT_KINDS,
        help="fault kinds for --isolation-sweep (default: all)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="obliviousness & channel-discipline static analysis",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument("--format", choices=["text", "sarif"], default="text")
    p.add_argument(
        "--changed", action="store_true",
        help="lint only .py files changed vs HEAD (pre-commit mode)",
    )
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("demo", help="run the quickstart example")
    p.set_defaults(fn=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
