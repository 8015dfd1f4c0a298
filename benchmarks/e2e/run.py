"""The repo's one benchmark: four workloads, six end-to-end metrics, a
per-layer split that sums to the whole.  See README.md beside this file.

    python benchmarks/e2e/run.py                      # everything
    python benchmarks/e2e/run.py --workload q3_sim --seed 3
    python benchmarks/e2e/run.py --smoke              # < 20 s sanity pass
    python benchmarks/e2e/run.py --aa                 # A/A spread vs bounds

With ``--trace 0|1`` (as the benchmark driver calls it, one workload at
a time) the last stdout line is ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end (0) or per-layer (1) metric.
Without it each workload gets both passes and the last line is the full
report, also written with the spans under ``benchmarks/e2e/out/``.

Exit status is non-zero when any operation or output check failed; the
failing checks are named on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from catalog import (
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    workload,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: A worker that runs longer than this is killed and counted as failed.
WORKER_TIMEOUT_S = 170.0


def spawn_worker(name: str, seed: int, seconds: float, passes: str,
                 is_smoke: bool, setup_only: bool = False) -> Dict[str, Any]:
    """Run one worker process to completion and parse its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--passes", passes,
        "--scratch", str(OUT),
        "--spawned-at", repr(time.monotonic()),
    ]
    if is_smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    # Own process group, so a hung worker takes its party processes
    # with it when it is killed.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(
            f"worker for {name} hung past {WORKER_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, passes: str,
                 is_smoke: bool) -> Dict[str, Any]:
    """All the processes of one workload: the extra set-up-only workers
    (``setup_s`` is the median over fresh processes), then the one that
    measures.  Strictly one after the other."""
    setups = []
    if passes != "traced":
        setups = [
            spawn_worker(name, seed, 0, "timed", is_smoke,
                         setup_only=True)["setup_s"]
            for _ in range(workload(name, is_smoke).setup_reps - 1)
        ]
    res = spawn_worker(name, seed, seconds, passes, is_smoke)
    setups.append(res["setup_s"])
    samples = res["samples"]
    q1, _median, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive")
        if len(samples) > 1
        else (samples[0],) * 3
    )
    res["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "query_s": statistics.median(samples),
        "peak_rss_mb": res["peak_rss_mb"],
        **res["counts"],
    }
    res["query_s_samples"] = {
        "n": len(samples), "q1": q1, "q3": q3,
        "min": min(samples), "max": max(samples),
    }
    res["setup_s_samples"] = setups
    res["failed"] = len(res["failures"])
    return res


def contract_line(res: Dict[str, Any], trace: int) -> str:
    """The driver's result object for one workload."""
    declared = PER_LAYER if trace else END_TO_END
    values = res["layers"] if trace else res["end_to_end"]
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in declared
        },
    })


def print_workload(res: Dict[str, Any]) -> None:
    q = res["query_s_samples"]
    print(f"== {res['workload']} (seed {res['seed']}): "
          f"{res['attempted']} operations and checks, "
          f"{res['failed']} failed")
    for m in END_TO_END:
        note = ""
        if m.name == "query_s":
            note = (f"   median of n={q['n']} warm ops, quartiles "
                    f"{q['q1']:.4f}/{q['q3']:.4f}, "
                    f"min {q['min']:.4f}, max {q['max']:.4f}")
        elif m.name == "setup_s":
            note = f"   median of {len(res['setup_s_samples'])} fresh processes"
        print(f"  {m.name:<42} {res['end_to_end'][m.name]:>16.6g} "
              f"{m.unit}{note}")
    for m in PER_LAYER if "layers" in res else ():
        print(f"  {m.name:<42} {res['layers'][m.name]:>16.6g} {m.unit}")
    for name, ok in res.get("sums", {}).items():
        print(f"  sum_to_whole.{name}: {'ok' if ok else 'FAILED'}")
    for failure in res["failures"]:
        print(f"FAILED {res['workload']}: {failure}", file=sys.stderr)


def machine() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def aa_report(names: Sequence[str], seed: int, seconds: float,
              is_smoke: bool) -> int:
    """Two full sets of the same code, alternating workload by
    workload; prints |a - b| / a per metric against its bound."""
    worst: Dict[str, float] = {m.name: 0.0 for m in END_TO_END}
    failed = 0
    for name in names:
        a = run_workload(name, seed, seconds, "timed", is_smoke)
        b = run_workload(name, seed, seconds, "timed", is_smoke)
        failed += a["failed"] + b["failed"]
        for m in END_TO_END:
            va, vb = a["end_to_end"][m.name], b["end_to_end"][m.name]
            diff = abs(va - vb) / va
            worst[m.name] = max(worst[m.name], diff)
            verdict = "within" if diff <= m.bound else "OUTSIDE"
            print(f"{name:<14} {m.name:<14} a={va:<14.6g} b={vb:<14.6g} "
                  f"|a-b|/a={diff:.4f}  bound={m.bound}  {verdict}")
    print("worst per metric: " + json.dumps(worst))
    outside = [m.name for m in END_TO_END if worst[m.name] > m.bound]
    if outside:
        print(f"A/A outside the bound: {outside}", file=sys.stderr)
    return 1 if outside or failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="data-set seed, fed to tpch.generate(seed=)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measuring window of the warm operations")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="one pass only, result as the driver reads it")
    ap.add_argument("--smoke", action="store_true",
                    help="Q3 at 0.1 MB SIMULATED through every code path")
    ap.add_argument("--aa", action="store_true",
                    help="run two sets and print their spread")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None and len(names) != 1:
        ap.error("--trace needs --workload")
    seconds = 0.0 if args.smoke else args.seconds

    if args.aa:
        return aa_report(names, args.seed, seconds, args.smoke)

    passes = {None: "both", 0: "timed", 1: "traced"}[args.trace]
    results = []
    for name in names:
        res = run_workload(name, args.seed, seconds, passes, args.smoke)
        print_workload(res)
        results.append(res)

    spans = [s for res in results for s in res.pop("spans")]
    if passes != "timed":
        (OUT / "spans.json").write_text(json.dumps(spans))
    failed = sum(res["failed"] for res in results)
    if args.trace is not None:
        print(contract_line(results[0], args.trace))
    else:
        report = {
            "correct": failed == 0,
            "attempted": sum(res["attempted"] for res in results),
            "failed": failed,
            "machine": machine(),
            "smoke": args.smoke,
            "workloads": {res["workload"]: res for res in results},
        }
        (OUT / "report.json").write_text(json.dumps(report, indent=1))
        print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
