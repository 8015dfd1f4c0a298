"""Per-kernel ns/op microbenchmarks for the vectorised 2PC hot paths.

Each kernel with a scalar legacy loop retained in
``repro.mpc._reference`` is timed twice in the same process, production
implementation and reference (the protocol-level garbled batch and
Gilboa have no twin; their REAL-mode times are ``mpc.garble.s`` /
``mpc.gilboa.s`` of ``benchmarks/e2e``).  The committed baseline (``BENCH_PR3.json``)
stores the *speedup ratio* new-vs-reference, which is machine
independent — CI re-measures both sides on its own hardware (rounds
interleaved so load drift cancels) and fails if any kernel's ratio has
regressed by more than 30%.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py              # print
    PYTHONPATH=src python benchmarks/bench_kernels.py --out F.json # write
    PYTHONPATH=src python benchmarks/bench_kernels.py --check      # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.mpc import Context, Engine, Mode
from repro.mpc import _reference as ref
from repro.mpc import gadgets
from repro.mpc.ot import IknpExtension
from repro.mpc.yao import charge_garbled_batch

GROUP_BITS = 1536
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"
REGRESSION_TOLERANCE = 0.30


def _time(fn, min_rounds=3, min_seconds=0.5) -> float:
    """Best-of wall-clock seconds per call."""
    return _time_pair(fn, None, min_rounds, min_seconds)[0]


def _time_pair(fn, legacy, min_rounds=3, min_seconds=0.5):
    """Best-of seconds per call for ``fn`` and (optionally) ``legacy``,
    with rounds interleaved so machine-load drift hits both sides
    equally — the speedup ratio is what CI gates on, so it must not
    depend on which side happened to run during a noisy window."""
    fn()  # warm caches (plans, topologies, hash state)
    if legacy is not None:
        legacy()
    best_new, best_old = float("inf"), float("inf")
    rounds, start_all = 0, time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start_all < min_seconds:
        start = time.perf_counter()
        fn()
        best_new = min(best_new, time.perf_counter() - start)
        if legacy is not None:
            start = time.perf_counter()
            legacy()
            best_old = min(best_old, time.perf_counter() - start)
        rounds += 1
    return best_new, (best_old if legacy is not None else None)


def _warm_engine(mode: Mode) -> Engine:
    engine = Engine(Context(mode, seed=2), ot_group_bits=GROUP_BITS)
    rng = np.random.default_rng(1)
    x = engine.share("alice", rng.integers(0, 1000, 4))
    y = engine.share("bob", rng.integers(0, 1000, 4))
    engine.mul_shared(x, y)  # both OT directions' base phases
    return engine


def bench_gilboa(n: int = 256):
    """SIMULATED charge path (closed forms; no scalar twin to compare)."""
    engine = _warm_engine(Mode.SIMULATED)
    rng = np.random.default_rng(0)
    u = rng.integers(0, 1000, n).astype(np.uint64)
    v = rng.integers(0, 1000, n).astype(np.uint64)
    return _time(
        lambda: engine._gilboa_cross("alice", u, v, "bench")
    ), None


def bench_garbled(n: int = 256):
    """SIMULATED charge path (closed forms; no scalar twin to compare)."""
    engine = _warm_engine(Mode.SIMULATED)
    circuit = gadgets.nonzero_circuit(32)
    return _time(
        lambda: charge_garbled_batch(engine.ctx, engine.ot, circuit, n)
    ), None


def bench_iknp(n: int = 512, width: int = 16):
    ctx = Context(Mode.REAL, seed=3)
    rng = np.random.default_rng(0)
    pairs = [(rng.bytes(width), rng.bytes(width)) for _ in range(n)]
    choices = [int(c) for c in rng.integers(0, 2, n)]
    ot_new = IknpExtension(ctx, GROUP_BITS)
    ot_old = ref.ReferenceIknpExtension(ctx, GROUP_BITS)
    ot_new.transfer(pairs[:2], choices[:2])  # base phase
    ot_old.transfer(pairs[:2], choices[:2])
    return _time_pair(
        lambda: ot_new.transfer(pairs, choices),
        lambda: ot_old.transfer(pairs, choices),
    )


def bench_stream_xor(n_rows: int = 512, width: int = 64):
    from repro.mpc.batch import stream_xor_rows

    rng = np.random.default_rng(0)
    keys = np.frombuffer(rng.bytes(n_rows * 32), dtype=np.uint8).reshape(
        n_rows, 32
    )
    data = np.frombuffer(
        rng.bytes(n_rows * width), dtype=np.uint8
    ).reshape(n_rows, width)
    rows = [(bytes(k), bytes(d)) for k, d in zip(keys, data)]
    return _time_pair(
        lambda: stream_xor_rows(keys, data),
        lambda: [ref.stream_xor(k, d) for k, d in rows],
    )


def run_all() -> dict:
    kernels = {
        "gilboa_mul_sim_n256": bench_gilboa,
        "garbled_batch_sim_n256": bench_garbled,
        "iknp_transfer_real_512x16": bench_iknp,
        "stream_xor_512x64": bench_stream_xor,
    }
    out = {}
    for name, fn in kernels.items():
        new_s, legacy_s = fn()
        entry = {"ns_op": int(new_s * 1e9)}
        if legacy_s is not None:
            entry["ref_ns_op"] = int(legacy_s * 1e9)
            entry["speedup_vs_reference"] = round(legacy_s / new_s, 3)
        out[name] = entry
        print(f"  {name}: {entry}", file=sys.stderr)
    return out


def check(results: dict, baseline: dict) -> int:
    failures = []
    for name, base in baseline.get("kernels", {}).items():
        want = base.get("speedup_vs_reference")
        if want is None:
            continue
        got = results.get(name, {}).get("speedup_vs_reference")
        if got is None:
            failures.append(f"{name}: kernel missing from this run")
        elif got < want * (1 - REGRESSION_TOLERANCE):
            failures.append(
                f"{name}: speedup vs reference fell to {got}x "
                f"(baseline {want}x, tolerance -{REGRESSION_TOLERANCE:.0%})"
            )
    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, help="write results JSON here")
    ap.add_argument(
        "--check",
        action="store_true",
        help=f"compare speedup ratios against {BASELINE.name}",
    )
    args = ap.parse_args()

    results = run_all()
    doc = {"group_bits": GROUP_BITS, "kernels": results}
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(payload)
    else:
        print(payload)
    if args.check:
        if not BASELINE.exists():
            print(f"no baseline at {BASELINE}; skipping check", file=sys.stderr)
            return 0
        return check(results, json.loads(BASELINE.read_text()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
