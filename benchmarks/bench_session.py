"""Session-layer framing overhead on the TPC-H pipeline.

The fault-tolerant session layer (``repro.runtime``) frames every wire
message with a fixed-size header (magic, sequence number, length,
checksum).  This benchmark measures its byte cost against a plain
(sessionless) run of the same query and asserts the accounting
invariant the estimator's :func:`repro.bench.estimator.
session_framing_overhead` predicts::

    session_total == plain_total + FRAME_HEADER_BYTES * n_messages

SIMULATED byte accounting is deterministic and machine independent, so
the committed baseline (``BENCH_PR5_SESSION.json``) gates on exact
byte numbers; wall-clock timings are recorded for information only.
``--real`` additionally runs REAL mode with the session enabled and
asserts its transcript fingerprint matches the SIMULATED session run
(the session layer must not disturb REAL-vs-SIM parity).

Usage::

    PYTHONPATH=src python benchmarks/bench_session.py              # print
    PYTHONPATH=src python benchmarks/bench_session.py --out F.json # write
    PYTHONPATH=src python benchmarks/bench_session.py --check      # CI gate
    PYTHONPATH=src python benchmarks/bench_session.py --real       # + parity
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.estimator import session_framing_overhead
from repro.mpc import Context, Engine, Mode  # noqa: F401 (Context re-export)
from repro.runtime import FaultPlan, enable_session
from repro.runtime.framing import FRAME_HEADER_BYTES
from repro.tpch import PREPARED, generate

GROUP_BITS = 1536
SCALE_MB = 0.1
SEED = 7
QUERIES = ("Q3", "Q10")
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_PR5_SESSION.json"


def _run(prepared, mode, with_session):
    ctx = prepared.make_context(mode, seed=SEED)
    engine = Engine(ctx, GROUP_BITS)
    session = (
        enable_session(ctx, FaultPlan(), seed=SEED)
        if with_session
        else None
    )
    t0 = time.perf_counter()
    prepared.run_secure(engine)
    if session is not None:
        session.finish()
    seconds = time.perf_counter() - t0
    t = ctx.transcript
    return {
        "total_bytes": t.total_bytes,
        "n_messages": len(t.messages),
        "fingerprint": t.fingerprint(),
        "seconds": seconds,
    }


def measure(real: bool = False):
    out = {
        "scale_mb": SCALE_MB,
        "group_bits": GROUP_BITS,
        "frame_header_bytes": FRAME_HEADER_BYTES,
        "queries": {},
    }
    for name in QUERIES:
        prepared = PREPARED[name](generate(SCALE_MB))
        plain = _run(prepared, Mode.SIMULATED, with_session=False)
        sess = _run(prepared, Mode.SIMULATED, with_session=True)
        framing = session_framing_overhead(plain["n_messages"])
        assert sess["n_messages"] == plain["n_messages"], (
            f"{name}: session changed the message count "
            f"({plain['n_messages']} -> {sess['n_messages']})"
        )
        assert sess["total_bytes"] == plain["total_bytes"] + framing, (
            f"{name}: session overhead is not accounting-neutral: "
            f"{sess['total_bytes'] - plain['total_bytes']} observed, "
            f"{framing} predicted"
        )
        if real:
            sess_real = _run(prepared, Mode.REAL, with_session=True)
            assert sess_real["fingerprint"] == sess["fingerprint"], (
                f"{name}: REAL-vs-SIM fingerprint parity broken "
                "with the session enabled"
            )
        out["queries"][name] = {
            "plain_bytes": plain["total_bytes"],
            "session_bytes": sess["total_bytes"],
            "n_messages": plain["n_messages"],
            "framing_bytes": framing,
            "overhead_pct": round(
                100.0 * framing / plain["total_bytes"], 3
            ),
            # Machine dependent; informational only, never gated.
            "plain_seconds": round(plain["seconds"], 4),
            "session_seconds": round(sess["seconds"], 4),
        }
    return out


GATED_KEYS = (
    "plain_bytes",
    "session_bytes",
    "n_messages",
    "framing_bytes",
)


def check(measured) -> int:
    baseline = json.loads(BASELINE.read_text())
    failures = []
    for name, got in measured["queries"].items():
        want = baseline["queries"].get(name)
        if want is None:
            failures.append(f"{name}: missing from baseline")
            continue
        for key in GATED_KEYS:
            if got[key] != want[key]:
                failures.append(
                    f"{name}.{key}: {got[key]} != baseline {want[key]}"
                )
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 1
    print(f"session overhead matches {BASELINE.name} exactly")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write JSON here")
    ap.add_argument(
        "--check", action="store_true",
        help=f"gate against the committed {BASELINE.name}",
    )
    ap.add_argument(
        "--real", action="store_true",
        help="also assert REAL-vs-SIM parity with the session (slow)",
    )
    args = ap.parse_args(argv)
    measured = measure(real=args.real)
    for name, row in measured["queries"].items():
        print(
            f"{name}: {row['plain_bytes']} B plain, "
            f"+{row['framing_bytes']} B framing over "
            f"{row['n_messages']} messages "
            f"({row['overhead_pct']}% overhead), "
            f"{row['session_seconds']:.3f}s with session"
        )
    if args.out:
        Path(args.out).write_text(
            json.dumps(measured, indent=2) + "\n"
        )
        print(f"wrote {args.out}")
    if args.check:
        return check(measured)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
