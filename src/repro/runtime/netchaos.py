"""Process-level chaos: kill, disconnect, stall and partition real parties.

The PR-5 chaos harness perturbs *frames* inside one process; this one
perturbs *processes and sockets*.  Every scenario launches the two
parties of a query as separate OS processes (``python -m repro net``)
talking TCP over localhost, injects each process-level
:class:`~repro.runtime.faults.FaultSpec` of the scenario into its party
(as ``repro net --fault SPEC``; a sweep injects one per scenario), lets
the built-in recovery machinery do its work — transparent reconnect
for connection faults, restart + ``--resume`` over the durable journal
for kills — and hands what it observed to the shared classifier
(:func:`repro.runtime.chaos.classify`), judged against the solo
in-process baseline: a party that exited 0 contributes its run
profile, one that exited 2 its abort payload, and a hung scenario or
any other exit code is a VIOLATION outright (a refused journal is
reported as such, a crash by its exit code).

The acceptance gate (``repro chaos --level process``) requires zero
VIOLATIONs across kills at every plan node plus connection faults at
strided wire-exchange indices.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..mpc.transcript import ALICE, BOB
from .chaos import Outcome, Report, RunProfile, build_specs, classify, sweep
from .faults import PROCESS_FAULT_KINDS, FaultSpec
from .netrun import (
    EXIT_JOURNAL_REFUSED,
    NetConfig,
    profile_from_json,
    solo_profile,
)
from .transport import free_port

__all__ = [
    "run_scenario",
    "sweep_processes",
]


# -- scenario execution ------------------------------------------------


def _src_env() -> Dict[str, str]:
    """Subprocess environment with ``repro``'s source tree importable."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src + os.pathsep + existing if existing else src
    )
    return env


def _party_cmd(
    config: NetConfig,
    role: str,
    endpoint: str,
    journal: str,
    out: str,
    faults: Sequence[FaultSpec],
    resume: bool = False,
    python: str = sys.executable,
) -> List[str]:
    cmd = [
        python, "-m", "repro", "net",
        "--role", role,
        "--listen" if role == ALICE else "--connect", endpoint,
        "--query", config.query,
        "--scale", str(config.scale_mb),
        "--seed", str(config.seed),
        "--backend", config.backend,
        "--journal", journal,
        "--out", out,
    ]
    if resume:
        cmd.append("--resume")
    else:
        for spec in faults:
            if spec.party == role:
                cmd.extend(["--fault", str(spec)])
    return cmd


def _read_outcome(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as fh:
            out = json.load(fh)
        return out if isinstance(out, dict) else None
    except (OSError, json.JSONDecodeError):
        return None


def _last_line(path: str) -> str:
    """``": <last line>"`` of a party's log (a crash's exception)."""
    try:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return f": {lines[-1].strip()}" if lines else ""


def run_scenario(
    config: NetConfig,
    baseline: RunProfile,
    faults: Sequence[FaultSpec],
    workdir: str,
    timeout_s: float = 120.0,
    python: str = sys.executable,
) -> Outcome:
    """Launch both parties, inject each of ``faults`` into its party,
    recover, classify.  The last spec names the scenario and, if it
    kills, is the kill its party restarts from; earlier ones (a
    disconnect before the kill) only ride along."""
    fault = faults[-1] if faults else None
    os.makedirs(workdir, exist_ok=True)
    port = free_port()
    endpoint = f"127.0.0.1:{port}"
    env = _src_env()
    paths = {
        role: {
            "journal": os.path.join(workdir, f"{role}.journal"),
            "out": os.path.join(workdir, f"{role}.json"),
            "log": os.path.join(workdir, f"{role}.log"),
        }
        for role in (ALICE, BOB)
    }

    procs: Dict[str, subprocess.Popen] = {}
    logs = []
    resumed = False

    def launch(role: str, resume: bool = False) -> None:
        log = open(paths[role]["log"], "a")
        logs.append(log)
        procs[role] = subprocess.Popen(
            _party_cmd(
                config, role, endpoint, paths[role]["journal"],
                paths[role]["out"], faults, resume=resume, python=python,
            ),
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )

    def violation(detail: str) -> Outcome:
        return classify(fault, baseline, error=detail, resumed=resumed)

    try:
        for role in (ALICE, BOB):
            launch(role)
        deadline = time.monotonic() + timeout_s

        if fault is not None and fault.kind in ("kill-node", "kill-wire"):
            victim = procs[fault.party]
            try:
                victim.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                return violation("faulted party never died")
            if victim.returncode != -9:
                return violation(
                    f"faulted party exited {victim.returncode}, "
                    "expected SIGKILL"
                )
            # Restart the killed party from its journal.
            launch(fault.party, resume=True)
            resumed = True

        for role in (ALICE, BOB):
            remaining = deadline - time.monotonic()
            try:
                procs[role].wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                return violation(f"{role} hung past {timeout_s:.0f}s")
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for log in logs:
            log.close()

    # What each party left behind, by exit code: 0 = a result profile,
    # 2 = a protocol abort, anything else is a VIOLATION outright.
    profiles: Dict[str, RunProfile] = {}
    aborts: Dict[str, Any] = {}
    errors: List[str] = []
    reconnects = 0
    for role in (ALICE, BOB):
        code = procs[role].returncode
        out = _read_outcome(paths[role]["out"]) or {}
        transport = out.get("transport")
        if isinstance(transport, dict):
            reconnects += transport.get("reconnects", 0) or 0
        if code == 2:
            aborts[role] = out.get("abort")
        elif code == EXIT_JOURNAL_REFUSED:
            refused = _last_line(paths[role]["log"])
            errors.append(f"{role} refused its journal{refused}")
        elif code != 0:
            crash = _last_line(paths[role]["log"])
            errors.append(f"{role} exited {code}{crash}")
        elif "profile" not in out:
            errors.append(f"{role} exited 0 without a result payload")
        else:
            profiles[role] = profile_from_json(out["profile"])
    return classify(
        fault, baseline, profiles, aborts, ", ".join(errors),
        resumed=resumed, reconnects=reconnects,
    )


def sweep_processes(
    config: NetConfig,
    kinds: Sequence[str] = PROCESS_FAULT_KINDS,
    stride: int = 6,
    workdir: str = ".",
    timeout_s: float = 120.0,
    python: str = sys.executable,
    on_progress: Optional[Callable[[int, int, Outcome], None]] = None,
) -> Report:
    """Baseline solo, smoke the no-fault two-process run, then
    classify every process-level fault point of :func:`build_specs`:
    a kill at every plan node, every ``stride``-th wire index for the
    connection-level kinds."""
    baseline = solo_profile(config)
    specs: List[Optional[FaultSpec]] = [None]
    specs.extend(build_specs(baseline, kinds, stride))
    numbers = itertools.count()

    def run_one(spec: Optional[FaultSpec]) -> Outcome:
        scenario_dir = os.path.join(
            workdir, f"scenario-{next(numbers):03d}"
        )
        return run_scenario(
            config, baseline, [spec] if spec else [], scenario_dir,
            timeout_s=timeout_s, python=python,
        )

    return sweep(specs, run_one, baseline, on_progress)
