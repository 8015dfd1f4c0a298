"""Process-level chaos: kill, drop, stall and partition real parties.

The PR-5 chaos harness perturbs *frames* inside one process; this one
perturbs *processes and sockets*.  Every scenario launches the two
parties of a query as separate OS processes (``python -m repro net``)
talking TCP over localhost, injects exactly one process-level fault
into one of them, lets the built-in recovery machinery do its work —
transparent reconnect for connection faults, restart + ``--resume``
over the durable journal for kills — and hands what it observed to the
shared classifier (:func:`repro.runtime.chaos.classify`), judged
against the solo in-process baseline: a party that exited 0
contributes its run profile, one that exited 2 its abort payload, and
a hung scenario or any other exit code is a VIOLATION outright.

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
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..mpc.transcript import ALICE, BOB
from .chaos import (
    Outcome,
    Report,
    RunProfile,
    classify,
    fault_points,
    sweep,
)
from .netrun import NetConfig, profile_from_json, solo_profile
from .transport import free_port

__all__ = [
    "PROCESS_FAULT_KINDS",
    "ProcessFaultSpec",
    "build_process_specs",
    "run_scenario",
    "sweep_processes",
]

#: Fault kinds the process-level sweep injects.  ``kill-node`` /
#: ``kill-wire`` SIGKILL one party (recovered via ``--resume``);
#: ``drop`` force-closes the TCP connection once; ``stall`` freezes
#: one party mid-exchange; ``partition`` drops the connection *and*
#: freezes, so both reconnect paths exercise their backoff.
PROCESS_FAULT_KINDS = (
    "kill-node",
    "kill-wire",
    "drop",
    "stall",
    "partition",
)


@dataclass(frozen=True)
class ProcessFaultSpec:
    """One process-level fault, fully determined by its fields."""

    kind: str
    party: str = BOB
    node: Optional[int] = None  #: plan-node id for ``kill-node``
    wire: Optional[int] = None  #: wire-exchange index for the rest
    ms: int = 400  #: stall/partition duration

    def __post_init__(self) -> None:
        if self.kind not in PROCESS_FAULT_KINDS:
            raise ValueError(f"unknown process fault {self.kind!r}")
        if self.kind == "kill-node" and self.node is None:
            raise ValueError("kill-node needs a node id")
        if self.kind != "kill-node" and self.wire is None:
            raise ValueError(f"{self.kind} needs a wire index")

    @property
    def is_kill(self) -> bool:
        return self.kind in ("kill-node", "kill-wire")

    def flags(self) -> List[str]:
        """CLI flags injecting this fault into the target party."""
        if self.kind == "kill-node":
            return ["--kill-at-node", str(self.node)]
        if self.kind == "kill-wire":
            return ["--kill-at-wire", str(self.wire)]
        if self.kind == "drop":
            return ["--drop-at-wire", str(self.wire)]
        if self.kind == "stall":
            return [
                "--stall-at-wire", str(self.wire),
                "--stall-ms", str(self.ms),
            ]
        return [
            "--partition-at-wire", str(self.wire),
            "--partition-ms", str(self.ms),
        ]

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "party": self.party,
            "node": self.node,
            "wire": self.wire,
            "ms": self.ms,
        }

    def __str__(self) -> str:
        where = []
        if self.node is not None:
            where.append(f"node={self.node}")
        if self.wire is not None:
            where.append(f"wire={self.wire}")
        where.append(f"party={self.party}")
        return f"{self.kind}({', '.join(where)})"


def build_process_specs(
    baseline: RunProfile,
    kinds: Sequence[str] = PROCESS_FAULT_KINDS,
    stride: int = 6,
    fault_ms: int = 400,
) -> List[ProcessFaultSpec]:
    """The sweep's scenarios: a kill at every plan node, and every
    ``stride``-th wire-exchange index for the connection-level kinds."""
    return [
        ProcessFaultSpec(kind, node=node, party=party)
        if wire is None
        else ProcessFaultSpec(kind, wire=wire, party=party, ms=fault_ms)
        for kind, node, wire, party in fault_points(
            baseline, kinds, "kill-node", stride
        )
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
    fault: Optional[ProcessFaultSpec],
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
        "--heartbeat", str(config.heartbeat_s),
        "--idle-timeout", str(config.idle_timeout_s),
        "--exchange-deadline", str(config.exchange_deadline_s),
    ]
    if resume:
        cmd.append("--resume")
    elif fault is not None and fault.party == role:
        cmd.extend(fault.flags())
    return cmd


def _read_outcome(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as fh:
            out = json.load(fh)
        return out if isinstance(out, dict) else None
    except (OSError, json.JSONDecodeError):
        return None


def run_scenario(
    config: NetConfig,
    baseline: RunProfile,
    fault: Optional[ProcessFaultSpec],
    workdir: str,
    timeout_s: float = 120.0,
    python: str = sys.executable,
) -> Outcome:
    """Launch both parties, inject ``fault``, recover, classify."""
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
                paths[role]["out"], fault, resume=resume, python=python,
            ),
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )

    def violation(detail: str) -> Outcome:
        return classify(fault, baseline, error=detail, resumed=resumed)

    try:
        for role in (ALICE, BOB):
            launch(role)
        deadline = time.monotonic() + timeout_s

        if fault is not None and fault.is_kill:
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
        elif code != 0:
            errors.append(f"{role} exited {code}")
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
    fault_ms: int = 400,
    python: str = sys.executable,
    on_progress: Optional[Callable[[int, int, Outcome], None]] = None,
) -> Report:
    """Baseline solo, smoke the no-fault two-process run, then
    classify every scenario from :func:`build_process_specs`."""
    baseline = solo_profile(config)
    specs: List[Optional[ProcessFaultSpec]] = [None]
    specs.extend(build_process_specs(baseline, kinds, stride, fault_ms))
    numbers = itertools.count()

    def run_one(spec: Optional[ProcessFaultSpec]) -> Outcome:
        scenario_dir = os.path.join(
            workdir, f"scenario-{next(numbers):03d}"
        )
        return run_scenario(
            config, baseline, spec, scenario_dir,
            timeout_s=timeout_s, python=python,
        )

    return sweep(specs, run_one, baseline, on_progress)
