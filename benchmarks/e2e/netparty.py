"""Launch both parties of a query the way a user does: two
``python -m repro net`` OS processes over a localhost TCP socket, each
with ``--journal`` and ``-o``.  The parties inherit this process's
environment (``PYTHONPATH`` already names ``src``) and write under a
scratch directory inside the checkout."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

ROLES = ("alice", "bob")
#: Seconds after which a party is declared hung and killed.
PARTY_TIMEOUT_S = 120.0
#: Journal record header (docs/ROBUSTNESS.md, "Durable journal"):
#: 4-byte magic, 1-byte kind, 8-byte payload length, 32-byte SHA-256.
JOURNAL_HEADER_BYTES = 4 + 1 + 8 + 32


@dataclass
class PairResult:
    #: Launch of the first process -> exit of the last one.
    wall_s: float
    codes: Dict[str, Optional[int]]
    #: Parsed ``-o`` payload per role (``None`` when missing).
    outcomes: Dict[str, Optional[Dict[str, Any]]]
    journals: Dict[str, str]
    #: ``--resume`` relaunch -> both parties exited (kill runs only).
    resume_s: float = 0.0

    @property
    def journal_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.journals.values())


def committed_bytes(journal: str) -> int:
    """Length of the journal prefix made of whole, digest-verified
    records — the bytes ``Journal.append`` had fsync'd."""
    from repro.runtime import Journal

    return sum(
        JOURNAL_HEADER_BYTES + len(payload)
        for _kind, payload in Journal.scan(journal)
    )


def _command(role: str, endpoint: str, query: Any, seed: int,
             journal: str, out: str, extra: List[str]) -> List[str]:
    return [
        sys.executable, "-m", "repro", "net",
        "--role", role,
        "--listen" if role == "alice" else "--connect", endpoint,
        "--query", query.name,
        "--scale", str(query.scale_mb),
        "--seed", str(seed),
        "--backend", query.backend,
        "--journal", journal,
        "-o", out,
        *extra,
    ]


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def run_pair(query: Any, seed: int, workdir: str, tag: str,
             kill_bob_at_node: Optional[int] = None) -> PairResult:
    """Run one operation: a fresh pair of party processes.

    With ``kill_bob_at_node`` Bob SIGKILLs himself at that plan node;
    his journal is then cut back to its committed prefix (a kill leaves
    the page cache intact, so unflushed bytes are discarded here) and
    he is relaunched with ``--resume``.
    """
    from repro.runtime import free_port

    endpoint = f"127.0.0.1:{free_port()}"
    paths = {
        role: {
            kind: os.path.join(workdir, f"{tag}-{role}.{kind}")
            for kind in ("journal", "json", "log")
        }
        for role in ROLES
    }
    procs: Dict[str, subprocess.Popen] = {}
    logs = []
    resume_s = 0.0
    killed_code: Optional[int] = None

    def launch(role: str, extra: List[str]) -> None:
        log = open(paths[role]["log"], "a")
        logs.append(log)
        procs[role] = subprocess.Popen(
            _command(role, endpoint, query, seed, paths[role]["journal"],
                     paths[role]["json"], extra),
            stdout=log, stderr=subprocess.STDOUT,
        )

    t0 = time.perf_counter()
    try:
        launch("alice", [])
        launch("bob", [] if kill_bob_at_node is None
               else ["--kill-at-node", str(kill_bob_at_node)])
        if kill_bob_at_node is not None:
            procs["bob"].wait(timeout=PARTY_TIMEOUT_S)
            killed_code = procs["bob"].returncode
            journal = paths["bob"]["journal"]
            os.truncate(journal, committed_bytes(journal))
            t_resume = time.perf_counter()
            launch("bob", ["--resume"])
        for role in ROLES:
            procs[role].wait(timeout=PARTY_TIMEOUT_S)
        done = time.perf_counter()
        if kill_bob_at_node is not None:
            resume_s = done - t_resume
    except subprocess.TimeoutExpired:
        done = time.perf_counter()
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for log in logs:
            log.close()

    codes: Dict[str, Optional[int]] = {
        role: procs[role].returncode for role in ROLES
    }
    if kill_bob_at_node is not None and killed_code != -9:
        # The fault never fired: report it as Bob's failure.
        codes["bob"] = killed_code if killed_code else 1
    return PairResult(
        wall_s=done - t0,
        codes=codes,
        outcomes={r: _read_json(paths[r]["json"]) for r in ROLES},
        journals={r: paths[r]["journal"] for r in ROLES},
        resume_s=resume_s,
    )
