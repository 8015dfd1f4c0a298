"""One send path per primitive.

A Section 5 primitive's messages are fixed by public sizes alone, and
both execution modes send them from the same call sites: SIMULATED with
no payloads, REAL with the sizes of the payloads it computed, which
:class:`repro.mpc.context.Checked` compares with what the path sends.
The structural tests keep it so: a label spelled at one site cannot be
spelled differently at another, no send sits on one side of a mode
test, and no module but the channel implementations sends on the raw
transcript, past the session framing layer.  The mutation tests put
one size of the schedule off by one and show the run-time check
firing, in REAL alone.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.lint.project import call_name
from repro.mpc import dhoprf, leaves, oprf, ot, psi, yao
from repro.mpc.context import Context, Mode, ScheduleMismatch
from repro.mpc.dhoprf import dh_oprf_match
from repro.mpc.ot import make_ot
from repro.mpc.psi import psi_with_payloads
from repro.runtime.aborts import ProtocolAbort

REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"
MPC = REPRO / "mpc"

#: the modules allowed a raw ``Transcript.send``: the transcript itself,
#: the context router (which hands off to the session when one is
#: enabled) and the session framing layer, the one wrapper that adds
#: sequence numbers, checksums and fault handling
CHANNEL_IMPLS = ("mpc/transcript.py", "mpc/context.py", "runtime/session.py")

#: the one section spelled at two sites: :class:`repro.mpc.leaves.LeafOts`
#: opens its OTs under it and sends Alice's messages under it, each site
#: serving both modes
SHARED_SECTIONS = {"leaves"}

#: OBL005's bad fixture, which the retired rule flagged: each mode
#: branch spells its own label
MODE_BRANCH_SENDS = '''
def mismatched_labels(ctx, n):
    if ctx.mode == Mode.SIMULATED:
        ctx.send("alice", n, "sim_only_label")
        return
    ctx.send("alice", n, "real_only_label")
'''

#: two paths of one primitive, each spelling its label: what OBL005
#: passed as long as the spellings agreed
TWIN_SENDS = '''
def charge(ctx, n):
    ctx.send("alice", n, "blind")

def run(ctx, payload):
    ctx.send("alice", len(payload), "blind")
'''


#: OBL002's raw-send fixture, which the retired rule flagged: a helper
#: that meters a message past the session
RAW_SEND = '''
def helper(ctx, n):
    ctx.transcript.send("alice", n, "raw")
'''


def sources(root: Path = MPC) -> Dict[str, str]:
    return {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(root.rglob("*.py"))
    }


#: the position of the label argument of ``send(sender, n_bytes,
#: label)`` and of ``section(label)``
LABEL_POSITION = {"send": 2, "section": 0}


def label_arg_of(node: ast.Call):
    """The label argument of a ``send`` or ``section`` call, if any."""
    pos = LABEL_POSITION.get(call_name(node) or "")
    if pos is None:
        return None
    for k in node.keywords:
        if k.arg == "label":
            return k.value
    return node.args[pos] if len(node.args) > pos else None


def label_sites(
    files: Dict[str, str],
) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """Every label literal passed to ``send`` and to ``section``, with
    the ``file:line`` sites that spell it."""
    sites: Dict[str, Dict[str, List[str]]] = {
        "send": defaultdict(list), "section": defaultdict(list),
    }
    for name, text in files.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            kind, label = call_name(node), label_arg_of(node)
            if isinstance(label, ast.Constant) and label.value:
                sites[kind or ""][label.value].append(f"{name}:{node.lineno}")
    return sites["send"], sites["section"]


def is_mode_test(expr: ast.expr) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "mode"
        or isinstance(n, ast.Name) and n.id == "Mode"
        for n in ast.walk(expr)
    )


def sends_in_mode_branches(files: Dict[str, str]) -> List[str]:
    """The ``send`` and ``section`` calls inside a branch of a test of
    the execution mode."""
    found = []
    for name, text in files.items():
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.If) and is_mode_test(node.test)):
                continue
            for stmt in node.body + node.orelse:
                found += [
                    f"{name}:{call.lineno} {call_name(call)}"
                    for call in ast.walk(stmt)
                    if isinstance(call, ast.Call)
                    and call_name(call) in ("send", "section")
                ]
    return found


def raw_transcript_sends(files: Dict[str, str]) -> List[str]:
    """The ``transcript.send`` and ``<expr>.transcript.send`` calls."""
    found = []
    for name, text in files.items():
        for node in ast.walk(ast.parse(text)):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
            ):
                continue
            recv = node.func.value
            if (
                isinstance(recv, ast.Name) and recv.id == "transcript"
                or isinstance(recv, ast.Attribute)
                and recv.attr == "transcript"
            ):
                found.append(f"{name}:{node.lineno}")
    return found


def shared(sites: Dict[str, List[str]]) -> Dict[str, List[str]]:
    return {label: at for label, at in sites.items() if len(at) > 1}


class TestOneSendSite:
    def test_every_send_label_is_spelled_at_one_site(self):
        sends, _ = label_sites(sources())
        assert len(sends) >= 15
        assert shared(sends) == {}

    def test_every_section_label_is_spelled_at_one_site(self):
        _, sections = label_sites(sources())
        assert set(shared(sections)) == SHARED_SECTIONS

    def test_no_send_sits_in_a_mode_branch(self):
        assert sends_in_mode_branches(sources()) == []

    def test_a_send_in_each_mode_branch_is_caught(self):
        assert sends_in_mode_branches({"bad.py": MODE_BRANCH_SENDS}) == [
            "bad.py:4 send",
        ]

    def test_a_label_spelled_twice_is_caught(self):
        sends, _ = label_sites({"twins.py": TWIN_SENDS})
        assert shared(sends) == {"blind": ["twins.py:3", "twins.py:6"]}


class TestOneChannel:
    def test_only_the_channel_impls_send_on_the_raw_transcript(self):
        files = sources(REPRO)
        impls = {k: v for k, v in files.items() if k in CHANNEL_IMPLS}
        assert sorted(impls) == sorted(CHANNEL_IMPLS)
        assert raw_transcript_sends(impls)  # the session's one send
        rest = {k: v for k, v in files.items() if k not in CHANNEL_IMPLS}
        assert raw_transcript_sends(rest) == []

    def test_a_raw_transcript_send_is_caught(self):
        assert raw_transcript_sends({"runtime/helper.py": RAW_SEND}) == [
            "runtime/helper.py:3",
        ]


def off_by_one(f, index):
    """``f`` with the size at ``index`` of what it returns (the whole
    result when ``index`` is None) one byte larger."""

    def wrapped(*args):
        sizes = f(*args)
        if index is None:
            return sizes + 1
        values = list(sizes)
        values[index] += 1
        if hasattr(sizes, "_fields"):
            return type(sizes)(*values)
        return tuple(values)

    return wrapped


def run_psi(ctx):
    psi_with_payloads(
        ctx, make_ot(ctx), [1, 2, 3, 4], [3, 4, 5], [30, 40, 50]
    )


def run_dh_oprf(ctx):
    dh_oprf_match(ctx, [1, 2, 3, 4], [3, 4, 5])


#: (module, size function, index of the size in its result, the label
#: that size is sent under, a run that reaches it)
MUTATIONS = [
    (dhoprf, "dh_oprf_bytes", 0, "blind", run_dh_oprf),
    (oprf, "kkrt_setup_bytes", None, "oprf/u", run_psi),
    (psi, "opprf_hint_bytes", None, "opprf_hints", run_psi),
    (leaves, "leaf_bytes", None, "messages", run_psi),
    (yao, "garbled_bytes", 1, "gc/tables", run_psi),
    (ot, "base_ot_bytes", 1, "ot/ext/base/B", run_psi),
    (ot, "tree_correction_bytes", None, "ot/ext/u", run_psi),
    (ot, "cot_bytes", 1, "ot/ext/ciphertexts", run_psi),
]


@pytest.mark.parametrize(
    "module, size, index, label, run",
    MUTATIONS,
    ids=[m[3] for m in MUTATIONS],
)
def test_a_size_off_by_one_fails_real_alone(
    monkeypatch, module, size, index, label, run
):
    monkeypatch.setattr(module, size, off_by_one(getattr(module, size), index))
    run(Context(Mode.SIMULATED, seed=3))  # no payload to check
    with pytest.raises(ScheduleMismatch) as caught:
        run(Context(Mode.REAL, seed=3))
    assert str(caught.value).startswith(f"'{label}': ")
    # a bug, which the supervisor must not retry
    assert not isinstance(caught.value, ProtocolAbort)


def test_real_and_simulated_agree_with_both_pools_open(small_pool):
    """A PSI whose leaf OTs open one instance's silent-OT pool and whose
    label OTs open the other's: REAL sends what SIMULATED charges, pool
    messages included."""
    prints = []
    for mode in (Mode.REAL, Mode.SIMULATED):
        ctx = Context(mode, seed=3)
        forward = make_ot(ctx)
        psi_with_payloads(
            ctx, forward, [1, 2, 3, 4], [3, 4, 5], [30, 40, 50]
        )
        assert None not in (forward._pool_left, forward.reverse._pool_left)
        prints.append(ctx.transcript.fingerprint())
    assert prints[0] == prints[1]
    assert any(label.endswith("ot/ext/pool") for _, _, label in prints[0])


def test_a_tree_size_off_by_one_fails_real_alone(monkeypatch, small_pool):
    """The pool's SPCOT bytes ride wherever the schedule puts them; a
    tree priced one byte off is caught there, in REAL alone."""
    from repro.mpc import costs

    mutated = off_by_one(costs.tree_bytes, None)
    monkeypatch.setattr(costs, "tree_bytes", mutated)
    run_psi(Context(Mode.SIMULATED, seed=3))
    with pytest.raises(ScheduleMismatch) as caught:
        run_psi(Context(Mode.REAL, seed=3))
    assert str(caught.value).split("'")[1].startswith("ot/ext/")
