"""Golden-file pin of the ExecutionTrace JSON schema.

``repro trace`` is a public artifact: notebooks and the bench tooling
consume its JSON.  This test pins the *structure* — top-level keys,
meta keys, per-node field names, and the (kind, label, section, stage)
operator sequence for TPC-H Q3 — against
``tests/golden/trace_q3_structure.json``.  Measurements (bytes,
seconds, cache counters) are deliberately not pinned; they may drift
with implementation changes without breaking consumers.

After a *deliberate* schema change, regenerate with::

    PYTHONPATH=src python -m tests.test_trace_golden --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "trace_q3_structure.json"


def q3_trace_json():
    """The trace blob exactly as ``repro trace Q3 --scale 1`` emits it."""
    from repro.exec import ExecutionTrace
    from repro.mpc import Engine, Mode
    from repro.tpch import PREPARED, generate

    dataset = generate(1)
    query = PREPARED["Q3"](dataset)
    tracer = ExecutionTrace()
    engine = Engine(
        query.make_context(Mode.SIMULATED, seed=7), tracer=tracer
    )
    query.run_secure(engine)
    tracer.meta["query"] = query.name
    tracer.meta["scale_mb"] = 1
    tracer.meta["mode"] = "simulated"
    tracer.meta["backend"] = "yannakakis"
    return tracer.to_json()


def structure_of(blob):
    # Fold/semijoin nodes additionally carry the routed join back-end
    # plus its pre-dispatch byte estimate; both the field names and the
    # (deterministic) per-node back-end choice are pinned.
    routed = [n for n in blob["nodes"] if "backend" in n]
    return {
        "top_level_keys": sorted(blob),
        "meta_keys": sorted(blob["meta"]),
        "node_fields": sorted(blob["nodes"][0]),
        "routed_node_fields": sorted(routed[0]) if routed else [],
        "nodes": [
            {
                k: n[k]
                for k in ("kind", "label", "section", "stage", "backend")
                if k in n
            }
            for n in blob["nodes"]
        ],
    }


def test_trace_q3_schema_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = structure_of(q3_trace_json())
    assert actual["top_level_keys"] == golden["top_level_keys"]
    assert actual["meta_keys"] == golden["meta_keys"]
    assert actual["node_fields"] == golden["node_fields"]
    assert actual["routed_node_fields"] == golden["routed_node_fields"]
    assert actual["nodes"] == golden["nodes"]


def test_trace_cli_emits_same_structure(tmp_path, capsys):
    """The ``repro trace`` subcommand writes the pinned schema too."""
    from repro.cli import main

    out = tmp_path / "trace.json"
    rc = main(
        ["trace", "Q3", "--scale", "1", "--seed", "7", "-o", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    blob = json.loads(out.read_text())
    golden = json.loads(GOLDEN.read_text())
    assert structure_of(blob) == {
        k: golden[k] for k in structure_of(blob)
    }


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regenerate" in sys.argv:
        golden = json.loads(GOLDEN.read_text())
        golden.update(structure_of(q3_trace_json()))
        GOLDEN.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n"
        )
        print(f"regenerated {GOLDEN}")
