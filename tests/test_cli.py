"""The command-line interface."""

import argparse
import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.query import BACKEND_POLICIES
from repro.runtime import FAULT_KINDS, NET_QUERIES, FaultSpec, kinds_of
from repro.tpch import PREPARED


def test_import_needs_only_declared_dependencies():
    """pyproject.toml declares numpy and cryptography: importing the CLI
    on top of those two loads nothing else from outside the standard
    library."""
    probe = (
        "import sys, numpy\n"
        "import cryptography.hazmat.primitives.asymmetric.ec\n"
        "import cryptography.hazmat.primitives.ciphers\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - sys.stdlib_module_names - {'repro'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestCli:
    def test_tpch_q3(self, capsys):
        assert main(["tpch", "Q3", "--scale", "1", "--show", "2"]) == 0
        out = capsys.readouterr().out
        assert "Q3" in out and "matches plaintext: True" in out

    def test_figures_single(self, capsys, tmp_path):
        from repro.bench import FigureRow

        rows_file = tmp_path / "rows.json"
        assert main([
            "figures", "--queries", "Q10", "--scales", "1",
            "--json", str(rows_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        (row,) = [FigureRow(**r) for r in json.loads(rows_file.read_text())]
        assert (row.query, row.scale_mb, row.matches_plaintext) == (
            "Q10", 1, True
        )
        assert f"{row.secure_seconds:.2f}s" in out

    def test_estimate(self, capsys):
        from repro.bench.estimator import (
            estimate_node_costs,
            estimate_query_cost,
        )
        from repro.tpch import PREPARED, generate

        assert main(["estimate", "Q3", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "input tuples" in out
        assert "out_size=0" in out
        jq = PREPARED["Q3"](generate(1))._build()
        sizes = {n: len(r) for n, r in jq.relations.items()}
        routed = jq.backend_assignments("auto")
        costs = estimate_node_costs(jq.plan(), sizes, jq.owners)
        assert costs
        for label, per_backend in costs.items():
            (line,) = [ln for ln in out.splitlines() if label in ln]
            for backend, n_bytes in per_backend.items():
                assert f"{backend} {n_bytes:,}" in line
            assert line.endswith(routed[label])
        est = estimate_query_cost(jq, out_size=0, backends=routed)
        assert (
            f"{est.total:,} B in {est.messages:,} messages, "
            f"{est.rounds:,} rounds at out_size=0"
        ) in out

    def test_estimate_decomposed_points_at_tpch(self, capsys):
        assert main(["estimate", "Q8", "--scale", "1"]) == 0
        assert "run `tpch`" in capsys.readouterr().out

    def test_trace_stdout(self, capsys):
        assert main(["trace", "Q3", "--scale", "1"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["meta"]["query"] == "Q3"
        assert blob["total_bytes"] > 0
        kinds = {n["kind"] for n in blob["nodes"]}
        assert {"share", "reveal", "join", "align", "product"} <= kinds
        for node in blob["nodes"]:
            assert {
                "id", "kind", "label", "section",
                "seconds", "n_bytes", "n_messages", "rounds",
            } <= set(node)

    def test_trace_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main([
            "trace", "Q18", "--scale", "1", "-o", str(out_file),
        ]) == 0
        assert "trace nodes" in capsys.readouterr().out
        blob = json.loads(out_file.read_text())
        assert len(blob["nodes"]) > 0

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["tpch", "Q99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestChaosIsNeverVacuous:
    """``--kinds`` of the other level used to be filtered to nothing:
    ``OK: 0 fault points``, exit 0."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--kinds", "kill-node"], "corrupt, truncate"),
            (["--level", "process", "--kinds", "corrupt"], "kill-node"),
        ],
    )
    def test_foreign_kind_is_an_argparse_error(self, argv, names, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", *argv])
        assert exit_info.value.code == 2
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, builder",
        [
            ([], "repro.runtime.chaos.build_specs"),
            (
                ["--level", "process"],
                "repro.runtime.netchaos.build_specs",
            ),
        ],
    )
    def test_zero_fault_points_exit_nonzero(
        self, argv, builder, capsys, monkeypatch
    ):
        monkeypatch.setattr(builder, lambda *a, **kw: [])
        assert main(["chaos", "--sweep", "quick", *argv]) == 1
        out = capsys.readouterr().out
        assert "0 fault points" in out and "FAILED" in out


class TestFaultKindChoices:
    """Every CLI that names a fault kind accepts exactly the kind
    table's kinds for its level(s), and nothing else."""

    CLIS = {
        "chaos": (("message", "process"), ["chaos", "--kinds", "{kind}"]),
        "serve": (("message",), ["serve", "--kinds", "{kind}"]),
        "fuzz": (("message", "input"), ["fuzz", "--inject-fault", "{spec}"]),
        "net": (("process",), ["net", "--role", "bob", "--fault", "{spec}"]),
    }

    @pytest.mark.parametrize("cli", sorted(CLIS))
    def test_choices_are_the_tables_kinds(self, cli, capsys):
        levels, template = self.CLIS[cli]
        parser = build_parser()
        accepted = []
        for kind, row in FAULT_KINDS.items():
            spec = FaultSpec.make(kind, None if row.target is None else 0)
            argv = [
                a.format(kind=kind, spec=spec) for a in template
            ]
            try:
                parser.parse_args(argv)
            except SystemExit:
                continue
            accepted.append(kind)
        capsys.readouterr()
        assert tuple(accepted) == kinds_of(*levels)


def test_net_defaults_are_net_configs():
    # The transport timings and the reconnect budget are spelt once:
    # `repro net` with no options runs exactly NetConfig's defaults.
    from repro.cli import _net_config
    from repro.runtime import NetConfig

    for role in ("alice", "bob"):
        args = build_parser().parse_args(["net", "--role", role])
        assert _net_config(args) == NetConfig(role=role)


class TestServeAdmitsAndRejectsTpch:
    """A TPC-H request used to be an opaque ``run=``: unpriced, so
    ``--budget-mb`` admitted it whatever the budget."""

    def test_budget_rejects_before_any_message(self, capsys):
        assert main([
            "serve", "--queries", "Q3", "--tenants", "1",
            "--scale", "tiny", "--budget-mb", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 sessions (1 rejected)" in out
        assert "tenant0/Q3#0: rejected, 0 msgs, 0.00 MB" in out

    def test_two_tenants_match_solo(self, capsys):
        assert main([
            "serve", "--queries", "Q3", "Q3", "--tenants", "2",
            "--scale", "tiny", "--check-solo",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("done, 50 msgs, 0.54 MB  [== solo]") == 2


def _subparsers():
    """``build_parser()``'s sub-command parsers, by name."""
    (action,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


#: How to reach each ``--scale`` (``figures``: ``--scales``).
SCALED = {
    "tpch": ["tpch", "Q3", "--scale"],
    "trace": ["trace", "Q3", "--scale"],
    "estimate": ["estimate", "Q3", "--scale"],
    "chaos": ["chaos", "--scale"],
    "net": ["net", "--role", "bob", "--scale"],
    "serve": ["serve", "--scale"],
    "figures": ["figures", "--scales"],
}


@pytest.mark.parametrize("cmd", sorted(SCALED))
def test_scale_is_a_positive_mb_or_tiny(cmd, capsys):
    """``--scale foo`` used to be a ValueError traceback in chaos and
    serve, and ``--scale -1`` ran an empty dataset everywhere."""
    parser = build_parser()
    for bad in ("foo", "0", "-1"):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([*SCALED[cmd], bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {SCALED[cmd][-1]}: " in err, err
    args = parser.parse_args([*SCALED[cmd], "tiny"])
    assert (args.scales if cmd == "figures" else [args.scale]) == [0.1]


def test_shared_options_are_spelt_once():
    """Each run option means the same on every sub-command that has it."""
    subs = _subparsers()
    seen = {}
    for name, p in subs.items():
        opts = {a.dest: a for a in p._actions}
        for dest in opts:
            seen.setdefault(dest, set()).add(name)
        if "backend" in opts:
            assert tuple(opts["backend"].choices) == (
                (*BACKEND_POLICIES, "both") if name == "fuzz"
                else BACKEND_POLICIES
            )
        for dest in ("query", "queries"):
            if dest in opts:
                assert tuple(opts[dest].choices) == (
                    NET_QUERIES if name == "net" else tuple(PREPARED)
                )
        if "seed" in opts:
            assert opts["seed"].default == (0 if name == "fuzz" else 7)
        if "scale" in opts:
            assert opts["scale"].default == (
                1 if name in ("tpch", "trace", "estimate") else "tiny"
            )
    run = {"tpch", "trace", "chaos", "net", "serve"}
    assert seen["backend"] == seen["seed"] == run | {"fuzz"}
    assert seen["scale"] == run | {"estimate"}
    assert seen["query"] | seen["queries"] == run | {"estimate", "figures"}
