"""Tests for the ``repro lint`` obliviousness static analyzer.

Four layers:

* fixture tests — each rule's good/bad snippets under
  ``tests/lint_fixtures/`` flag (or stay silent) as documented;
* framework tests — suppression accounting, SARIF output, git-diff
  scoping, and the full run over the real tree staying clean;
* leakage-contract tests — the registry↔docs pin and the plan-level
  audit of TPC-H Q3 under each back-end route;
* mutation tests — injecting a secret-dependent branch into a real
  sharing gadget (OBL001), stripping the ``@leaks`` contract off the
  linear join entry point (OBL006), and emptying the linear back-end's
  registered contract on the real file set (OBL008); all must fire.

Every rule's exact findings on the fixtures and on the mutated tree are
pinned as data by ``tests/test_lint_golden.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.leakage import BACKEND_CONTRACTS, leakage_table
from repro.lint import all_rules, lint_sources, run_lint
from repro.lint.project import parse_source
from repro.lint.reporters import sarif_report
from repro.lint.runner import discover_files, git_changed_files, load_sources

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
RULES = (
    "OBL001",
    "OBL002",
    "OBL003",
    "OBL004",
    "OBL005",
    "OBL006",
    "OBL007",
    "OBL008",
)


def lint_fixture(name, select, path_prefix="repro/mpc"):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    src = parse_source(f"{path_prefix}/{name}", text)
    violations, suppressed = lint_sources([src], select=list(select))
    return violations, suppressed


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_flags(rule):
    violations, _ = lint_fixture(f"{rule.lower()}_bad.py", [rule])
    assert violations, f"{rule} bad fixture produced no findings"
    assert all(v.rule == rule for v in violations)


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_clean(rule):
    violations, _ = lint_fixture(f"{rule.lower()}_good.py", [rule])
    assert violations == []


def test_obl001_flags_every_bad_gadget():
    """Each function in the OBL001 bad fixture exercises a distinct
    sink (branch, index, loop bound, comprehension filter, share
    attribute) — all five must fire, and so must the ``real=`` thunk
    of a ``garbled_call`` (only its ``ideal=`` thunk is SIMULATED-side
    code; the good fixture holds that half)."""
    violations, _ = lint_fixture("obl001_bad.py", ["OBL001"])
    assert len(violations) >= 6
    lines = (FIXTURES / "obl001_bad.py").read_text().splitlines()
    assert any("real=lambda" in lines[v.line - 1] for v in violations)


def test_correlated_ot_outputs_are_secret_sources():
    """The C-OT entry point replaced ``transfer_matrix`` /
    ``transfer_segments`` as the taint source for OT outputs: pads,
    received messages and anything computed from them must not reach a
    branch, an index, or a metered byte count."""
    violations, _ = lint_fixture("obl001_cot_bad.py", ["OBL001", "OBL002"])
    lines = (FIXTURES / "obl001_cot_bad.py").read_text().splitlines()
    flagged = {
        (v.rule, lines[v.line - 1].split("#")[0].strip())
        for v in violations
    }
    assert flagged >= {
        ("OBL001", "if got[0][0, 0]:"),
        ("OBL001", "if cot.p0[0][0, 0] & 1:"),
        ("OBL001", "return table[recv[0, 0]]"),
        ("OBL002", 'ctx.send("bob", int(got[0].sum()), "leaky")'),
    }


def test_rules_only_fire_in_protocol_dirs():
    violations, _ = lint_fixture(
        "obl001_bad.py", ["OBL001"], path_prefix="repro/bench"
    )
    assert violations == []


_RAW_SEND = (
    "def f(ctx, n):\n"
    '    ctx.transcript.send("alice", n, "raw")\n'
)


def test_obl002_flags_raw_transcript_send_in_runtime():
    """repro/runtime is a protocol dir; unsanctioned modules there may
    not touch the raw transcript either."""
    src = parse_source("repro/runtime/helper.py", _RAW_SEND)
    violations, _ = lint_sources([src], select=["OBL002"])
    assert any("framing layer" in v.message for v in violations)


def test_obl002_sanctioned_channel_impls_exempt():
    """The transcript, the context router and the session framing
    layer are the only modules allowed a raw Transcript.send."""
    for path in (
        "repro/mpc/transcript.py",
        "repro/mpc/context.py",
        "repro/runtime/session.py",
    ):
        src = parse_source(path, _RAW_SEND)
        violations, _ = lint_sources([src], select=["OBL002"])
        assert violations == [], path


# ----------------------------------------------------------------------
# framework: suppressions, full-tree run
# ----------------------------------------------------------------------

_SUPPRESSIBLE = (
    "import random"
    "  # oblint: disable=OBL003 — fixed-seed public sanity check\n"
)


def test_justified_suppression_is_counted_not_reported():
    src = parse_source("repro/mpc/supp.py", _SUPPRESSIBLE)
    violations, suppressed = lint_sources([src], select=["OBL003"])
    assert violations == []
    assert suppressed == 1


def test_unjustified_suppression_becomes_obl000():
    text = "import random  # oblint: disable=OBL003\n"
    src = parse_source("repro/mpc/supp.py", text)
    violations, suppressed = lint_sources([src], select=["OBL003"])
    assert suppressed == 0
    assert [v.rule for v in violations] == ["OBL000"]
    assert "justification" in violations[0].message


def test_suppression_of_other_rule_does_not_apply():
    text = "import random  # oblint: disable=OBL001 — wrong rule\n"
    src = parse_source("repro/mpc/supp.py", text)
    violations, _ = lint_sources([src], select=["OBL003"])
    assert [v.rule for v in violations] == ["OBL003"]


def test_inline_suppression_is_the_only_silencing_mechanism(capsys):
    """A finding is fixed or carries a justified inline suppression:
    the grandfathering baseline, its flags and its file are gone."""
    import argparse
    import importlib

    from repro.lint.runner import add_lint_arguments

    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    for flag in ("baseline=f", "no-baseline", "write-baseline",
                 "prune-baseline", "check-baseline"):
        with pytest.raises(SystemExit):
            parser.parse_args([f"--{flag}"])
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(ImportError):
        importlib.import_module("repro.lint.baseline")
    assert not (REPO_ROOT / "lint-baseline.json").exists()


def test_repo_tree_is_lint_clean():
    """The committed tree must pass its own linter — the same gate CI
    runs."""
    result = run_lint([str(REPO_ROOT / "src")], root=REPO_ROOT)
    assert result.ok, "\n".join(
        f"{v.path}:{v.line} {v.rule} {v.message}"
        for v in result.violations
    )
    assert result.files_checked > 50


def test_rule_catalogue_complete():
    codes = {r.code for r in all_rules()}
    assert set(RULES) <= codes


# ----------------------------------------------------------------------
# mutation test: OBL001 catches an injected secret-dependent branch
# ----------------------------------------------------------------------

GADGET = REPO_ROOT / "src" / "repro" / "mpc" / "sharing.py"
_ANCHOR = "    sender = other_party(to)\n"
_MUTATION = (
    "    if sv.reconstruct()[0] > 0:  # MUTATION: secret-dependent\n"
    '        label = label + "/nz"\n'
)


def test_mutation_secret_branch_is_caught():
    pristine = GADGET.read_text(encoding="utf-8")
    src = parse_source("repro/mpc/sharing.py", pristine)
    before, _ = lint_sources([src], select=["OBL001"])
    assert before == [], "pristine gadget must be OBL001-clean"

    assert pristine.count(_ANCHOR) == 1, "mutation anchor moved"
    mutant_text = pristine.replace(_ANCHOR, _ANCHOR + _MUTATION)
    mutant = parse_source("repro/mpc/sharing.py", mutant_text)
    after, _ = lint_sources([mutant], select=["OBL001"])
    assert any(
        v.rule == "OBL001" and "branch" in v.message for v in after
    ), "injected secret-dependent branch was not flagged"


LINEAR_GADGET = REPO_ROOT / "src" / "repro" / "core" / "linear.py"
_LEAKS_DECORATOR = '@leaks("join_pattern:parent")\n'


def test_mutation_stripped_contract_is_caught():
    """Deleting the ``@leaks`` contract off the linear-join entry point
    must trip OBL006 at the ``dh_oprf_match`` call it dominates."""
    pristine = LINEAR_GADGET.read_text(encoding="utf-8")
    src = parse_source("repro/core/linear.py", pristine)
    before, _ = lint_sources([src], select=["OBL006"])
    assert before == [], "pristine linear join must be OBL006-clean"

    assert pristine.count(_LEAKS_DECORATOR) == 1, "contract anchor moved"
    mutant_text = pristine.replace(_LEAKS_DECORATOR, "")
    mutant = parse_source("repro/core/linear.py", mutant_text)
    after, _ = lint_sources([mutant], select=["OBL006"])
    assert any(
        v.rule == "OBL006" and "dh_oprf_match" in v.message for v in after
    ), "stripped @leaks contract was not flagged"


_LINEAR_CONTRACT = '"linear": frozenset({"join_pattern:parent"})'


def test_mutation_emptied_backend_contract_is_caught():
    """Emptying the linear back-end's registered contract must trip
    OBL008 at ``core/semijoin.py``'s linear dispatch, on the real
    ``src/`` file set — where ``BACKEND_CONTRACTS`` is an annotated
    assignment."""
    sources, _ = load_sources(
        discover_files([str(REPO_ROOT / "src")]), root=REPO_ROOT
    )
    before, _ = lint_sources(sources, select=["OBL008"])
    assert before == [], "pristine tree must be OBL008-clean"

    (i,) = [
        i for i, s in enumerate(sources) if s.path == "src/repro/leakage.py"
    ]
    pristine = sources[i].text
    assert pristine.count(_LINEAR_CONTRACT) == 1, "contract anchor moved"
    mutant_text = pristine.replace(_LINEAR_CONTRACT, '"linear": frozenset()')
    sources[i] = parse_source(sources[i].path, mutant_text)
    after, _ = lint_sources(sources, select=["OBL008"])
    assert [(v.rule, v.path) for v in after] == [
        ("OBL008", "src/repro/core/semijoin.py")
    ], "emptied back-end contract was not flagged"
    assert "linear_cross_owner_payloads" in after[0].snippet


# ----------------------------------------------------------------------
# leakage contracts: registry↔docs pin + plan-level audit
# ----------------------------------------------------------------------


def test_docs_leakage_table_matches_registry():
    """docs/BACKENDS.md embeds the machine-generated contract table;
    editing the registry without regenerating the docs must fail."""
    text = (REPO_ROOT / "docs" / "BACKENDS.md").read_text(encoding="utf-8")
    begin, end = "<!-- leakage-table:begin -->", "<!-- leakage-table:end -->"
    assert begin in text and end in text
    embedded = text.split(begin, 1)[1].split(end, 1)[0].strip()
    assert embedded == leakage_table().strip()


def _q3_plans():
    from repro.exec import compile_plan
    from repro.tpch.datagen import generate
    from repro.tpch.queries import prepare_q3

    q = prepare_q3(generate(1))._build()
    return {
        backend: compile_plan(
            q.plan(),
            q.owners,
            backends=q.backend_assignments(backend),
            name=f"q3-{backend}",
        )
        for backend in ("yannakakis", "linear")
    }


def test_q3_plan_audit_pins_backend_leakage():
    """The acceptance pin: all-yannakakis Q3 composes to the empty
    leakage summary; the all-linear route leaks exactly the
    pseudonymised join pattern — nothing more."""
    from repro.exec import audit_plan

    plans = _q3_plans()

    report = audit_plan(plans["yannakakis"])
    assert report.summary == frozenset()
    assert report.ok(frozenset())

    report = audit_plan(plans["linear"])
    assert report.summary == frozenset({"join_pattern:parent"})
    assert not report.ok(frozenset())
    assert report.ok(frozenset({"join_pattern:parent"}))
    # every violation names a concrete dispatched node
    assert all("join_pattern:parent" in line
               for line in report.violations(frozenset()))


def test_plan_audit_unknown_backend_is_violation():
    from repro.exec import audit_plan

    blob = json.loads(_q3_plans()["yannakakis"].dumps())
    for step in blob["steps"]:
        if step["kind"] == "reduce_fold":
            step["backend"] = "mystery"
    from repro.exec import ExecPlan

    mutant = ExecPlan.loads(json.dumps(blob))
    report = audit_plan(mutant)
    assert not report.ok(frozenset({"join_pattern:parent"}))
    assert any("no BACKEND_CONTRACTS entry" in line
               for line in report.violations(frozenset()))


def test_plan_with_misspelled_backend_key_is_rejected():
    # A step whose ``backend`` key is misspelt must not load as the
    # default ``yannakakis`` route: that would audit a leaking plan
    # as clean.
    from repro.exec import ExecPlan

    blob = json.loads(_q3_plans()["linear"].dumps())
    for step in blob["steps"]:
        if "backend" in step:
            step["backnd"] = step.pop("backend")
    with pytest.raises(ValueError, match="backnd"):
        ExecPlan.loads(json.dumps(blob))


def test_backend_contracts_registry_shape():
    """The registry the whole PR hangs off: closed key set, frozenset
    values drawn from the atom vocabulary."""
    from repro.leakage import ATOMS

    assert set(BACKEND_CONTRACTS) == {"yannakakis", "linear"}
    for atoms in BACKEND_CONTRACTS.values():
        assert isinstance(atoms, frozenset)
        assert atoms <= set(ATOMS)


# ----------------------------------------------------------------------
# reporters: SARIF
# ----------------------------------------------------------------------


def test_sarif_report_shape():
    src = parse_source("repro/mpc/base.py", "import random\n")
    violations, _ = lint_sources([src], select=["OBL003"])
    from repro.lint.violations import LintResult

    result = LintResult(violations=violations, files_checked=1)
    blob = json.loads(sarif_report(result, all_rules()))
    assert blob["version"] == "2.1.0"
    run = blob["runs"][0]
    assert run["tool"]["driver"]["name"] == "oblint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(RULES) <= rule_ids
    (res,) = run["results"]
    assert res["ruleId"] == "OBL003"
    assert res["level"] == "error"
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "repro/mpc/base.py"
    assert loc["region"]["startLine"] == 1
    fp = res["partialFingerprints"]["oblint/v1"]
    assert fp == violations[0].fingerprint()


# ----------------------------------------------------------------------
# git-diff scoping (--changed)
# ----------------------------------------------------------------------


def test_git_changed_files_merges_diff_and_untracked(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    (tmp_path / "c.txt").write_text("not python\n")
    outputs = {
        "diff": "a.py\nc.txt\ngone.py\n",
        "ls-files": "b.py\na.py\n",
    }

    def runner(argv):
        return outputs["diff" if "diff" in argv else "ls-files"]

    changed = git_changed_files(root=tmp_path, runner=runner)
    # .txt filtered, duplicate a.py collapsed, deleted gone.py skipped
    assert [p.name for p in changed] == ["a.py", "b.py"]


# ----------------------------------------------------------------------
# CLI + typing gate
# ----------------------------------------------------------------------


def _run_cli(*argv):
    env_src = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in RULES:
        assert rule in proc.stdout


def test_cli_plan_audit_roundtrip(tmp_path):
    """`repro lint --plan` on a serialised ExecPlan: the linear route
    fails a zero budget and passes once the atom is allowed."""
    plan_file = tmp_path / "q3-linear.json"
    plan_file.write_text(_q3_plans()["linear"].dumps())

    denied = _run_cli("--plan", str(plan_file))
    assert denied.returncode == 1
    assert "join_pattern:parent" in denied.stdout

    allowed = _run_cli(
        "--plan", str(plan_file), "--allow", "join_pattern:parent"
    )
    assert allowed.returncode == 0, allowed.stdout + allowed.stderr


def test_cli_json_report_on_clean_tree():
    """The committed tree must pass its own linter — the same gate CI
    runs."""
    proc = _run_cli("src", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["violations"] == []
    assert blob["files_checked"] > 50


@pytest.mark.skipif(
    shutil.which("mypy") is None,
    reason="mypy not installed (optional [lint] extra)",
)
def test_mypy_strict_gate():
    proc = subprocess.run(
        ["mypy", "--no-error-summary"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
