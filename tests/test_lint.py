"""Tests for the ``repro lint`` obliviousness static analyzer.

Four layers:

* fixture tests — the rule's good/bad snippets under
  ``tests/lint_fixtures/`` flag (or stay silent) as documented;
* framework tests — suppression accounting, SARIF output, git-diff
  scoping, and the full run over the real tree staying clean, as CI
  runs it;
* leakage-contract tests — the registry↔docs pin, the plan-level
  audit of TPC-H Q3 under each back-end route, and the import-time
  check of the back-end dispatch table against the registry;
* mutation tests — injecting a secret-dependent branch into a real
  sharing gadget must fire OBL001; stripping the ``@leaks`` contract
  off the linear join entry point must raise while the plan runs, and
  emptying the linear back-end's registered contract must fail the
  dispatch-table check.

The run-time side of the contracts (scopes and sinks) is tested in
``tests/test_leakage.py``.

The rule's exact findings on the fixtures and on the mutated tree are
pinned as data by ``tests/test_lint_golden.py``.  Determinism, which
OBL003 and OBL004 once linted, is checked by running the replay
(``tests/test_replay.py``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.leakage import (
    BACKEND_CONTRACTS,
    check_backend_table,
    leakage_table,
)
from repro.lint import lint_sources, run_lint
from repro.lint.project import parse_source
from repro.lint.reporters import sarif_report
from repro.lint.runner import git_changed_files

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
RULES = ("OBL001",)


def lint_fixture(name, path_prefix="repro/mpc"):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    src = parse_source(f"{path_prefix}/{name}", text)
    return lint_sources([src])


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_flags(rule):
    violations, _ = lint_fixture(f"{rule.lower()}_bad.py")
    assert violations, f"{rule} bad fixture produced no findings"
    assert all(v.rule == rule for v in violations)


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_clean(rule):
    violations, _ = lint_fixture(f"{rule.lower()}_good.py")
    assert violations == []


def test_obl001_flags_every_bad_gadget():
    """Each function in the OBL001 bad fixture exercises a distinct
    sink (branch, index, loop bound, comprehension filter, share
    attribute) — all five must fire, and so must the ``real=`` thunk
    of a ``garbled_call`` (only its ``ideal=`` thunk is SIMULATED-side
    code; the good fixture holds that half)."""
    violations, _ = lint_fixture("obl001_bad.py")
    assert len(violations) >= 6
    lines = (FIXTURES / "obl001_bad.py").read_text().splitlines()
    assert any("real=lambda" in lines[v.line - 1] for v in violations)


def test_correlated_ot_outputs_are_secret_sources():
    """The C-OT entry point replaced ``transfer_matrix`` /
    ``transfer_segments`` as the taint source for OT outputs: pads,
    received messages and anything computed from them must not reach a
    branch or an index."""
    violations, _ = lint_fixture("obl001_cot_bad.py")
    lines = (FIXTURES / "obl001_cot_bad.py").read_text().splitlines()
    flagged = {
        (v.rule, lines[v.line - 1].split("#")[0].strip())
        for v in violations
    }
    assert flagged >= {
        ("OBL001", "if got[0][0, 0]:"),
        ("OBL001", "if cot.p0[0][0, 0] & 1:"),
        ("OBL001", "return table[recv[0, 0]]"),
    }


def test_rules_only_fire_in_protocol_dirs():
    violations, _ = lint_fixture("obl001_bad.py", path_prefix="repro/bench")
    assert violations == []


# ----------------------------------------------------------------------
# framework: suppressions, full-tree run
# ----------------------------------------------------------------------

def secret_branch(directive=""):
    """A module whose one OBL001 finding carries ``directive``."""
    text = (
        "def check(sv):\n"
        f"    if sv.reconstruct()[0] > 0:{directive}\n"
        "        return 1\n"
    )
    return parse_source("repro/mpc/supp.py", text)


def test_justified_suppression_is_counted_not_reported():
    src = secret_branch(
        "  # oblint: disable=OBL001 — public sanity check of a test vector"
    )
    violations, suppressed = lint_sources([src])
    assert violations == []
    assert suppressed == 1


def test_unjustified_suppression_becomes_obl000():
    src = secret_branch("  # oblint: disable=OBL001")
    violations, suppressed = lint_sources([src])
    assert suppressed == 0
    assert [v.rule for v in violations] == ["OBL000"]
    assert "justification" in violations[0].message


def test_own_line_suppression_targets_the_next_code_line():
    """An own-line directive skips the comment lines and blank lines
    below it and suppresses the next code line."""
    reason = "    # oblint: disable=OBL001 — public sanity check\n"
    text = (
        "def check(sv):\n"
        f"{reason}"
        "    # a second comment line\n"
        "    if sv.alice[0] > 3:\n"
        "        return 1\n"
        f"{reason}"
        "\n"
        "    if sv.alice[0] > 3:\n"
        "        return 2\n"
    )
    violations, suppressed = lint_sources(
        [parse_source("repro/mpc/supp.py", text)]
    )
    assert violations == []
    assert suppressed == 2


def test_suppression_of_other_rule_does_not_apply():
    src = secret_branch("  # oblint: disable=OBL003 — a retired rule")
    violations, _ = lint_sources([src])
    assert [v.rule for v in violations] == ["OBL001"]


def test_inline_suppression_is_the_only_silencing_mechanism(capsys):
    """A finding is fixed or carries a justified inline suppression:
    the grandfathering baseline, its flags and its file are gone."""
    import importlib

    from repro.cli import build_parser

    parser = build_parser()
    for flag in ("baseline=f", "no-baseline", "write-baseline",
                 "prune-baseline", "check-baseline"):
        with pytest.raises(SystemExit):
            parser.parse_args(["lint", f"--{flag}"])
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
    """OBL001 is the one rule: the SARIF log's catalogue lists it
    alone, and the framework for several rules is gone — its registry
    and the options that selected, listed or JSON-reported rules — and
    so is the audit of a plan file, which has no format to read."""
    import importlib

    from repro.cli import build_parser
    from repro.lint.violations import LintResult

    blob = json.loads(sarif_report(LintResult()))
    rules = blob["runs"][0]["tool"]["driver"]["rules"]
    assert tuple(r["id"] for r in rules) == RULES
    for module in ("registry", "rules"):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.lint.{module}")
    parser = build_parser()
    for argv in (["--select", "OBL001"], ["--list-rules"],
                 ["--format", "json"], ["--plan", "q3.json"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["lint", *argv])


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
    before, _ = lint_sources([src])
    assert before == [], "pristine gadget must be OBL001-clean"

    assert pristine.count(_ANCHOR) == 1, "mutation anchor moved"
    mutant_text = pristine.replace(_ANCHOR, _ANCHOR + _MUTATION)
    mutant = parse_source("repro/mpc/sharing.py", mutant_text)
    after, _ = lint_sources([mutant])
    assert any(
        v.rule == "OBL001" and "branch" in v.message for v in after
    ), "injected secret-dependent branch was not flagged"


def test_mutation_stripped_contract_is_caught(monkeypatch):
    """Deleting the ``@leaks`` contract off the linear-join entry point
    makes the ``dh_oprf_match`` it reaches raise while a linear-routed
    plan runs."""
    from repro.core.semijoin import CROSS_OWNER
    from repro.leakage import UndeclaredLeakage
    from repro.mpc.context import Context, Mode
    from repro.mpc.engine import Engine
    from repro.tpch.datagen import generate
    from repro.tpch.queries import prepare_q3

    q = prepare_q3(generate(0.1))._build().set_backend("linear")

    def run():
        return q.run_secure(Engine(Context(Mode.SIMULATED, seed=1)))

    run()  # pristine: the contract covers the join pattern
    stripped = CROSS_OWNER["linear"].__wrapped__
    monkeypatch.setitem(CROSS_OWNER, "linear", stripped)
    with pytest.raises(UndeclaredLeakage, match="join_pattern:parent"):
        run()


def test_mutation_emptied_backend_contract_is_caught():
    """Emptying the linear back-end's registered contract must fail the
    check ``repro.core`` runs on its dispatch table at import: the
    linear implementation's ``@leaks`` then exceeds it."""
    from repro.core.semijoin import CROSS_OWNER

    check_backend_table(CROSS_OWNER, BACKEND_CONTRACTS)
    emptied = {**BACKEND_CONTRACTS, "linear": frozenset()}
    with pytest.raises(ValueError, match="linear_cross_owner_payloads"):
        check_backend_table(CROSS_OWNER, emptied)


def test_dispatch_table_keys_must_equal_the_registry():
    """A table key with no contract, or a contract with no table
    entry, fails the import-time check."""
    from repro.core.semijoin import CROSS_OWNER

    extra = {**CROSS_OWNER, "mystery": CROSS_OWNER["yannakakis"]}
    with pytest.raises(ValueError, match="implements.*'mystery'"):
        check_backend_table(extra, BACKEND_CONTRACTS)
    missing = {"yannakakis": CROSS_OWNER["yannakakis"]}
    with pytest.raises(ValueError, match=r"implements \['yannakakis'\]"):
        check_backend_table(missing, BACKEND_CONTRACTS)


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
    routes = {
        backend: q.backend_assignments(backend)
        for backend in ("yannakakis", "linear")
    }
    # Every routed node sent to a back-end the registry does not know.
    routes["mystery"] = dict.fromkeys(routes["yannakakis"], "mystery")
    return {
        backend: compile_plan(
            q.plan(), q.owners, backends=route, name=f"q3-{backend}"
        )
        for backend, route in routes.items()
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

    report = audit_plan(_q3_plans()["mystery"])
    assert not report.ok(frozenset({"join_pattern:parent"}))
    assert any("no BACKEND_CONTRACTS entry" in line
               for line in report.violations(frozenset()))


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
    violations, _ = lint_sources([secret_branch()])
    from repro.lint.violations import LintResult

    result = LintResult(violations=violations, files_checked=1)
    blob = json.loads(sarif_report(result))
    assert blob["version"] == "2.1.0"
    run = blob["runs"][0]
    assert run["tool"]["driver"]["name"] == "oblint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(RULES) <= rule_ids
    (res,) = run["results"]
    assert res["ruleId"] == "OBL001"
    assert res["level"] == "error"
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "repro/mpc/supp.py"
    assert loc["region"]["startLine"] == 2
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


def test_cli_sarif_report_on_clean_tree():
    """CI's own invocation, ``repro lint src/ --format sarif``: it
    passes, and its log parses with no result in it."""
    proc = _run_cli("src/", "--format", "sarif")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["runs"][0]["results"] == []


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
