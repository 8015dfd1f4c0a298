"""Golden lint findings.

``repro lint``'s findings are pinned as data: every entry of
``tests/golden/lint_findings.json`` lists the ``(rule, path, line, col,
message)`` findings of one lint run, and each run below must reproduce
its entry exactly.

The runs are every file of ``tests/lint_fixtures/`` (linted as a module
under ``repro/mpc``), the real ``src/`` tree as committed, and the tree
under each mutation of :data:`MUTATIONS` — an injected defect applied
to one real file.

After a *deliberate* change to a rule, print the diff and rewrite the
file with::

    PYTHONPATH=src python -m tests.test_lint_golden --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "lint_findings.json"

#: mutation name -> (file under ``src/``, anchor, replacement).  The
#: anchor must occur exactly once in the committed file.
MUTATIONS = {
    # OBL001: a branch on reconstructed shares inside a sharing gadget.
    "sharing_secret_branch": (
        "repro/mpc/sharing.py",
        "    sender = other_party(to)\n",
        "    sender = other_party(to)\n"
        "    if sv.reconstruct()[0] > 0:  # MUTATION: secret-dependent\n"
        '        label = label + "/nz"\n',
    ),
}

FIXTURE_ENTRIES = [
    f"fixture/{p.name}" for p in sorted(FIXTURES.glob("*.py"))
]
TREE_ENTRIES = ["src/clean"] + [f"src/{m}" for m in MUTATIONS]
ENTRIES = FIXTURE_ENTRIES + TREE_ENTRIES


def load_tree():
    """The parsed ``src/`` file set, paths relative to the repo root."""
    from repro.lint.runner import discover_files, load_sources

    sources, errors = load_sources(
        discover_files([str(REPO_ROOT / "src")]), root=REPO_ROOT
    )
    assert not errors
    return sources


def findings(entry: str, tree) -> list:
    """``[rule, path, line, col, message]`` of every finding of one run."""
    from repro.lint import lint_sources
    from repro.lint.project import parse_source

    kind, name = entry.split("/", 1)
    if kind == "fixture":
        text = (FIXTURES / name).read_text(encoding="utf-8")
        sources = [parse_source(f"repro/mpc/{name}", text)]
    else:
        sources = list(tree)
        if name != "clean":
            rel, anchor, replacement = MUTATIONS[name]
            path = f"src/{rel}"
            (i,) = [i for i, s in enumerate(sources) if s.path == path]
            text = sources[i].text
            assert text.count(anchor) == 1, f"{entry}: anchor moved"
            sources[i] = parse_source(path, text.replace(anchor, replacement))
    violations, _ = lint_sources(sources)
    return [[v.rule, v.path, v.line, v.col, v.message] for v in violations]


def load_golden():
    blob = json.loads(GOLDEN.read_text())
    assert sorted(blob) == sorted(ENTRIES)
    return blob


@pytest.fixture(scope="module")
def tree():
    return load_tree()


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("entry", ENTRIES)
def test_lint_findings_match_golden(entry, tree, golden):
    assert findings(entry, tree) == golden[entry], (
        f"{entry}'s lint findings moved; if deliberate, run "
        "`python -m tests.test_lint_golden --regen`"
    )


def dump(entries) -> str:
    """One finding per line, so a regenerated file diffs readably."""
    blocks = []
    for name, rows in entries.items():
        body = ",\n".join(f"    {json.dumps(r)}" for r in rows)
        blocks.append(
            f"  {json.dumps(name)}: [\n{body}\n  ]" if rows
            else f"  {json.dumps(name)}: []"
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python -m tests.test_lint_golden --regen")
    src = load_tree()
    new = {entry: findings(entry, src) for entry in ENTRIES}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changed = [e for e in ENTRIES if old.get(e) != new[e]]
    for entry in changed:
        was = old.get(entry) or []
        print(f"{entry}: {len(was)} -> {len(new[entry])} findings")
        for row in was:
            if row not in new[entry]:
                print(f"  - {row}")
        for row in new[entry]:
            if row not in was:
                print(f"  + {row}")
    GOLDEN.write_text(dump(new))
    print(f"{len(changed)} of {len(ENTRIES)} entries changed; wrote {GOLDEN}")
