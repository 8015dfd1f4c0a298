"""Regression corpus: saved fuzz instances replayed on every test run.

``tests/corpus/`` holds one JSON file per instance — minimized failing
inputs from past fuzz campaigns plus hand-kept shape edge cases (empty
output, single-tuple relations, all-zero annotations, two-phase plan).
``repro fuzz --corpus <dir>`` and ``tests/test_fuzz.py`` replay every
file through the full differential + obliviousness check, so once an
instance has broken the pipeline it can never break it silently again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Tuple

from .generator import QueryInstance

__all__ = ["default_corpus_dir", "iter_corpus"]


def default_corpus_dir() -> Path:
    """``tests/corpus`` relative to the repository root (next to the
    installed package's source tree when running from a checkout)."""
    return (
        Path(__file__).resolve().parent.parent.parent.parent
        / "tests"
        / "corpus"
    )


def iter_corpus(
    directory: str = None,
) -> Iterator[Tuple[Path, QueryInstance]]:
    """Yield ``(path, instance)`` for every corpus JSON file, sorted by
    name for deterministic replay order."""
    root = Path(directory) if directory else default_corpus_dir()
    if not root.is_dir():
        return
    for path in sorted(root.glob("*.json")):
        blob = json.loads(path.read_text())
        yield path, QueryInstance.from_json(blob.get("instance", blob))
