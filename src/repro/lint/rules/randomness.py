"""OBL003: randomness discipline.

Protocol randomness must come from the context's deterministic,
metered source (``ctx.rng`` / ``ctx.random_bytes`` /
``ctx.random_ring_vector``): the obliviousness audit replays runs from
a seed, and any draw from global, unseeded randomness makes transcripts
unreproducible and smuggles an unmetered entropy channel into the
protocol.

Flagged inside ``mpc/``, ``core/``, ``exec/``:

* ``import random`` / ``import secrets`` and ``from`` imports of
  either (the import is the finding; calls through the binding are
  not reported again);
* any ``np.random.*`` use except ``default_rng(seed)`` with an explicit
  seed argument (a seeded generator is deterministic and replayable);
* ``os.urandom`` (OS entropy bypasses the context RNG).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..project import Project, SourceFile
from ..registry import Rule, register
from ..taint import dotted_name
from ..violations import Violation


@register
class RandomnessRule(Rule):
    code = "OBL003"
    name = "randomness-discipline"
    description = (
        "Protocol randomness comes from the context RNG, not global "
        "random/np.random/os entropy."
    )

    def check_file(
        self, src: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if not src.in_protocol_dirs:
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in ("random", "secrets"):
                        yield self.make(
                            src, node.lineno, node.col_offset,
                            f"import of {alias.name!r}: draw "
                            "protocol randomness from ctx.rng / "
                            "ctx.random_bytes instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] in (
                    "random",
                    "secrets",
                ):
                    yield self.make(
                        src, node.lineno, node.col_offset,
                        f"import from {node.module!r}: draw protocol "
                        "randomness from the context RNG instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(src, node)

    def _check_call(self, src: SourceFile, node: ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[0] in ("np", "numpy") and len(parts) >= 3 and (
            parts[1] == "random"
        ):
            fn = parts[2]
            if fn == "default_rng" and node.args:
                return  # explicitly seeded: deterministic, replayable
            if fn == "Generator":
                return  # type reference, not a draw
            yield self.make(
                src, node.lineno, node.col_offset,
                f"global numpy randomness ({dotted}): use ctx.rng "
                "(or a seeded default_rng for public layout "
                "simulations)",
            )
        elif dotted == "os.urandom":
            yield self.make(
                src, node.lineno, node.col_offset,
                "os.urandom bypasses the context RNG (unmetered, "
                "unreplayable entropy)",
            )
