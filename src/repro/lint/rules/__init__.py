"""Rule implementations — importing this package registers them all."""

from . import (  # noqa: F401
    determinism,
    leakage_rules,
    randomness,
    taint_rules,
)
