"""Rule implementations — importing this package registers them all."""

from . import determinism, randomness, taint_rules  # noqa: F401
