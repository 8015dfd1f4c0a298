"""OBL007 fixtures that MUST be flagged (linted as if under repro/mpc)."""


@leaks("join_pattern:parent")  # noqa: F821 - fixture
def rotted_contract(ctx, x):
    # nothing in this body (or its call closure) can reveal a join
    # pattern: the leak was removed but the declaration stayed
    return x + 1


@leaks("bogus:atom")  # noqa: F821 - fixture
def unknown_atom(ctx, shares):
    return reveal_vector(ctx, shares, label="out")  # noqa: F821 - fixture
