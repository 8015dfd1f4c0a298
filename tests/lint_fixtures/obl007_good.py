"""OBL007 fixtures that must NOT be flagged (linted as if under repro/mpc)."""


@leaks("opened:result")  # noqa: F821 - fixture
def direct_witness(ctx, shares):
    return reveal_vector(ctx, shares, label="out")  # noqa: F821 - fixture


@leaks("opened:result")  # noqa: F821 - fixture
def closure_witness(ctx, shares):
    # witnessed transitively through the resolved callee
    return direct_witness(ctx, shares)


def reveal_nonzero_flags(ctx, shares, label):
    # a sink-named primitive witnesses its own atom intrinsically
    # (the real one hides the reveal behind mode dispatch)
    return _reveal_impl(ctx, shares, label)  # noqa: F821 - fixture


@leaks("support:result")  # noqa: F821 - fixture
def support_wrapper(ctx, shares):
    return reveal_nonzero_flags(ctx, shares, label="nz")
