"""OBL006 fixtures that must NOT be flagged (linted as if under repro/mpc)."""


@leaks("opened:result")  # noqa: F821 - fixture
def open_with_decorator(ctx, shares):  # oblint: secret-params=shares
    return reveal_vector(ctx, shares, label="out")  # noqa: F821 - fixture


def open_untainted(ctx, sizes):
    # revealing untainted (public) values is not a leakage event
    return reveal_vector(ctx, sizes, label="sizes")  # noqa: F821 - fixture


@leaks("join_pattern:parent")  # noqa: F821 - fixture
def match_keys(ctx, keys, other):
    return dh_oprf_match(ctx, keys, other, label="m")  # noqa: F821 - fixture


@leaks("support:result")  # noqa: F821 - fixture
def drop_dangling(ctx, flags_shares):  # oblint: secret-params=flags_shares
    return reveal_nonzero_flags(ctx, flags_shares, label="nz")  # noqa: F821
