"""OBL001 fixtures that MUST be flagged (linted as if under repro/mpc)."""


def branch_on_secret(ctx, sv):
    plain = sv.reconstruct()
    if plain[0] > 0:  # secret-dependent branch
        return 1
    return 0


def index_by_secret(ctx, table, sv):
    idx = sv.reconstruct()
    return table[idx[0]]  # secret-dependent memory access


def loop_on_secret(ctx, sv):
    total = sv.reconstruct().sum()
    while total > 0:  # secret-dependent loop bound
        total -= 1
    return total


def filter_by_secret(ctx, rows, sv):
    flags = sv.reconstruct()
    return [r for i, r in enumerate(rows) if flags[i]]  # length leaks


def share_attr_branch(ctx, sv):
    if sv.alice[0]:  # a share value IS the secret source
        return 1
    return 0


def real_thunk_indexes_by_secret(ctx, ot, counts, table, sv):
    # Only ``ideal=`` is SIMULATED-side; the REAL thunk stays checked.
    return garbled_call(  # noqa: F821 - fixture
        ctx, ot, counts, len(sv), n_masked=1,
        real=lambda: table[sv.reconstruct()],
        ideal=lambda: (sv.reconstruct(), None),
    )
