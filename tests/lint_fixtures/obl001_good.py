"""OBL001 fixtures that must NOT be flagged (linted as if under repro/mpc)."""


def branch_on_shape(ctx, sv):
    n = len(sv)  # len() is a declassifier: shapes are public
    if n > 0:
        return 1
    return 0


def branch_on_revealed(ctx, sv):
    plain = reveal_vector(ctx, sv, "alice")  # noqa: F821 - fixture
    if plain[0] > 0:  # designated reveal: public by protocol design
        return 1
    return 0


def simulated_cleartext(ctx, sv):
    if ctx.mode == Mode.SIMULATED:  # noqa: F821 - fixture
        plain = sv.reconstruct()
        if plain[0] > 0:  # simulation computes the functionality
            return 1
        return 0
    return run_real(ctx, sv)  # noqa: F821 - fixture


def public_marker(ctx, sv):
    hist = sv.reconstruct()
    bound = int(hist.max())  # oblint: public — bound is part of the revealed output
    if bound > 0:
        return 1
    return 0


def index_by_public(ctx, table, sv):
    out = []
    for i in range(len(sv)):
        out.append(table[i])  # public loop counter, fine
    return out


def ideal_thunks_compute_on_cleartext(ctx, ot, counts, circuit, bits, sv):
    """The seam evaluates ``ideal`` in SIMULATED mode only — lambda or
    named thunk, it may branch and index on the cleartext."""

    def ideal():
        plain = sv.reconstruct()
        out = plain.copy()
        out[plain == 0] = 7
        return out, None

    garbled_call(  # noqa: F821 - fixture
        ctx, ot, counts, len(sv), n_masked=1,
        real=lambda: (circuit, bits, bits), ideal=ideal,
    )
    return garbled_call(  # noqa: F821 - fixture
        ctx, ot, counts, len(sv), n_masked=1,
        real=lambda: (circuit, bits, bits),
        ideal=lambda: (sv.reconstruct()[sv.reconstruct() != 0], None),
    )
