"""OBL001 fixtures for the correlated-OT entry point that MUST be
flagged (linted as if under repro/mpc): the batch's pads and the
receiver's outputs are secret, whatever feeds them."""


def branch_on_received_message(ctx, ot, choices, m1):
    cot = ot.correlated(choices, [(len(choices), 16)])
    got = cot.finish([m1])
    if got[0][0, 0]:  # the receiver's chosen message is secret
        return 1
    return 0


def branch_on_sender_pad(ctx, ot, choices):
    cot = ot.correlated(choices, [(len(choices), 4)])
    if cot.p0[0][0, 0] & 1:  # the sender's 0-message is secret
        return 1
    return 0


def index_by_correction(ctx, ot, table, sv, m1):
    cot = ot.correlated(sv.alice & 1, [(len(sv), 4)])  # tainted choices
    recv = cot.finish([m1])[0]
    return table[recv[0, 0]]  # secret-dependent memory access
