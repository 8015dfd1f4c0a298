"""Scalar reference implementations of the vectorised hot paths.

The batch kernels in :mod:`repro.mpc.batch` and the SoftSpokenOT
extension built on them replaced one-value-at-a-time loops, and so did
the level-wise Beneš router and permutation staging of
:mod:`repro.mpc.waksman` and :mod:`repro.mpc.oep`, and the level-wise
three-halves garbler and evaluator of
:mod:`repro.mpc.circuits.garbling`.  The scalar forms
live on here, one block, pair, tree or switch at a time, and the
differential tests in ``tests/test_batch_kernels.py``,
``tests/test_waksman.py``, ``tests/test_oep.py``
and ``tests/test_garbling.py`` pin the vectorised code against them:
identical outputs and byte-identical transcript fingerprints.  The
templates that keep a party's plaintext out of the circuit — the zero
test, the merge chain over Bob's shares, the evaluator-weighted row —
have one-instance forms here too, pinned through REAL garbling by
``tests/test_plaintext_operands.py``; so does the OEP's one-word
switch, pinned against Bob's staging and Alice's replay by
``tests/test_oep.py``.  The protocol-level consumers — Gilboa, the
switch network as a whole — have no twin: their tests pin semantics
and REAL == SIMULATED fingerprints instead.

Nothing in ``src/`` imports this module; it exists only as the ground
truth for tests and for line-by-line auditing of the batched code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.mpc.batch import FIXED_KEY
from repro.mpc.context import ALICE, BOB
from repro.mpc.costs import SOFTSPOKEN_K as K
from repro.mpc.ot import Pair, SoftSpokenExtension, _kdf

__all__ = [
    "stream_xor",
    "tccr",
    "tweak",
    "prg_bits",
    "pad",
    "ReferenceSoftSpokenExtension",
    "three_halves_garble",
    "three_halves_evaluate",
    "zero_test",
    "merge_sum_chain",
    "evaluator_row",
    "route_swaps",
    "switch",
    "ep_permutations",
    "copy_pass",
]

_MASK128 = (1 << 128) - 1

#: AES-128 under the public key, one block per ``update``: ECB keeps no
#: state between blocks, so one encryptor serves every call.
_FIXED_AES = Cipher(algorithms.AES(FIXED_KEY), modes.ECB()).encryptor()


def stream_xor(key: bytes, data: bytes) -> bytes:
    """The Chou–Orlandi ``_stream_xor``: byte-at-a-time XOR against a
    block-by-block SHA-256 keystream."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        out.extend(_kdf(key, counter.to_bytes(8, "little")))
        counter += 1
    return bytes(a ^ b for a, b in zip(data, out[: len(data)]))


def tccr(x: bytes, tweak: bytes) -> bytes:
    """``H(x, t) = AES_k(2x ^ t) ^ 2x`` for one 16-byte block, with the
    doubling in ``GF(2^128)`` (modulus ``x^128 + x^7 + x^2 + x + 1``) on
    the little-endian integer of the block written out."""
    v = int.from_bytes(x, "little")
    doubled = ((v << 1) & _MASK128) ^ (0x87 if v >> 127 else 0)
    block = (doubled ^ int.from_bytes(tweak, "little")).to_bytes(16, "little")
    cipher = int.from_bytes(_FIXED_AES.update(block), "little")
    return (cipher ^ doubled).to_bytes(16, "little")


def tweak(batch: int, row: int, index: int) -> bytes:
    """The 16-byte tweak of :func:`repro.mpc.batch.tweaks`."""
    return batch.to_bytes(8, "little") + ((row << 32) | index).to_bytes(
        8, "little"
    )


def prg_bits(seed: bytes, n_bits: int, batch: int, row: int) -> np.ndarray:
    """Stream ``row`` of a column PRG (a SoftSpokenOT leaf, a KKRT
    column), one block at a time:
    ``H(seed, (batch, row, c))`` for ``c = 0, 1, ...``."""
    raw = b"".join(
        tccr(seed, tweak(batch, row, c)) for c in range((n_bits + 127) // 128)
    )
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n_bits]


def pad(row: bytes, batch: int, j: int, width: int) -> bytes:
    """OT ``j``'s ``width``-byte pad under extension row ``row``."""
    blocks = b"".join(
        tccr(row, tweak(batch, j, c)) for c in range((width + 15) // 16)
    )
    return blocks[:width]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class ReferenceSoftSpokenExtension(SoftSpokenExtension):
    """SoftSpokenOT with per-block GGM trees, a per-leaf PRG, a per-OT
    combine and a per-pair transfer loop, every hash one :func:`tccr`
    block.

    Shares the base phase with the production class and re-derives
    everything after it from the base pairs: the owner's first-level
    nodes and the punctured party's level sums off its path.
    """

    def _node_children(self, i: int, level: int, p: int, node: bytes):
        """Both children of node ``p`` at ``level`` of tree ``i``."""
        row = (i << K) + (1 << level) + p
        batch = self._tree_batch
        return [tccr(node, tweak(batch, row, side)) for side in (0, 1)]

    def owner_leaves(self, i: int) -> List[bytes]:
        """Tree ``i``'s ``2^k`` leaves, grown from its first level."""
        nodes = [bytes(node) for node in self._level1[i]]
        for level in range(1, K):
            nodes = [
                child
                for p, node in enumerate(nodes)
                for child in self._node_children(i, level, p, node)
            ]
        return nodes

    def punctured_leaves(self, i: int) -> List[Optional[bytes]]:
        """Tree ``i``'s leaves but the one at ``Delta_i`` (``None``),
        from the level sums off its path: each level's sibling of the
        path is its sum minus the level's other known nodes of that
        parity."""
        delta = int(self.punctured[i])
        nodes: List[Optional[bytes]] = [None, None]
        for level in range(1, K + 1):
            if level > 1:
                nodes = [
                    child
                    for p, node in enumerate(nodes)
                    for child in (
                        [None, None]
                        if node is None
                        else self._node_children(i, level - 1, p, node)
                    )
                ]
            sibling = (delta >> (K - level)) ^ 1
            acc = bytes(self._received[i, level - 1])
            for p, node in enumerate(nodes):
                if p % 2 == sibling % 2 and node is not None:
                    acc = _xor(acc, node)
            nodes[sibling] = acc
        return nodes

    def _receiver_rows(self, m, r, batch):
        n_trees = self.kappa // K
        t = np.zeros((m, self.kappa), dtype=np.uint8)
        c = np.zeros((n_trees, m), dtype=np.uint8)
        for i in range(n_trees):
            streams = [
                prg_bits(leaf, m, batch, (i << K) + x).tolist()
                for x, leaf in enumerate(self.owner_leaves(i))
            ]
            for j in range(m):
                u = v = 0
                for x, g in enumerate(streams):
                    if g[j]:
                        u, v = u ^ 1, v ^ x
                c[i, j] = u ^ r[j]
                for b in range(K):
                    t[j, K * i + b] = (v >> b) & 1
        return np.packbits(t, axis=1), np.packbits(c, axis=1)

    def _sender_rows(self, c, m, batch):
        bits = np.unpackbits(c, axis=1)
        q = np.zeros((m, self.kappa), dtype=np.uint8)
        for i in range(self.kappa // K):
            delta = int(self.punctured[i])
            streams = {
                x: prg_bits(leaf, m, batch, (i << K) + x).tolist()
                for x, leaf in enumerate(self.punctured_leaves(i))
                if leaf is not None
            }
            for j in range(m):
                w = delta if bits[i, j] else 0
                for x, g in streams.items():
                    if g[j]:
                        w ^= x ^ delta
                for b in range(K):
                    q[j, K * i + b] = (w >> b) & 1
        return np.packbits(q, axis=1)

    def transfer(
        self, pairs: Sequence[Pair], choices: Sequence[int]
    ) -> List[bytes]:
        if len(pairs) != len(choices):
            raise ValueError("one choice bit per message pair is required")
        if not pairs:
            return []
        ctx = self.ctx
        m = len(pairs)
        r = np.asarray(choices, dtype=np.uint8) & 1
        q_rows, t_rows, _ = self._column_phase(m, r)
        s_packed = self.delta
        pad_batch = ctx.tweak_batch()

        out: List[bytes] = []
        total = 0
        for j, (m0, m1) in enumerate(pairs):
            if len(m0) != len(m1):
                raise ValueError("OT messages in a pair must be equal-length")
            w = len(m0)
            qj = q_rows[j].tobytes()
            qj_s = (q_rows[j] ^ s_packed).tobytes()
            y0 = _xor(m0, pad(qj, pad_batch, j, w))
            y1 = _xor(m1, pad(qj_s, pad_batch, j, w))
            total += len(y0) + len(y1)
            # T_j equals Q_j or Q_j ^ s as r_j says: its pad opens y_{r_j}.
            tj = t_rows[j].tobytes()
            out.append(_xor(y1 if r[j] else y0, pad(tj, pad_batch, j, w)))
        ctx.send(BOB, total, "ot/ext/ciphertexts")
        return out


# -- three-halves garbling, one AND gate at a time ------------------------

_MASK64 = (1 << 64) - 1


def _halves(label: bytes) -> Tuple[int, int]:
    v = int.from_bytes(label, "little")
    return v & _MASK64, v >> 64


def _label(left: int, right: int) -> bytes:
    return (left | right << 64).to_bytes(16, "little")


def _hash3(label: bytes, batch: int, row: int, index: int) -> Tuple[int, int]:
    """``(half, pad bits)``: the low 64 bits of ``H(label)`` and bits
    0-1 of its high word."""
    left, right = _halves(tccr(label, tweak(batch, row, index)))
    return left, right & 3


def _mask(bit: int) -> int:
    return _MASK64 if bit & 1 else 0


def _sliced(i: int, j: int, k1: int, k2: int, a: bytes, b: bytes):
    """``R_ij . (A_L, A_R, B_L, B_R)`` for ``R_ij = P_ij ^ k1 E1 ^ k2
    E2``, entry by entry: ``P_ij = [0 0 0 j; (1 ^ i) 0 0 0]``, ``E1 =
    [1 1 1 0; 1 0 0 1]``, ``E2 = [1 0 0 1; 0 1 1 1]``."""
    rows = (
        ((0, 0, 0, j), (1, 1, 1, 0), (1, 0, 0, 1)),
        ((1 ^ i, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1)),
    )
    words = _halves(a) + _halves(b)
    out = []
    for p, e1, e2 in rows:
        acc = 0
        for c in range(4):
            if p[c] ^ (k1 & e1[c]) ^ (k2 & e2[c]):
                acc ^= words[c]
        out.append(acc)
    return out


def three_halves_evaluate(
    a: bytes, b: bytes, g: Sequence[int], control: int,
    batch: int, row: int, k: int,
) -> bytes:
    """The evaluator's output label of AND ``k`` of instance ``row``
    from her labels ``a``, ``b``, the half-ciphertexts ``g`` and the
    control nibble (bits: ``i``-coefficient of ``k1``, of ``k2``, then
    the ``j``-coefficients)."""
    i, j = a[0] & 1, b[0] & 1
    ha, pa = _hash3(a, batch, row, 3 * k)
    hb, pb = _hash3(b, batch, row, 3 * k + 1)
    hx, _ = _hash3(_xor(a, b), batch, row, 3 * k + 2)
    k1 = (pa ^ pb ^ (i * control) ^ (j * (control >> 2))) & 1
    k2 = ((pa ^ pb ^ (i * control) ^ (j * (control >> 2))) >> 1) & 1
    left, right = _sliced(i, j, k1, k2, a, b)
    c_left = ha ^ hx ^ (_mask(i) & g[0]) ^ (_mask(j) & g[2]) ^ left
    c_right = hb ^ hx ^ (_mask(j) & g[1]) ^ (_mask(i) & g[2]) ^ right
    return _label(c_left, c_right)


def three_halves_garble(
    a0: bytes, b0: bytes, delta: bytes, batch: int, row: int, k: int
) -> Tuple[bytes, Tuple[int, int, int], int]:
    """``(C0, (G0, G1, G2), control)`` of AND ``k`` of instance ``row``
    from its input zero-labels: the evaluator's equation at colours
    ``(i, j)`` written out for ``(0, 0)``, ``(1, 0)`` and ``(0, 1)`` and
    solved, every label hashed on its own."""
    alpha, beta = a0[0] & 1, b0[0] & 1
    a_bar = _xor(a0, delta) if alpha else a0
    b_bar = _xor(b0, delta) if beta else b0
    x_bar = _xor(a_bar, b_bar)
    labels = {
        "a": (a_bar, _xor(a_bar, delta)),
        "b": (b_bar, _xor(b_bar, delta)),
        "x": (x_bar, _xor(x_bar, delta)),
    }
    h = {
        name: [_hash3(w, batch, row, 3 * k + j) for w in pair]
        for j, (name, pair) in enumerate(labels.items())
    }
    # Pads of (k1, k2) at (i, j): pa[i] ^ pb[j]; its constant term dices.
    pa = [h["a"][c][1] for c in (0, 1)]
    pb = [h["b"][c][1] for c in (0, 1)]
    rho = pa[0] ^ pb[0]
    coef = {
        "i1": beta, "i2": alpha ^ beta, "j1": alpha ^ beta, "j2": 1 ^ alpha
    }
    ci, cj = pa[0] ^ pa[1], pb[0] ^ pb[1]
    control = (
        ((ci & 1) ^ coef["i1"])
        | (((ci >> 1) ^ coef["i2"]) & 1) << 1
        | (((cj & 1) ^ coef["j1"])) << 2
        | (((cj >> 1) ^ coef["j2"]) & 1) << 3
    )
    dl, dr = _halves(delta)

    def target(i: int, j: int) -> Tuple[int, int]:
        k1 = (rho & 1) ^ (coef["i1"] & i) ^ (coef["j1"] & j)
        k2 = (rho >> 1) ^ (coef["i2"] & i) ^ (coef["j2"] & j)
        left, right = _sliced(
            i, j, k1, k2, labels["a"][i], labels["b"][j]
        )
        both = _mask((i ^ alpha) & (j ^ beta))
        hx = h["x"][i ^ j][0]
        return (
            h["a"][i][0] ^ hx ^ left ^ (both & dl),
            h["b"][j][0] ^ hx ^ right ^ (both & dr),
        )

    t00, t10, t01 = target(0, 0), target(1, 0), target(0, 1)
    g = (t10[0] ^ t00[0], t01[1] ^ t00[1], t10[1] ^ t00[1])
    return _label(*t00), g, control


# -- plaintext operands outside the circuit, one instance at a time -----


def zero_test(x1: int, neg_x2: int, ell: int) -> int:
    """The zero test's circuit: 1 iff some bit of Alice's share ``x1``
    differs from Bob's negated share ``neg_x2`` — ``x1 + x2 != 0``."""
    return int(any((x1 >> i ^ neg_x2 >> i) & 1 for i in range(ell)))


def merge_sum_chain(
    same_as_next: Sequence[bool], bob: Sequence[int], ell: int
) -> List[int]:
    """The merge chain over Bob's shares, row by row as the circuit
    runs it: row ``i`` outputs the running sum ``z`` where tuple ``i``
    ends its group and 0 elsewhere, and carries ``z`` into the next
    tuple's sum only within a group."""
    mask = (1 << ell) - 1
    z, out = bob[0], []
    for same, nxt in zip(same_as_next, bob[1:]):
        out.append(0 if same else z)
        z = ((z if same else 0) + nxt) & mask
    return out + [z]


def evaluator_row(
    colour: int, permute: int, x: int, pad: int, ell: int
) -> Tuple[int, int]:
    """One evaluator row's ``(Alice's, Bob's)`` shares: the wire carries
    ``colour ^ permute``, Alice holds the weight ``x``, and in the C-OT
    Bob chooses by ``permute`` between Alice's pad and the pad plus her
    correlation ``(1 - 2 colour) x``."""
    mask = (1 << ell) - 1
    chosen = pad + (1 - 2 * colour) * x if permute else pad
    return (colour * x - pad) & mask, chosen & mask


# -- Beneš routing, one sub-network at a time ----------------------------


def route_swaps(perm: List[int]) -> List[Tuple[bool, ...]]:
    """Per-layer switch settings realising ``wire[perm[i]] <- wire[i]``
    by the recursive looping algorithm, generalised to any size by
    Chang & Melhem's split: colour every input with the half it enters
    by a graph walk, then recurse into both halves.  The layers of
    parallel sub-networks merge by depth, top first; a two-wire
    sub-network is one switch, placed as its own output layer; empty
    layers are dropped."""
    ins, outs = _route(perm)
    return [tuple(layer) for layer in ins + outs[::-1] if layer]


def _route(perm: List[int]) -> Tuple[List[List[bool]], List[List[bool]]]:
    """A sub-network's input- and output-layer settings, by depth."""
    n = len(perm)
    if n < 2:
        return [], []
    if n == 2:
        return [[]], [[perm[0] == 1]]
    half = n // 2
    inv = [0] * n
    for i, t in enumerate(perm):
        inv[t] = i

    def partners(i: int) -> List[int]:
        # Its input switch's other input, and the input that targets
        # its output switch's other output; the odd last input and
        # output wires bypass the switches and have no partner.
        found = [i ^ 1] if i ^ 1 < n else []
        if perm[i] ^ 1 < n:
            found.append(inv[perm[i] ^ 1])
        return found

    # 2-colouring: subnet[i] in {0 (top), 1 (bottom)} for each input.
    subnet = [-1] * n

    def colour(start: int, c: int) -> None:
        todo = [(start, c)]
        while todo:
            i, c = todo.pop()
            if subnet[i] != -1:
                assert subnet[i] == c, "constraints are 2-colourable"
                continue
            subnet[i] = c
            todo.extend((j, c ^ 1) for j in partners(i))

    if n % 2:  # the bypass wire enters the bottom half
        colour(n - 1, 1)
    for start in range(n):
        if subnet[start] == -1:
            colour(start, 0)

    in_swaps: List[bool] = []
    top_perm: List[int] = []
    bot_perm: List[int] = []
    for p in range(half):
        a, b = 2 * p, 2 * p + 1
        swap = subnet[a] == 1
        in_swaps.append(swap)
        top_in, bot_in = (b, a) if swap else (a, b)
        top_perm.append(perm[top_in] // 2)
        bot_perm.append(perm[bot_in] // 2)
    if n % 2:
        bot_perm.append(perm[n - 1] // 2)

    out_swaps: List[bool] = []
    for q in range(half):
        # The element reaching output switch q from the top subnet is the
        # input with subnet colour 0 whose target lies in output pair q.
        top_elem = next(
            i for i in (inv[2 * q], inv[2 * q + 1]) if subnet[i] == 0
        )
        out_swaps.append(perm[top_elem] == 2 * q + 1)

    top_ins, top_outs = _route(top_perm)
    bot_ins, bot_outs = _route(bot_perm)
    depth = max(len(top_ins), len(bot_ins))

    def merge(top: List[List[bool]], bot: List[List[bool]]):
        top = top + [[]] * (depth - len(top))
        bot = bot + [[]] * (depth - len(bot))
        return [t + b for t, b in zip(top, bot)]

    return (
        [in_swaps] + merge(top_ins, bot_ins),
        [out_swaps] + merge(top_outs, bot_outs),
    )


# -- one one-word switch --------------------------------------------------


def switch(
    a: Tuple[int, int], b: Tuple[int, int], s: int, p0: int, mask: int
) -> Tuple[int, Tuple[int, int], Tuple[int, int]]:
    """One switch on wires ``a`` and ``b``, each an ``(alice, bob)``
    share pair, with Alice's bit ``s`` and Bob's C-OT 0-pad ``p0``: Bob
    sends ``m1 = p0 + (b_B - a_B)``, Alice receives ``v = p0`` or
    ``m1`` by ``s``; returns ``m1`` and the new share pairs of ``a``
    and ``b``, which hold ``a + s(b - a)`` and ``b - s(b - a)``."""
    (a_alice, a_bob), (b_alice, b_bob) = a, b
    m1 = (p0 + b_bob - a_bob) & mask
    v = m1 if s else p0
    d = s * (b_alice - a_alice)
    return (
        m1,
        ((a_alice + d + v) & mask, (a_bob - p0) & mask),
        ((b_alice - d - v) & mask, (b_bob + p0) & mask),
    )


# -- the extended permutation's networks, element by element -------------


def ep_permutations(
    xi: Sequence[int], n_work: int
) -> Tuple[List[int], List[int], List[bool]]:
    """``(perm1, perm2, copy_bits)`` of the extended permutation ``xi``
    built with lists: targets grouped by source, ``perm1`` (over
    ``n_work`` wires) sends each used source to the head of its block
    and every unused one to the lowest free slot, ``perm2`` (over the
    ``len(xi)`` wires the blocks fill) sends block member ``g`` to its
    target."""
    n_out = len(xi)
    order = sorted(range(n_out), key=lambda i: (xi[i], i))
    perm1 = [-1] * n_work
    copy_bits = [False] * n_out
    prev_source = None
    for g, target in enumerate(order):
        s = xi[target]
        if s != prev_source:
            perm1[s] = g
            prev_source = s
        else:
            copy_bits[g] = True
    used = set(p for p in perm1 if p >= 0)
    free_slots = iter(g for g in range(n_work) if g not in used)
    for s in range(n_work):
        if perm1[s] == -1:
            perm1[s] = next(free_slots)
    return perm1, order, copy_bits


def copy_pass(
    alice: Sequence[int],
    copy_bits: Sequence[bool],
    vals: Sequence[int],
    mask: int,
) -> List[int]:
    """Alice's replication pass, left to right: wire ``i >= 1`` takes
    its left neighbour's new value if ``copy_bits[i - 1]`` else its own,
    plus her OT output ``vals[i - 1]``, mod ``mask + 1``."""
    out = [int(a) for a in alice]
    for i in range(1, len(out)):
        kept = out[i - 1] if copy_bits[i - 1] else out[i]
        out[i] = (kept + int(vals[i - 1])) & mask
    return out
