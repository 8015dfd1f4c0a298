"""The SMCQL-style monolithic garbled-circuit baseline (Section 8.2).

The paper compares against a garbled circuit that materialises the full
Cartesian product of the joined relations and applies the join
conditions — the data-oblivious strategy a generic circuit compiler is
forced into, with ``O(prod |R_i|)`` cost.  As in the paper, the baseline
is *run* only at tiny scale and *extrapolated* elsewhere: "this is
actually very accurate, since the cost is proportional to the size of
the circuit, which we know exactly".

``cartesian_gc_cost`` computes the exact circuit size; ``gc_gate_rate``
measures this machine's garble+evaluate throughput once;
``run_cartesian_gc`` actually executes the baseline on small inputs
(used to validate the model and for the smallest benchmark scale).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..mpc.batch import bits_to_words, words_to_bits
from ..mpc.circuits import CircuitBuilder
from ..mpc.context import ALICE, Context, Mode
from ..mpc.costs import CircuitCounts, circuit_counts, cot_bytes, garbled_bytes
from ..mpc.engine import Engine
from ..mpc.ot import SoftSpokenExtension
from ..mpc.params import DEFAULT_PARAMS
from ..mpc.yao import garbled_call
from ..relalg.relation import AnnotatedRelation

__all__ = [
    "GcBaselineCost",
    "cartesian_gc_cost",
    "gc_gate_rate",
    "run_cartesian_gc",
]

#: Join keys are compared at this width in the baseline circuit.
KEY_BITS = 32


@dataclass(frozen=True)
class GcBaselineCost:
    """Exact circuit size and its cost projection."""

    combos: int
    and_gates: int
    input_bits: int
    comm_bytes: int
    est_seconds: float


def per_combo_and_gates(n_conditions: int, key_bits: int = KEY_BITS) -> int:
    """AND gates to test one Cartesian combination: one equality per
    join condition plus the conjunction tree."""
    eq_gates = key_bits - 1  # AND-tree over key_bits XNOR bits
    return n_conditions * eq_gates + max(0, n_conditions - 1)


def cartesian_gc_cost(
    sizes: Sequence[int],
    n_conditions: int,
    gate_rate: float,
    key_bits: int = KEY_BITS,
    runs: int = 1,
) -> GcBaselineCost:
    """Exact size/cost of the baseline circuit for relations of the
    given sizes (``runs`` > 1 models decomposed queries that pay the
    baseline several times, e.g. Q9's 50 sub-queries).

    Its bytes are one garbled batch priced by
    :func:`~repro.mpc.costs.garbled_bytes` on the paper's parameters:
    the tables, the seed, and the ``u`` of the label OTs.  The model has
    no owner split, so every input bit is charged as an evaluator bit
    (a label OT); its output, a count, adds a few decode bits that the
    model leaves out with the adder that produces it."""
    combos = 1
    for s in sizes:
        combos *= int(s)
    and_gates = runs * combos * per_combo_and_gates(n_conditions, key_bits)
    input_bits = runs * sum(int(s) * key_bits for s in sizes)
    sizes = garbled_bytes(
        CircuitCounts(and_gates, input_bits, 0, 0, 0), 1, DEFAULT_PARAMS.ell
    )
    label_u, _ = cot_bytes(DEFAULT_PARAMS.kappa, [(sizes.label_ots, 0)])
    comm = sizes.tables + sizes.seed + sizes.decode + label_u
    return GcBaselineCost(
        combos=runs * combos,
        and_gates=and_gates,
        input_bits=input_bits,
        comm_bytes=comm,
        est_seconds=and_gates / gate_rate,
    )


@functools.lru_cache(maxsize=1)
def gc_gate_rate() -> float:
    """AND gates per second for garble+evaluate on this machine,
    measured once on a ~20k-gate circuit (the paper's extrapolation
    methodology, applied to our substrate).  Alice's 32 input labels
    come from the OT extension, whose one-time base phase runs before
    the timer starts: it does not scale with the circuit, and the rate
    multiplies a gate count."""
    b = CircuitBuilder()
    ell = 32
    xs = b.alice_input_bits(ell)
    ys = b.bob_input_bits(ell)
    out = b.mul(xs, ys)
    for _ in range(18):
        out = b.mul(out, ys)
    circuit = b.build(out)
    ctx = Context(Mode.REAL, seed=0)
    zero = np.zeros((1, ell), dtype=np.uint8)
    ot = SoftSpokenExtension(ctx)
    ot.labels(1, zero[0, :1])  # the base phase
    start = time.perf_counter()
    garbled_call(
        ctx, ot, circuit_counts(circuit), 1,
        real=lambda: (circuit, zero, zero + 1),
        ideal=lambda: (None, zero),  # 0 * y**19
    )
    elapsed = time.perf_counter() - start
    return circuit.and_count / elapsed


def run_cartesian_gc(
    engine: Engine,
    relations: Dict[str, Tuple[AnnotatedRelation, str]],
    key_bits: int = KEY_BITS,
) -> int:
    """Actually evaluate the baseline: one monolithic circuit over the
    full Cartesian product computing the join-*count* (annotations are
    ignored, like the paper's baseline, which drops every operator but
    the join conditions).  Returns the count, revealed to Alice.

    Only feasible for tiny inputs — that is the point.
    """
    names = list(relations)
    rels = [relations[n][0] for n in names]
    owners = [relations[n][1] for n in names]
    for rel in rels:
        for t in rel.tuples:
            for v in t:
                if not isinstance(v, (int, np.integer)):
                    raise TypeError(
                        "the baseline circuit joins integer keys only"
                    )

    # Join conditions: every attribute shared by two relations.
    conditions: List[Tuple[int, str, int, str]] = []
    for i in range(len(rels)):
        for j in range(i + 1, len(rels)):
            for attr in rels[i].attributes:
                if attr in rels[j].attributes:
                    conditions.append((i, attr, j, attr))

    b = CircuitBuilder()
    wires: List[List[List[int]]] = []  # per relation, per tuple, per attr
    for rel, owner in zip(rels, owners):
        rel_wires = []
        for _t in rel.tuples:
            attr_words = []
            for _a in rel.attributes:
                bits = (
                    b.alice_input_bits(key_bits)
                    if owner == ALICE
                    else b.bob_input_bits(key_bits)
                )
                attr_words.append(bits)
            rel_wires.append(attr_words)
        wires.append(rel_wires)

    # Count matching combinations with a ripple-carry accumulator.
    count_bits = 32
    acc = b.constant_word(0, count_bits)
    indices = [0] * len(rels)

    def combos():
        while True:
            yield tuple(indices)
            for pos in range(len(rels) - 1, -1, -1):
                indices[pos] += 1
                if indices[pos] < len(rels[pos]):
                    break
                indices[pos] = 0
            else:
                return

    if all(len(r) > 0 for r in rels):
        for combo in combos():
            match = None
            for (i, attr_i, j, attr_j) in conditions:
                wi = wires[i][combo[i]][rels[i].attributes.index(attr_i)]
                wj = wires[j][combo[j]][rels[j].attributes.index(attr_j)]
                eq = b.eq(wi, wj)
                match = eq if match is None else b.and_(match, eq)
            one_bit = match if match is not None else b.constant(1)
            acc = b.add(
                acc, [one_bit] + [b.constant(0)] * (count_bits - 1)
            )
    circuit = b.build(acc)

    # One instance: each party's keys, relation by relation, as one row.
    keys: Dict[bool, List[int]] = {True: [], False: []}
    for rel, owner in zip(rels, owners):
        keys[owner == ALICE] += [
            int(v) % (1 << key_bits) for t in rel.tuples for v in t
        ]
    alice_bits, bob_bits = (
        words_to_bits(np.asarray(keys[a], np.uint64), key_bits).reshape(1, -1)
        for a in (True, False)
    )
    ctx = engine.ctx
    with ctx.section("gc_baseline"):
        _, out = garbled_call(
            ctx, engine.ot, circuit_counts(circuit), 1,
            real=lambda: (circuit, alice_bits, bob_bits),
            ideal=lambda: (
                None,
                np.asarray(
                    [circuit.evaluate(alice_bits[0], bob_bits[0])], np.uint8
                ),
            ),
        )
    return int(bits_to_words(out)[0])
