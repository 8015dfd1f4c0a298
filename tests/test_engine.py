"""The engine's vectorised secure operations — both modes."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.mpc.psi import psi_with_payloads


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def mk_engine(mode, seed=21):
    return Engine(Context(mode, seed=seed))


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestProducts:
    def test_mul_shared(self, mode):
        eng = mk_engine(mode)
        rng = np.random.default_rng(1)
        x = eng.share(ALICE, rng.integers(0, 2**31, 8))
        y = eng.share(BOB, rng.integers(0, 2**31, 8))
        z = eng.mul_shared(x, y)
        expect = (x.reconstruct() * y.reconstruct()) & eng.ctx.mask
        assert (z.reconstruct() == expect).all()

    def test_mul_alice_plain(self, mode):
        eng = mk_engine(mode)
        a = np.asarray([0, 1, 7, 2**31], dtype=np.uint64)
        y = eng.share(BOB, [5, 5, 5, 5])
        z = eng.mul_alice_plain(a, y)
        assert (z.reconstruct() == (a * 5) & eng.ctx.mask).all()

    def test_mul_gc_variant(self, mode):
        eng = mk_engine(mode)
        x = eng.share(ALICE, [3, 0, 9])
        y = eng.share(BOB, [4, 7, 0])
        z = eng.mul_shared(x, y, via="gc")
        assert list(z.reconstruct()) == [12, 0, 0]

    def test_product_across(self, mode):
        eng = mk_engine(mode)
        fs = [
            eng.share(ALICE, [2, 1]),
            eng.share(BOB, [3, 5]),
            eng.share(ALICE, [4, 0]),
        ]
        z = eng.product_across(fs)
        assert list(z.reconstruct()) == [24, 0]

    def test_indicator_nonzero(self, mode):
        eng = mk_engine(mode)
        x = eng.share(ALICE, [0, 1, 0, 2**31, 0])
        z = eng.indicator_nonzero(x)
        assert list(z.reconstruct()) == [0, 1, 0, 1, 0]

    def test_output_shares_fresh(self, mode):
        eng = mk_engine(mode)
        x = eng.share(ALICE, [7] * 16)
        y = eng.share(BOB, [1] * 16)
        z = eng.mul_shared(x, y)
        assert not (z.alice == x.alice).all()


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestMergeChains:
    def test_sum_groups(self, mode):
        eng = mk_engine(mode)
        v = eng.share(ALICE, [3, 4, 5, 6, 7, 8])
        same = [True, False, False, True, True]
        out = eng.merge_aggregate_sum(same, v)
        assert list(out.reconstruct()) == [0, 7, 5, 0, 0, 21]

    def test_or_groups(self, mode):
        eng = mk_engine(mode)
        v = eng.share(BOB, [0, 1, 0, 0, 1, 0])
        same = [True, False, False, True, True]
        out = eng.merge_aggregate_or(same, v)
        assert list(out.reconstruct()) == [0, 1, 0, 0, 0, 1]

    def test_single_element(self, mode):
        eng = mk_engine(mode)
        v = eng.share(ALICE, [9])
        assert list(eng.merge_aggregate_sum([], v).reconstruct()) == [9]

    def test_empty(self, mode):
        eng = mk_engine(mode)
        out = eng.merge_aggregate_sum([], eng.zeros(0))
        assert len(out) == 0

    def test_wraparound_sum(self, mode):
        eng = mk_engine(mode)
        big = eng.ctx.modulus - 1
        v = eng.share(ALICE, [big, 2])
        out = eng.merge_aggregate_sum([True], v)
        assert list(out.reconstruct()) == [0, 1]

    def test_indicator_count_mismatch(self, mode):
        eng = mk_engine(mode)
        v = eng.share(ALICE, [1, 2])
        with pytest.raises(ValueError):
            eng.merge_aggregate_sum([], v)


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestRevealAndDivide:
    def test_reveal_nonzero_flags(self, mode):
        eng = mk_engine(mode)
        v = eng.share(BOB, [0, 3, 0, 1])
        flags, payloads = eng.reveal_nonzero_flags(v)
        assert list(flags) == [False, True, False, True]
        assert payloads is None

    def test_reveal_with_payloads(self, mode):
        eng = mk_engine(mode)
        v = eng.share(BOB, [0, 3])
        pb = np.asarray([[1, 1, 0, 1], [0, 1, 1, 0]], dtype=np.uint8)
        flags, payloads = eng.reveal_nonzero_flags(v, pb)
        assert list(flags) == [False, True]
        assert payloads.tolist() == [
            [0, 0, 0, 0],  # hidden: annotation is 0
            [0, 1, 1, 0],
        ]

    def test_divide_reveal(self, mode):
        eng = mk_engine(mode)
        x = eng.share(ALICE, [100, 17, 5])
        y = eng.share(BOB, [7, 3, 0])
        q = eng.divide_reveal(x, y)
        assert list(q[:2]) == [14, 5]
        assert q[2] == eng.ctx.modulus - 1  # division by zero sentinel


# ----------------------------------------------------------------------
# One parity table over the garbled-circuit seam: every caller of
# ``yao.garbled_call``, as ``name -> (run(engine, n), expect(n))``.
# ----------------------------------------------------------------------

X = [0, 3, 0, 2**31, 7]
Y = [4, 0, 9, 1, 2]  # a zero divisor at n = 5
SAME = [True, False, False, True]
PAYLOAD = np.asarray(
    [[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1],
     [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0]],
    dtype=np.uint8,
)
MOD = 2**32


def chain_expect(vals, op):
    """Position i holds its group's aggregate iff it ends the group."""
    out, acc = [0] * len(vals), None
    for i, v in enumerate(vals):
        acc = v if acc is None else op(acc, v)
        if i == len(vals) - 1 or not SAME[i]:
            out[i], acc = acc, None
    return out


def psi_case(reveal):
    """Alice holds 0..n-1, Bob the first n even numbers with payloads
    10, 11, ...; outputs are read back per Alice item."""

    def run(eng, n):
        r = psi_with_payloads(
            eng.ctx, eng.ot, list(range(n)), list(range(0, 2 * n, 2)),
            list(range(10, 10 + n)), reveal_payload=reveal,
        )
        assert isinstance(r.payload, np.ndarray) == reveal
        bins = r.bin_of_item_index()
        pay = r.payload if reveal else r.payload.reconstruct()
        return r.ind.reconstruct()[bins].tolist(), pay[bins].tolist()

    def expect(n):
        return (
            [int(i % 2 == 0) for i in range(n)],
            [10 + i // 2 if i % 2 == 0 else 0 for i in range(n)],
        )

    return run, expect


def reveal_case(with_payload):
    def run(eng, n):
        flags, pay = eng.reveal_nonzero_flags(
            eng.share(BOB, X[:n]), PAYLOAD[:n] if with_payload else None
        )
        return flags.tolist(), None if pay is None else pay.tolist()

    def expect(n):
        flags = [x != 0 for x in X[:n]]
        if not with_payload:
            return flags, None
        return flags, [
            row if f else [0] * 6
            for f, row in zip(flags, PAYLOAD[:n].tolist())
        ]

    return run, expect


SEAM_CASES = {
    "nonzero": (
        lambda eng, n: eng.indicator_nonzero(
            eng.share(ALICE, X[:n])
        ).reconstruct().tolist(),
        lambda n: [int(x != 0) for x in X[:n]],
    ),
    "mul_gc": (
        lambda eng, n: eng.mul_shared(
            eng.share(ALICE, X[:n]), eng.share(BOB, Y[:n]), via="gc"
        ).reconstruct().tolist(),
        lambda n: [x * y % MOD for x, y in zip(X[:n], Y[:n])],
    ),
    "merge_sum": (
        lambda eng, n: eng.merge_aggregate_sum(
            SAME[: max(n - 1, 0)], eng.share(ALICE, X[:n])
        ).reconstruct().tolist(),
        lambda n: chain_expect(X[:n], lambda a, b: (a + b) % MOD),
    ),
    "merge_or": (
        lambda eng, n: eng.merge_aggregate_or(
            SAME[: max(n - 1, 0)], eng.share(BOB, [int(x != 0) for x in X[:n]])
        ).reconstruct().tolist(),
        lambda n: chain_expect([int(x != 0) for x in X[:n]], max),
    ),
    "reveal_flags": reveal_case(False),
    "reveal_flags_payload": reveal_case(True),
    "divide": (
        lambda eng, n: eng.divide_reveal(
            eng.share(ALICE, X[:n]), eng.share(BOB, Y[:n])
        ).tolist(),
        lambda n: [x // y if y else MOD - 1 for x, y in zip(X[:n], Y[:n])],
    ),
    "psi_shared_payload": psi_case(False),
    "psi_revealed_payload": psi_case(True),
}


@pytest.mark.real
@pytest.mark.parametrize("n", [0, 1, 5])
def test_seam_parity(n):
    """Every seam caller, back to back on one engine per mode: each
    reconstructs to the plaintext function in both modes, and sends the
    same messages (the REAL and SIMULATED transcripts agree case by
    case, base OTs included)."""
    slices = {}
    for mode in (Mode.SIMULATED, Mode.REAL):
        eng = mk_engine(mode)
        for name, (run, expect) in SEAM_CASES.items():
            mark = len(eng.ctx.transcript.fingerprint())
            assert run(eng, n) == expect(n), (name, mode)
            slices[name, mode] = eng.ctx.transcript.fingerprint()[mark:]
    for name in SEAM_CASES:
        assert slices[name, Mode.REAL] == slices[name, Mode.SIMULATED], name
        # at n = 0 only PSI (one dummy bin) and the shares' messages remain
        assert slices[name, Mode.REAL] or n == 0, name


def width_cases(ell):
    """The templates whose shared words leave by output translation, and
    the reveal template whose tuples leave by label-keyed disclosure, at
    ring width ``ell``: ``name -> (run(engine), expect)``.  PSI runs with
    matched and unmatched bins and non-zero fallbacks, in both payload
    modes; the revealed tuples are 150 bits (two pad blocks)."""
    from repro.mpc.costs import psi_bins

    mod = 2**ell
    rng = np.random.default_rng(ell)
    x = [0, 3, 0, mod - 1] + [int(v) for v in rng.integers(1, mod, 2, np.uint64)]
    y = [5, 0, 7, mod - 2] + [int(v) for v in rng.integers(0, mod, 2, np.uint64)]
    same = [True, False, False, True, True]
    flags = [int(v != 0) for v in x]
    alice, bob = list(range(8)), list(range(0, 16, 2))
    payloads = [int(v) for v in rng.integers(0, mod, len(bob), np.uint64)]
    tuples = rng.integers(0, 2, (len(x), 150), dtype=np.uint8)

    def chain(vals, ind, op):
        out, acc = [0] * len(vals), None
        for i, v in enumerate(vals):
            acc = v if acc is None else op(acc, v)
            if i == len(vals) - 1 or not ind[i]:
                out[i], acc = acc, None
        return out

    def psi(reveal):
        def run(eng):
            n_bins = psi_bins(len(alice))
            fallbacks = rng.integers(1, mod, n_bins, np.uint64)
            r = psi_with_payloads(
                eng.ctx, eng.ot, alice, bob, payloads, fallbacks,
                reveal_payload=reveal,
            )
            pay = r.payload if reveal else r.payload.reconstruct()
            bins = r.bin_of_item_index()
            expect_ind = np.zeros(n_bins, dtype=np.uint64)
            expect_pay = fallbacks.copy()
            for i in alice:
                if i in bob:
                    expect_ind[bins[i]] = 1
                    expect_pay[bins[i]] = payloads[bob.index(i)]
            assert 0 < expect_ind.sum() < n_bins  # matched and unmatched
            return (
                r.ind.reconstruct().tolist() == expect_ind.tolist(),
                pay.tolist() == expect_pay.tolist(),
            )

        return run, (True, True)

    def words(fn):
        return lambda eng: fn(eng).reconstruct().tolist()

    return {
        "nonzero": (
            words(lambda e: e.indicator_nonzero(e.share(ALICE, x))),
            flags,
        ),
        "mul_gc": (
            words(lambda e: e.mul_shared(
                e.share(ALICE, x), e.share(BOB, y), via="gc")),
            [a * b % mod for a, b in zip(x, y)],
        ),
        "merge_sum_1": (
            words(lambda e: e.merge_aggregate_sum([], e.share(BOB, x[3:4]))),
            x[3:4],
        ),
        "merge_sum": (
            words(lambda e: e.merge_aggregate_sum(same, e.share(ALICE, x))),
            chain(x, same, lambda a, b: (a + b) % mod),
        ),
        "merge_or_1": (
            words(lambda e: e.merge_aggregate_or([], e.share(BOB, [1]))),
            [1],
        ),
        "merge_or": (
            words(lambda e: e.merge_aggregate_or(same, e.share(BOB, flags))),
            chain(flags, same, max),
        ),
        "psi_shared_payload": psi(False),
        "psi_revealed_payload": psi(True),
        "reveal_tuple": (
            lambda e: [
                a.tolist()
                for a in e.reveal_nonzero_flags(e.share(BOB, x), tuples)
            ],
            [
                [bool(f) for f in flags],
                (tuples * np.asarray(flags, np.uint8)[:, None]).tolist(),
            ],
        ),
    }


@pytest.mark.real
@pytest.mark.parametrize("ell", [32, 48, 61, 63])
def test_translated_outputs_at_every_ring_width(ell):
    """REAL results equal plaintext at ``ell`` for every template that
    shares its outputs, and each sends what SIMULATED charges."""
    from repro.mpc import SecurityParams

    slices = {}
    for mode in (Mode.SIMULATED, Mode.REAL):
        eng = Engine(Context(mode, SecurityParams(ell=ell), seed=ell))
        for name, (run, expect) in width_cases(ell).items():
            mark = len(eng.ctx.transcript.messages)
            assert run(eng) == expect, (name, mode)
            slices[name, mode] = eng.ctx.transcript.fingerprint()[mark:]
    for name in width_cases(ell):
        assert slices[name, Mode.REAL] == slices[name, Mode.SIMULATED], name


class TestOneSeam:
    """Structural guard: the execution mode meets a circuit in
    ``mpc/yao.py`` and nowhere else."""

    def test_only_yao_names_the_garbling_halves(self):
        halves = (
            "run_garbled", "charge_garbled", "garble_batch", "evaluate_batch"
        )
        exempt = {
            SRC / "mpc" / "yao.py",
            SRC / "mpc" / "circuits" / "garbling.py",  # defines the last two
        }
        offenders = [
            (str(path.relative_to(SRC)), name)
            for path in sorted(SRC.rglob("*.py"))
            if path not in exempt
            for node in ast.walk(ast.parse(path.read_text()))
            for name in [
                getattr(node, "id", None)
                or getattr(node, "attr", None)
                or getattr(node, "name", None)
                or ""
            ]
            if any(half in name for half in halves)
        ]
        assert offenders == []

    @pytest.mark.parametrize(
        "module, forks",
        [
            ("mpc/engine.py", ["_ring_cot"]),
            ("mpc/psi.py", ["_opprf"]),  # the OPRF/OPPRF half, not the bins
            ("baselines/garbled_baseline.py", []),
        ],
    )
    def test_mode_comparisons_per_module(self, module, forks):
        """The functions that compare something against ``Mode.*``."""
        tree = ast.parse((SRC / module).read_text())
        found = [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Compare)
            for side in [node.left, *node.comparators]
            if isinstance(side, ast.Attribute)
            and isinstance(side.value, ast.Name)
            and side.value.id == "Mode"
        ]
        assert found == forks


@pytest.mark.real
class TestCostParity:
    def test_mul_bytes_match_across_modes(self):
        def run(mode):
            eng = Engine(Context(mode, seed=5))
            x = eng.share(ALICE, list(range(10)))
            y = eng.share(BOB, list(range(10)))
            eng.mul_shared(x, y)
            return eng.ctx.transcript.total_bytes

        assert run(Mode.REAL) == run(Mode.SIMULATED)

    def test_merge_chain_extrapolated_charge_is_exact(self):
        """The SIMULATED chain charge must equal REAL's actual bytes."""

        def run(mode, n):
            eng = Engine(Context(mode, seed=5))
            v = eng.share(ALICE, list(range(n)))
            eng.merge_aggregate_sum([i % 2 == 0 for i in range(n - 1)], v)
            return eng.ctx.transcript.total_bytes

        for n in (2, 3, 7, 12):
            assert run(Mode.REAL, n) == run(Mode.SIMULATED, n), n

    def test_gilboa_transcript_value_independent(self):
        def run(vals_a, vals_b):
            eng = mk_engine(Mode.SIMULATED)
            x = eng.share(ALICE, vals_a)
            y = eng.share(BOB, vals_b)
            eng.mul_shared(x, y)
            return eng.ctx.transcript.fingerprint()

        assert run([0, 0, 0], [1, 2, 3]) == run(
            [2**31, 5, 17], [0, 0, 0]
        )


@pytest.mark.real
class TestOrChainParity:
    def test_or_chain_bytes_match_across_modes(self):
        def run(mode, n):
            eng = Engine(Context(mode, seed=6))
            v = eng.share(BOB, [i % 2 for i in range(n)])
            eng.merge_aggregate_or([i % 3 == 0 for i in range(n - 1)], v)
            return eng.ctx.transcript.total_bytes

        for n in (2, 5, 9):
            assert run(Mode.REAL, n) == run(Mode.SIMULATED, n), n


@pytest.mark.real
class TestGilboaTriangle:
    """A cross term's message ``i`` is a C-OT over ``Z_{2^(ell - i)}``,
    both shares shifted left by ``i`` (``costs.gilboa_widths``)."""

    @staticmethod
    def cross(mode, ell, bits_owner, u, v, seed=3):
        from repro.mpc import SecurityParams

        eng = Engine(Context(mode, SecurityParams(ell=ell), seed=seed))
        out = eng._gilboa_cross(
            bits_owner,
            np.asarray(u, dtype=np.uint64),
            np.asarray(v, dtype=np.uint64),
            "cross",
        )
        return out, eng.ctx

    @pytest.mark.parametrize("ell", range(1, 7))
    def test_exhaustive_small_rings(self, ell):
        grid = np.arange(1 << ell, dtype=np.uint64)
        u, v = (a.reshape(-1) for a in np.meshgrid(grid, grid))
        mask = np.uint64((1 << ell) - 1)
        for owner in (ALICE, BOB):
            out, ctx = self.cross(Mode.REAL, ell, owner, u, v)
            assert (out.reconstruct() == (u * v) & mask).all()
            assert (out.alice <= mask).all() and (out.bob <= mask).all()
            _, sim = self.cross(Mode.SIMULATED, ell, owner, u, v)
            fp = ctx.transcript.fingerprint()
            assert fp == sim.transcript.fingerprint()
            bits = len(u) * ell * (ell + 1) // 2
            assert fp[-1][1:] == (-(-bits // 8), "cross/ot/ext/ciphertexts")

    @pytest.mark.parametrize("ell", [32, 48, 64])
    def test_random_wide_rings(self, ell):
        from repro.mpc import SecurityParams

        rng = np.random.default_rng(ell)
        mask = np.uint64((1 << ell) - 1) if ell < 64 else ~np.uint64(0)
        u, v = (
            rng.integers(0, 2**63, 300, dtype=np.uint64) * np.uint64(2)
            + rng.integers(0, 2, 300, dtype=np.uint64)
            for _ in range(2)
        )
        u, v = u & mask, v & mask
        u[:3], v[3:6] = mask, mask  # all-ones factors on either side
        prints = []
        for mode in (Mode.REAL, Mode.SIMULATED):
            eng = Engine(Context(mode, SecurityParams(ell=ell), seed=9))
            x, y = eng.share(ALICE, u), eng.share(BOB, v)
            z = eng.mul_shared(x, y)
            assert (z.reconstruct() == (u * v) & mask).all()
            prints.append(eng.ctx.transcript.fingerprint())
        assert prints[0] == prints[1]
        crossed = [
            n for _, n, lab in prints[0]
            if "cross" in lab and "/base/" not in lab
            and lab.endswith("ciphertexts")
        ]
        assert crossed == [-(-300 * ell * (ell + 1) // 2 // 8)] * 2
