import itertools
import math
import random
import statistics
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qows import (
    AlgebraicStructureWarning,
    BudgetExceeded,
    Const,
    EmptyString,
    FormatError,
    Index,
    OwfSpec,
    PreimageHistogram,
    Quasigroup,
    attack_r1,
    attack_r2,
    brute_preimages,
    from_index,
    pack_string,
    preimage_histogram,
    r1,
    r2,
    r_n,
    random_latin,
    resolve_budget,
    serialize_histogram,
    unpack_string,
)

import data
from oracles import (reference_attack_r1, reference_attack_r2, reference_histogram,
                     reference_histogram_flags, reference_histogram_text,
                     reference_preimages)


def r1_preimages_by_enumeration(q, b):
    n = len(b)
    return sorted(a for a in itertools.product(range(q.order), repeat=n)
                  if r1(q, a) == b)


def r2_preimages_by_enumeration(q, b):
    n = len(b)
    return sorted(a for a in itertools.product(range(q.order), repeat=n)
                  if r2(q, a) == b)


class TestBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("QOWS_BUDGET", raising=False)
        assert resolve_budget() == 1 << 24

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QOWS_BUDGET", "4096")
        assert resolve_budget() == 4096
        # explicit argument beats the environment
        assert resolve_budget(128) == 128

    def test_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("QOWS_BUDGET", "abc")
        with pytest.raises(FormatError):
            resolve_budget()

    def test_negative_is_refused(self, monkeypatch):
        monkeypatch.setenv("QOWS_BUDGET", "-5")
        with pytest.raises(FormatError, match="QOWS_BUDGET must be non-negative"):
            resolve_budget()
        with pytest.raises(FormatError, match="budget must be non-negative"):
            resolve_budget(-1)
        assert resolve_budget(0) == 0

    @pytest.mark.parametrize("budget", ["abc", "12", 2.7, 1.0, float("nan"), float("inf")])
    def test_explicit_non_integer_is_refused(self, budget):
        with pytest.raises(FormatError, match=r"^budget must be an integer, got "):
            resolve_budget(budget)

    def test_explicit_numpy_integer_passes(self):
        assert resolve_budget(np.int64(7)) == 7
        assert resolve_budget(np.uint8(255)) == 255
        with pytest.raises(FormatError, match="budget must be non-negative"):
            resolve_budget(np.int64(-1))

    def test_brute_budget_exceeded(self, ref_square):
        with pytest.raises(BudgetExceeded):
            brute_preimages(OwfSpec(ref_square, 5, ()), data.R2_OUTPUT, budget=100)

    def test_attack_r2_budget_exceeded(self, ref_square):
        with pytest.raises(BudgetExceeded):
            attack_r2(ref_square, data.R2_OUTPUT, budget=100)

    def test_attack_r2_charges_before_the_probe(self, monkeypatch):
        def probe(q):
            raise AssertionError("structure probe reached")

        monkeypatch.setattr("qows.core.algebraic_probe", probe)
        z300 = Quasigroup([[(u + v) % 300 for v in range(300)] for u in range(300)])
        with pytest.raises(BudgetExceeded, match="branch count"):
            attack_r2(z300, (0,) * 9, budget=10)
        # control: within the budget the patched probe is the one called
        with pytest.raises(AssertionError, match="structure probe reached"):
            attack_r2(z300, (0,), budget=300)

    def test_histogram_budget_exceeded(self, ref_square):
        with pytest.raises(BudgetExceeded):
            preimage_histogram(OwfSpec(ref_square, 5, ()), budget=100)

    def test_attack_r1_charges_each_guess(self, ref_square):
        b = data.R1_ATTACK_B
        full = attack_r1(ref_square, b)
        exact = attack_r1(ref_square, b, budget=data.R1_ATTACK_GUESSES)
        assert (exact.preimages, exact.guesses) == (full.preimages, full.guesses)
        with pytest.raises(BudgetExceeded):
            attack_r1(ref_square, b, budget=data.R1_ATTACK_GUESSES - 1)

    def test_attack_r1_refuses_an_over_budget_full_search_up_front(self, ref_square, monkeypatch):
        # a full search makes exactly s^ceil(N/3) guesses; 4^2667 is over
        # the default by its exponent alone, and 4^2 over 15
        def unreachable(n):
            raise AssertionError("schedule compiled for a refused search")

        monkeypatch.setattr("qows.inversion._schedule", unreachable)
        for b, budget in (((0,) * 8000, None), (data.R1_ATTACK_B, data.R1_ATTACK_GUESSES - 1)):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded, match=r"^guess count exceeds budget \d+$"):
                attack_r1(ref_square, b, budget=budget)
            assert time.perf_counter() - t0 < 1

    def test_attack_r1_first_hit_is_charged_guess_by_guess(self, ref_square):
        # first_hit may stop before s^ceil(N/3) guesses: no up-front refusal
        trace = attack_r1(ref_square, data.R1_ATTACK_B, budget=1, first_hit=True)
        assert (trace.preimages, trace.guesses) == (data.R1_ATTACK_PREIMAGES[:1], 1)

    def test_attack_r1_reads_env_budget(self, ref_square, monkeypatch):
        monkeypatch.setenv("QOWS_BUDGET", str(data.R1_ATTACK_GUESSES - 1))
        with pytest.raises(BudgetExceeded):
            attack_r1(ref_square, data.R1_ATTACK_B)


class TestBrute:
    def test_two_regular_member_preimages_of_11(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))
        trace = brute_preimages(spec, unpack_string(11, 4, 2))
        assert sorted(pack_string(p, 4) for p in trace.preimages) == [3, 4]
        assert trace.guesses == 16

    def test_two_regular_member_value_2_has_none(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))
        assert brute_preimages(spec, unpack_string(2, 4, 2)).preimages == []

    def test_double_reverse_reference(self, ref_square):
        trace = brute_preimages(OwfSpec(ref_square, 5, ()), data.R2_OUTPUT)
        assert trace.preimages == data.R2_ATTACK_PREIMAGES
        assert trace.guesses == 4**5

    def test_counter_is_domain_size(self, ref_square):
        for n in (1, 3, 6):
            trace = brute_preimages(OwfSpec(ref_square, n, ()), (0,) * n)
            assert trace.guesses == 4**n

    def test_first_hit(self, ref_square):
        spec = OwfSpec(ref_square, 5, ())
        full = brute_preimages(spec, (0,) * 5)
        first = brute_preimages(spec, (0,) * 5, first_hit=True)
        assert len(full.preimages) == 2
        assert first.preimages == full.preimages[:1]

    def test_soundness(self, ref_square):
        spec = OwfSpec(ref_square, 3, (Const(1), Index(2)))
        for b in itertools.product(range(4), repeat=3):
            for p in brute_preimages(spec, b).preimages:
                assert r_n(spec, p) == b


class TestAttackR1:
    def test_reference_preimages(self, ref_square):
        trace = attack_r1(ref_square, data.R1_ATTACK_B)
        assert trace.preimages == data.R1_ATTACK_PREIMAGES
        assert trace.guesses == data.R1_ATTACK_GUESSES

    def test_matches_enumeration_for_all_outputs(self, ref_square):
        for n in range(1, 5):
            for b in itertools.product(range(4), repeat=n):
                got = attack_r1(ref_square, b).preimages
                assert got == r1_preimages_by_enumeration(ref_square, b), (n, b)

    def test_guesses_bounded_by_exhaustion(self, ref_square):
        for b in itertools.product(range(4), repeat=4):
            assert attack_r1(ref_square, b).guesses <= 4**4

    def test_first_hit_stops_early(self, ref_square):
        full = attack_r1(ref_square, data.R1_ATTACK_B)
        first = attack_r1(ref_square, data.R1_ATTACK_B, first_hit=True)
        assert first.preimages == full.preimages[:1]
        assert first.guesses <= full.guesses

    def test_empty_output_is_error(self, ref_square):
        # length must be at least 1; an empty B has no grid
        with pytest.raises(EmptyString):
            attack_r1(ref_square, ())
        with pytest.raises(EmptyString):
            attack_r2(ref_square, ())

    def test_counters_populated(self, ref_square):
        trace = attack_r1(ref_square, data.R1_ATTACK_B)
        assert trace.lookups > 0
        assert trace.elapsed >= 0


def _attack_r1_result(q, b, first_hit=False):
    trace = attack_r1(q, b, first_hit=first_hit)
    return trace.preimages, trace.guesses, trace.lookups


@pytest.mark.filterwarnings("ignore::qows.AlgebraicStructureWarning")
class TestAttackR1Grid:
    """The compiled schedule over blocks of branches against the dict-cell
    reference, counters included."""

    @given(st.integers(2, 16), st.integers(0, 10**6), st.booleans(),
           st.booleans(), st.sampled_from([1, 7, 64, None]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, order, seed, planted, first_hit, chunk, payload):
        import qows.transforms as tr
        q = random_latin(order, seed)
        # keeps s^(N/3), the attack's typical cost, at most 64
        n = payload.draw(st.integers(1, min(10, int(18 / math.log2(order)))))
        word = tuple(payload.draw(st.lists(st.integers(0, order - 1),
                                           min_size=n, max_size=n)))
        # an arbitrary target is contradiction-heavy and often has no preimage
        b = r1(q, word) if planted else word
        # small blocks put a first_hit preimage past the first block of
        # parents at each level
        with mock.patch("qows.transforms.CHUNK_COLUMNS", chunk or tr.CHUNK_COLUMNS):
            result = _attack_r1_result(q, b, first_hit)
            assert result == reference_attack_r1(q, b, first_hit)
            guesses = result[1]
            if first_hit:
                # the leaves counted up to the hit are exactly what the
                # budget must cover
                assert attack_r1(q, b, guesses, first_hit=True).guesses == guesses
                with pytest.raises(BudgetExceeded):
                    attack_r1(q, b, guesses - 1, first_hit=True)
        # the count attack_r1 refuses an over-budget full search by
        if not first_hit:
            assert guesses == order ** -(-n // 3)

    def test_benchmark_squares_match_reference(self, benchmark_squares):
        rng = random.Random(9)
        for q in benchmark_squares:
            for b in (r1(q, [rng.randrange(4) for _ in range(9)]),
                      tuple(rng.randrange(4) for _ in range(9))):
                assert _attack_r1_result(q, b) == reference_attack_r1(q, b)

    def test_lookups_count_table_reads(self, monkeypatch):
        import qows.inversion as inv
        monkeypatch.setattr(inv, "_hypothesis_warnings", lambda q: [])
        reads = [0]

        class CountedTable(np.ndarray):
            def take(self, indices, *args, **kwargs):
                reads[0] += np.size(indices)
                return self.view(np.ndarray).take(indices, *args, **kwargs)

        table, r1_eval = inv._r1_table, inv._r1_eval

        def counted_r1(q, a):
            # verifying a candidate through r1 reads n * n cells
            reads[0] += len(a) ** 2
            return r1_eval(q, a)

        monkeypatch.setattr(inv, "_r1_table", lambda q: table(q).view(CountedTable))
        monkeypatch.setattr(inv, "_r1_eval", counted_r1)
        rng = random.Random(5)
        for order in (3, 4, 5, 8):
            for seed in range(3):
                q = random_latin(order, seed)
                for n in range(1, 8):
                    a = [rng.randrange(order) for _ in range(n)]
                    # planted, and arbitrary: often no preimage
                    for b, chunk in itertools.product((r1(q, a), tuple(a)), (None, 1)):
                        case = (order, seed, n, b, chunk)
                        with mock.patch("qows.transforms.CHUNK_COLUMNS",
                                        chunk or inv.transforms.CHUNK_COLUMNS):
                            reads[0] = 0
                            full = attack_r1(q, b)
                            assert reads[0] == full.lookups, case
                            reads[0] = 0
                            first = attack_r1(q, b, first_hit=True)
                        ahead = reads[0] - first.lookups
                        if not first.preimages:
                            assert ahead == 0, case
                            continue
                        # lookups counts the depth-first search, which
                        # stops at the hit; the rest of the blocks open
                        # there was read too: with one parent a block, at
                        # most the s - 1 other guesses at each level
                        bound = full.lookups - first.lookups
                        if chunk:
                            bound = sum((order - 1) * level[2]
                                        for level in inv._schedule(n)[0][1:])
                        assert 0 <= ahead <= bound, case

    @pytest.mark.parametrize("first_hit", [False, True])
    def test_blocks_of_one_parent(self, monkeypatch, first_hit):
        # a cap of one cell leaves each block the s branches of one parent
        rng = random.Random(11)
        cases = []
        for order in (2, 3, 4, 8):
            for seed in range(2):
                q = random_latin(order, seed)
                for n in (1, 2, 4, 6, 7, 9 if order < 8 else 8):
                    word = tuple(rng.randrange(order) for _ in range(n))
                    cases += [(q, r1(q, word)), (q, word)]
        want = [_attack_r1_result(q, b, first_hit) for q, b in cases]
        monkeypatch.setattr("qows.transforms.CHUNK_COLUMNS", 1)
        for (q, b), result in zip(cases, want):
            assert _attack_r1_result(q, b, first_hit) == result, (q.order, b)
            guesses = result[1]
            assert attack_r1(q, b, guesses, first_hit).guesses == guesses
            with pytest.raises(BudgetExceeded):
                attack_r1(q, b, guesses - 1, first_hit)

    def test_budget_stops_a_long_output(self):
        # 4^20 branches at N = 60; blocks are charged as they are grown
        rng = random.Random(60)
        q = random_latin(4, 1)
        b = tuple(rng.randrange(4) for _ in range(60))
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="guess count exceeds budget 1000"):
            attack_r1(q, b, budget=1000)
        # about 0.1 s on 2 cores; the bound only rules out a full search
        assert time.perf_counter() - t0 < 10

    def test_full_search_guesses_order_to_the_third_of_n(self):
        import qows.inversion as inv
        for n in range(1, 81):
            levels = inv._schedule.__wrapped__(n)[0]
            assert len(levels) == 1 + -(-n // 3), n
            # every check before the last guess re-reads a relation that
            # already holds, so only the last level can kill a branch
            assert not any(step[0] for level in levels[:-1] for step in level[4]), n
        rng = random.Random(3)
        for order in (2, 3, 5, 8):
            q = random_latin(order, order)
            for n in range(1, 10 if order < 8 else 7):
                word = tuple(rng.randrange(order) for _ in range(n))
                for b in (r1(q, word), word):
                    assert attack_r1(q, b).guesses == order ** -(-n // 3), (order, b)

    @pytest.mark.parametrize("order, medians", [
        (4, {3: 4, 4: 16, 5: 16, 6: 16, 7: 64, 8: 64, 9: 64}),
        (8, {3: 8, 4: 64, 5: 64, 6: 64}),
    ])
    def test_median_guesses_are_order_to_the_third_of_n(self, order, medians):
        # the paper's s^(N/3) meeting point: the median over 20 random
        # squares of planted attacks is exactly s^ceil(N/3)
        squares = [random_latin(order, seed) for seed in range(20)]
        for n, want in medians.items():
            guesses = []
            for seed, q in enumerate(squares):
                rng = random.Random(seed * 1000 + n)
                a = [rng.randrange(order) for _ in range(n)]
                guesses.append(attack_r1(q, r1(q, a)).guesses)
            assert statistics.median(guesses) == want == order ** -(-n // 3), n


class TestAttackR2:
    def test_reference_preimages(self, ref_square):
        trace = attack_r2(ref_square, data.R2_ATTACK_B)
        assert trace.preimages == data.R2_ATTACK_PREIMAGES
        assert trace.guesses == 4**5

    def test_matches_enumeration_for_all_outputs(self, ref_square):
        for n in range(1, 4):
            for b in itertools.product(range(4), repeat=n):
                got = attack_r2(ref_square, b).preimages
                assert got == r2_preimages_by_enumeration(ref_square, b), (n, b)

    def test_every_branch_counted(self, ref_square):
        # no pruning exists before the final comparison
        for n in (1, 2, 5):
            b = r2(ref_square, (0,) * n)
            assert attack_r2(ref_square, b).guesses == 4**n

    def test_first_hit(self, ref_square):
        first = attack_r2(ref_square, data.R2_ATTACK_B, first_hit=True)
        assert first.preimages == data.R2_ATTACK_PREIMAGES[:1]

    def test_chunked_path_matches_unchunked(self, ref_square, monkeypatch):
        import qows.transforms as tr
        b = r2(ref_square, (2, 0, 1, 3, 0, 2))
        whole = attack_r2(ref_square, b).preimages
        monkeypatch.setattr(tr, "CHUNK_COLUMNS", 64)
        assert attack_r2(ref_square, b).preimages == whole


def _token(order, t):
    return Const(t) if t < order else Index(t - order)


def _scanned(first_hit, preimages, order, n, chunk):
    """Tuples a scan reads: all of Q^n, or up to the end of the block
    holding the first preimage."""
    total = order**n
    if not (first_hit and preimages):
        return total
    return min(total, (pack_string(preimages[0], order) // chunk + 1) * chunk)


@pytest.mark.filterwarnings("ignore::qows.AlgebraicStructureWarning")
class TestSweep:
    """attack_r2 and brute_preimages, both the column sweep, against the
    peel-and-compare scan and whole-image comparison of all of Q^N."""

    # the O(s^3) structure probe would dominate at high orders
    @mock.patch("qows.inversion._hypothesis_warnings", lambda q: [])
    @given(st.integers(2, 300), st.randoms(use_true_random=False),
           st.integers(1, 8), st.integers(0, 3), st.sampled_from([1, 2, 3, 5]),
           st.booleans(), st.booleans())
    @example(256, random.Random(0), 2, 2, 1, True, False)
    @example(257, random.Random(1), 2, 1, 3, True, True)
    @example(300, random.Random(2), 2, 3, 5, False, False)
    @settings(max_examples=40, deadline=None)
    def test_matches_references(self, order, rnd, n, nlead, blocks, planted, first_hit):
        # at most 300^2 tuples, scanned in `blocks` blocks by patching the
        # block size; the last block may be short
        while order ** n > 300**2:
            n -= 1
        q = Quasigroup(data.shuffled_cyclic(order, rnd))
        total = order**n
        chunk = -(-total // blocks)
        a = tuple(rnd.randrange(order) for _ in range(n))
        leaders = tuple(_token(order, rnd.randrange(order + n)) for _ in range(nlead))
        spec = OwfSpec(q, n, leaders)
        # an arbitrary target often has no preimage
        b2 = r2(q, a) if planted else tuple(rnd.randrange(order) for _ in range(n))
        b = r_n(spec, a) if planted else b2
        want2, guesses = reference_attack_r2(q, b2)
        want = reference_preimages(spec, b)
        assert guesses == total
        if planted:
            assert a in want2 and a in want
        with mock.patch("qows.transforms.CHUNK_COLUMNS", chunk):
            got2 = attack_r2(q, b2, first_hit=first_hit)
            brute2 = brute_preimages(OwfSpec(q, n, ()), b2, first_hit=first_hit)
            got = brute_preimages(spec, b, first_hit=first_hit)
        assert got2.preimages == (want2[:1] if first_hit else want2)
        assert got2.guesses == _scanned(first_hit, want2, order, n, chunk)
        assert ((brute2.preimages, brute2.guesses, brute2.lookups)
                == (got2.preimages, got2.guesses, got2.lookups))
        assert got.preimages == (want[:1] if first_hit else want)
        assert got.guesses == _scanned(first_hit, want, order, n, chunk)

    @pytest.mark.parametrize("leaders", [
        (), (Const(16), Const(0)), (Index(0), Const(5), Index(2))])
    def test_order_17_public_paths(self, leaders):
        # order 17 is the first whose table (289 entries) needs a uint16
        # gather index; every answer is also checked against r_n of all
        # 17^3 inputs, which does not use the column kernel
        q = Quasigroup(data.shuffled_cyclic(17, random.Random(17)))
        n = 3
        spec = OwfSpec(q, n, leaders)
        inputs = list(itertools.product(range(17), repeat=n))
        images = [r_n(spec, a) for a in inputs]
        b = images[4000]
        want = [a for a, img in zip(inputs, images) if img == b]
        agree = sum(img[:j] == b[:j] for img in images for j in range(n))
        lookups = (len(leaders) + 2 * n) * agree
        assert reference_preimages(spec, b) == want
        got = brute_preimages(spec, b)
        assert (got.preimages, got.guesses, got.lookups) == (want, 17**n, lookups)
        if not leaders:
            assert reference_attack_r2(q, b) == (want, 17**n)
            got2 = attack_r2(q, b)
            assert (got2.preimages, got2.guesses, got2.lookups) == (want, 17**n, lookups)
        counts = reference_histogram(spec)
        assert counts[pack_string(b, 17)] == len(want)
        assert np.array_equal(preimage_histogram(spec).counts, counts)

    def test_output_without_preimage(self, ref_square):
        images = {r2(ref_square, a) for a in itertools.product(range(4), repeat=3)}
        b = min(set(itertools.product(range(4), repeat=3)) - images)
        assert reference_attack_r2(ref_square, b) == ([], 64)
        for first_hit in (False, True):
            trace = attack_r2(ref_square, b, first_hit=first_hit)
            assert (trace.preimages, trace.guesses) == ([], 64)
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))
        assert brute_preimages(spec, (0, 2), first_hit=True).preimages == []

    @pytest.mark.parametrize("order", [3, 4, 5, 8])
    def test_lookups_count_reads_made(self, order):
        # reads for column j: one per step for every tuple whose image
        # agrees with b on columns 0..j-1
        rng = random.Random(order)
        for seed in range(2):
            q = random_latin(order, seed)
            for n in range(1, 5 if order < 8 else 4):
                for leaders in ((), (Const(rng.randrange(order)), Index(n - 1))):
                    spec = OwfSpec(q, n, leaders)
                    b = r_n(spec, tuple(rng.randrange(order) for _ in range(n)))
                    images = [r_n(spec, a)
                              for a in itertools.product(range(order), repeat=n)]
                    agree = sum(img[:j] == b[:j] for img in images for j in range(n))
                    want = (len(leaders) + 2 * n) * agree
                    assert brute_preimages(spec, b).lookups == want, (order, seed, n)
                    if not leaders:
                        assert attack_r2(q, b).lookups == want, (order, seed, n)
                    with mock.patch("qows.transforms.CHUNK_COLUMNS", 7):
                        assert brute_preimages(spec, b).lookups == want


class TestHypothesisWarnings:
    def test_structured_square_warns(self):
        mod4 = from_index(5)
        b = r1(mod4, (0, 1, 2))
        with pytest.warns(AlgebraicStructureWarning):
            trace = attack_r1(mod4, b)
        # the warning does not void correctness
        assert trace.preimages == r1_preimages_by_enumeration(mod4, b)
        with pytest.warns(AlgebraicStructureWarning):
            attack_r2(mod4, r2(mod4, (0, 1, 2)))

    def test_unstructured_square_is_silent(self, ref_square, recwarn):
        attack_r1(ref_square, data.R1_ATTACK_B)
        attack_r2(ref_square, data.R2_ATTACK_B)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, AlgebraicStructureWarning)]


class TestHistogram:
    @pytest.mark.parametrize("columns", [64, 100])
    def test_chunked_paths_match_unchunked(self, ref_square, monkeypatch, columns):
        # 4^5 inputs: 16 blocks of 64, or 11 of 100 with a short last one
        import qows.transforms as tr
        spec = OwfSpec(ref_square, 5, (Const(3), Index(1), Index(4)))
        b = r_n(spec, (2, 0, 1, 3, 0))
        whole = brute_preimages(spec, b)
        counts = preimage_histogram(spec).counts
        monkeypatch.setattr(tr, "CHUNK_COLUMNS", columns)
        chunked = brute_preimages(spec, b)
        assert whole.preimages and (2, 0, 1, 3, 0) in whole.preimages
        assert ((chunked.preimages, chunked.guesses, chunked.lookups)
                == (whole.preimages, whole.guesses, whole.lookups))
        assert np.array_equal(preimage_histogram(spec).counts, counts)

    @pytest.mark.parametrize("columns", [7, 64])
    def test_many_blocks_match_the_reference(self, ref_square, monkeypatch, columns):
        # 4^4 inputs: 37 blocks of 7 with a short last one, or 4 of 64
        import qows.transforms as tr
        monkeypatch.setattr(tr, "CHUNK_COLUMNS", columns)
        for leaders in [(), (Const(3), Const(3), Index(0), Index(1)),
                        (Const(2), Index(3), Index(0))]:
            spec = OwfSpec(ref_square, 4, leaders)
            assert np.array_equal(preimage_histogram(spec).counts,
                                  reference_histogram(spec))

    @pytest.mark.parametrize("columns", [4096, 256])
    def test_memory_beyond_the_counts_is_one_block(self, ref_square, monkeypatch, columns):
        # 4^8 inputs in 16 or 256 blocks: besides the 512 KiB counts, only
        # per-block arrays, however many blocks there are
        import tracemalloc
        import qows.transforms as tr
        spec = OwfSpec(ref_square, 8, (Const(1), Index(5)))
        monkeypatch.setattr(tr, "CHUNK_COLUMNS", columns)
        tracemalloc.start()
        try:
            preimage_histogram(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * 4**8 < 64 * columns + 32 * 1024

    @pytest.mark.parametrize("counts, flags", [
        ([1] * 16, (True, True)),                       # permutation
        ([0, 2] * 8, (False, True)),                    # regular, not a permutation
        ([1, 3, 0, 0] * 4, (False, False)),             # irregular
        ([0] * 4095 + [4096], (False, True)),           # one value, zeros listed
        ([0] * 4096, (False, False)),                   # no value hit
    ])
    def test_flags(self, counts, flags):
        counts = np.array(counts, dtype=np.int64)
        hist = PreimageHistogram(counts=counts, order=2, n=len(counts).bit_length() - 1)
        values, permutation, regular = hist.support()
        assert (permutation, regular) == (hist.is_permutation, hist.is_regular) == flags
        assert flags == reference_histogram_flags(counts)
        assert values.tolist() == np.flatnonzero(counts).tolist()
        assert serialize_histogram(hist) == reference_histogram_text(hist)

    def test_permutation_member(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(1), Index(0)))
        hist = preimage_histogram(spec)
        assert hist.is_permutation and hist.is_regular
        assert hist.counts.tolist() == [1] * 16

    def test_two_regular_member(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))
        hist = preimage_histogram(spec)
        assert not hist.is_permutation
        assert hist.is_regular
        assert sorted(hist.counts.tolist()) == [0] * 8 + [2] * 8
        assert hist.count_of(11) == 2 and hist.count_of(2) == 0

    def test_order_one_trivial(self):
        from qows import Quasigroup
        hist = preimage_histogram(OwfSpec(Quasigroup([[0]]), 3, ()))
        assert hist.domain_size == 1 and hist.is_permutation

    def test_mass_conservation(self, ref_square):
        for leaders in [(), (Const(0),), (Const(2), Index(0), Index(2))]:
            hist = preimage_histogram(OwfSpec(ref_square, 3, leaders))
            assert int(hist.counts.sum()) == 4**3

    def test_histogram_agrees_with_brute(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(1),))
        hist = preimage_histogram(spec)
        for value in range(16):
            got = brute_preimages(spec, unpack_string(value, 4, 2))
            assert len(got.preimages) == hist.count_of(value)


@pytest.mark.parametrize("order", [200, 300])
def test_wide_orders_find_planted_input(order):
    # symbols above 127 overflowed the int8 tables these paths once used
    rnd = random.Random(order)
    q = Quasigroup(data.shuffled_cyclic(order, rnd))
    a = (rnd.randrange(order), rnd.randrange(order))
    spec = OwfSpec(q, 2, (Const(order - 1), Index(1)))
    b = r_n(spec, a)
    assert a in brute_preimages(spec, b).preimages
    hist = preimage_histogram(spec)
    assert hist.count_of(pack_string(b, order)) >= 1
    assert int(hist.counts.sum()) == order**2
    assert a in attack_r2(q, r2(q, a)).preimages
