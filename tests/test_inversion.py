import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qows import (
    AlgebraicStructureWarning,
    BudgetExceeded,
    Const,
    EmptyString,
    Index,
    OwfSpec,
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
    unpack_string,
)

import data
from oracles import reference_attack_r1


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

    def test_brute_budget_exceeded(self, ref_square):
        with pytest.raises(BudgetExceeded):
            brute_preimages(OwfSpec(ref_square, 5, ()), data.R2_OUTPUT, budget=100)

    def test_attack_r2_budget_exceeded(self, ref_square):
        with pytest.raises(BudgetExceeded):
            attack_r2(ref_square, data.R2_OUTPUT, budget=100)

    def test_histogram_budget_exceeded(self, ref_square):
        with pytest.raises(BudgetExceeded):
            preimage_histogram(OwfSpec(ref_square, 5, ()), budget=100)


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
    """The int-cell grid against the dict-cell reference, counters included."""

    @given(st.integers(2, 16), st.integers(0, 10**6), st.booleans(),
           st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, order, seed, planted, first_hit, payload):
        q = random_latin(order, seed)
        # keeps s^(N/3), the attack's typical cost, at most 64
        n = payload.draw(st.integers(1, min(10, int(18 / math.log2(order)))))
        word = tuple(payload.draw(st.lists(st.integers(0, order - 1),
                                           min_size=n, max_size=n)))
        # an arbitrary target is contradiction-heavy and often has no preimage
        b = r1(q, word) if planted else word
        assert _attack_r1_result(q, b, first_hit) == reference_attack_r1(q, b, first_hit)

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

        class CountedRow(tuple):
            def __getitem__(self, k):
                reads[0] += 1
                return tuple.__getitem__(self, k)

        rng = random.Random(5)
        for order in (3, 4, 5, 8):
            for seed in range(3):
                q = random_latin(order, seed)
                for name in ("table", "_ldiv", "_rdiv"):
                    rows = tuple(CountedRow(row) for row in getattr(q, name))
                    object.__setattr__(q, name, rows)
                for n in range(1, 8):
                    a = [rng.randrange(order) for _ in range(n)]
                    b = r1(q, a)
                    for first_hit in (False, True):
                        reads[0] = 0
                        trace = attack_r1(q, b, first_hit=first_hit)
                        # verifying a candidate through r1 reads n * n cells
                        assert reads[0] == trace.lookups, (order, seed, n, first_hit)


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
        import qows.inversion as inv
        b = r2(ref_square, (2, 0, 1, 3, 0, 2))
        whole = attack_r2(ref_square, b).preimages
        monkeypatch.setattr(inv, "_CHUNK_ROWS", 64)
        assert attack_r2(ref_square, b).preimages == whole


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
