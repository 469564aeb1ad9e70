import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qows import (
    Const,
    EmptyString,
    Index,
    IndexLeaderOutOfRange,
    LengthMismatch,
    OrderMismatch,
    OwfSpec,
    Quasigroup,
    SymbolOutOfRange,
    apply_leader_sequence,
    e_inverse,
    e_transform,
    pack_string,
    r1,
    r2,
    r_n,
    random_latin,
    resolve_leaders,
    transformation_rows,
    unpack_string,
)
from qows.transforms import (
    digit_columns,
    e_columns,
    family_columns,
    family_steps,
    flat_table,
    leader_ids,
    pack_columns,
    symbol_dtype,
)

import data


class TestETransform:
    def test_leader_seeds_first_symbol(self, ref_square):
        # b_0 = l * a_0, then each output feeds the next product
        assert e_transform(ref_square, 0, (0,)) == (2,)
        assert e_transform(ref_square, 0, (0, 1)) == (2, 2)

    def test_printed_iteration_rows_chain(self, ref_square):
        # the last two printed transitions of the 28-symbol example
        assert e_transform(ref_square, 0, data.PRINTED_ITERATION_ROWS[2]) == tuple(data.PRINTED_ITERATION_ROWS[3])
        assert e_transform(ref_square, 0, data.PRINTED_ITERATION_ROWS[3]) == tuple(data.PRINTED_ITERATION_ROWS[4])

    def test_chain_from_printed_input(self, ref_square):
        # full chain computed from the printed input row, as frozen; see the
        # acceptance suite for the two documented printed-cell slips
        row = tuple(data.PRINTED_ITERATION_ROWS[0])
        for expected in data.ITERATION_CHAIN_FROM_PRINTED:
            row = e_transform(ref_square, 0, row)
            assert row == tuple(expected)

    def test_length_preserving(self, ref_square):
        for n in (1, 2, 7):
            assert len(e_transform(ref_square, 2, (0,) * n)) == n

    def test_empty_string_rejected(self, ref_square):
        with pytest.raises(EmptyString):
            e_transform(ref_square, 0, ())
        with pytest.raises(EmptyString):
            e_inverse(ref_square, 0, ())

    def test_symbol_errors(self, ref_square):
        with pytest.raises(SymbolOutOfRange):
            e_transform(ref_square, 4, (0, 1))
        with pytest.raises(OrderMismatch):
            e_transform(ref_square, 0, (0, 9))

    def test_inverse_round_trip(self, ref_square):
        for a in itertools.product(range(4), repeat=3):
            for l in range(4):
                assert e_inverse(ref_square, l, e_transform(ref_square, l, a)) == a
                assert e_transform(ref_square, l, e_inverse(ref_square, l, a)) == a

    def test_bijective_per_leader(self, ref_square):
        images = {e_transform(ref_square, 1, a) for a in itertools.product(range(4), repeat=2)}
        assert len(images) == 16

    @given(st.integers(0, 500), st.integers(2, 5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, seed, order, payload):
        q = random_latin(order, seed)
        n = payload.draw(st.integers(1, 12))
        a = tuple(payload.draw(st.integers(0, order - 1)) for _ in range(n))
        l = payload.draw(st.integers(0, order - 1))
        assert e_inverse(q, l, e_transform(q, l, a)) == a


class TestVectorizedPair:
    """e_columns against the pure-Python reference, column by column,
    across the uint8/uint16 boundary."""

    @given(st.integers(2, 300), st.randoms(use_true_random=False),
           st.integers(1, 6), st.integers(1, 5))
    @example(256, random.Random(0), 5, 3)
    @example(257, random.Random(1), 5, 3)
    @example(300, random.Random(2), 4, 5)
    @settings(max_examples=40, deadline=None)
    def test_columns_match_reference(self, order, rnd, n, count):
        q = Quasigroup(data.shuffled_cyclic(order, rnd))
        mul = flat_table(q)
        strings = [tuple(rnd.randrange(order) for _ in range(n)) for _ in range(count)]
        leaders = [rnd.randrange(order) for _ in range(count)]
        state = np.array(strings, dtype=symbol_dtype(order)).T.copy()
        column_leaders = np.array(leaders, dtype=state.dtype)

        def columns(arr):
            return [tuple(col) for col in arr.T.tolist()]

        l = leaders[0]
        assert columns(e_columns(mul, order, l, state.copy())) == \
            [e_transform(q, l, a) for a in strings]
        assert columns(e_columns(mul, order, column_leaders, state.copy())) == \
            [e_transform(q, l, a) for l, a in zip(leaders, strings)]

    def test_dtype_by_order(self):
        assert symbol_dtype(256) == np.uint8
        assert symbol_dtype(257) == np.uint16


def _columns(arr):
    return [tuple(col) for col in arr.T.tolist()]


class TestFamilyColumns:
    """The shared family evaluator against r_n and r1, column by column."""

    @given(st.integers(2, 300), st.randoms(use_true_random=False),
           st.integers(1, 5), st.integers(1, 5), st.integers(0, 3))
    @example(256, random.Random(0), 4, 3, 3)
    @example(257, random.Random(1), 4, 3, 3)
    @example(300, random.Random(2), 3, 5, 2)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, order, rnd, n, count, nlead):
        # two stacked tables; each column picks one through its offset
        squares = [Quasigroup(data.shuffled_cyclic(order, rnd)) for _ in range(2)]
        mul = np.concatenate([flat_table(q) for q in squares])
        which = [rnd.randrange(2) for _ in range(count)]
        offset = np.array(which, dtype=np.intp) * (order * order)
        strings = [tuple(rnd.randrange(order) for _ in range(n)) for _ in range(count)]
        inputs = np.array(strings, dtype=symbol_dtype(order)).T.copy()

        # token ids per step, half of them index ids: one for every column,
        # or one per column
        def draw():
            return order + rnd.randrange(n) if rnd.random() < 0.5 else rnd.randrange(order)

        ids = [[draw()] * count if rnd.random() < 0.5
               else [draw() for _ in range(count)]
               for _ in range(nlead)]
        steps = [row[0] if len(set(row)) == 1
                 else np.array(row, dtype=rnd.choice([np.intp, symbol_dtype(order + n)]))
                 for row in ids]

        def token(t):
            return Const(t) if t < order else Index(t - order)

        want = [r_n(OwfSpec(squares[w], n, [token(row[k]) for row in ids]), a)
                for k, (w, a) in enumerate(zip(which, strings))]
        got = family_columns(mul, order, family_steps(order, n, steps), inputs, offset)
        assert _columns(got) == want
        got = family_columns(mul, order, family_steps(order, n, reverses=1), inputs, offset)
        assert _columns(got) == [r1(squares[w], a) for w, a in zip(which, strings)]
        assert _columns(inputs) == strings

    def test_leader_ids_of_a_spec(self, ref_square):
        spec = OwfSpec(ref_square, 3, (Const(3), Index(2), Const(0), Index(0)))
        assert leader_ids(spec) == (3, 6, 0, 4)
        a = (2, 0, 1)
        mul = flat_table(ref_square)
        inputs = np.array([a], dtype=np.uint8).T.copy()
        got = family_columns(mul, 4, family_steps(4, 3, leader_ids(spec)), inputs)
        assert _columns(got) == [r_n(spec, a)]

    @given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**40),
           st.integers(1, 300))
    @example(256, 2, 256**2 - 300, 300)     # the last strings: top symbols 255
    @settings(max_examples=40, deadline=None)
    def test_enumeration_and_packing(self, order, n, lo, width):
        total = order**n
        lo %= total
        hi = min(total, lo + width)
        cols = digit_columns(lo, hi, order, n, symbol_dtype(order))
        assert cols.dtype == symbol_dtype(order) and cols.shape == (n, hi - lo)
        assert _columns(cols) == [unpack_string(v, order, n) for v in range(lo, hi)]
        assert pack_columns(cols, order).tolist() == list(range(lo, hi))


class TestLeaderSequences:
    def test_single_reverse_rows(self, ref_square):
        leaders = tuple(reversed(data.REVERSE_EXAMPLE_INPUT))
        rows = transformation_rows(ref_square, leaders, data.REVERSE_EXAMPLE_INPUT)
        assert rows[0] == data.REVERSE_EXAMPLE_INPUT
        assert list(rows[1:]) == data.REVERSE_EXAMPLE_R1_ROWS

    def test_double_reverse_rows(self, ref_square):
        leaders = tuple(reversed(data.REVERSE_EXAMPLE_INPUT)) * 2
        rows = transformation_rows(ref_square, leaders, data.REVERSE_EXAMPLE_INPUT)
        assert list(rows[1:6]) == data.REVERSE_EXAMPLE_R1_ROWS
        assert list(rows[6:]) == data.REVERSE_EXAMPLE_R2_ROWS

    def test_apply_equals_last_row(self, ref_square):
        leaders = (0, 3, 2, 1, 0)
        assert apply_leader_sequence(ref_square, leaders, data.REVERSE_EXAMPLE_INPUT) == \
            transformation_rows(ref_square, leaders, data.REVERSE_EXAMPLE_INPUT)[-1]

    def test_empty_leader_sequence_is_identity(self, ref_square):
        assert apply_leader_sequence(ref_square, (), (0, 1, 2)) == (0, 1, 2)


class TestReverseTransforms:
    def test_r1_reference(self, ref_square):
        assert r1(ref_square, data.REVERSE_EXAMPLE_INPUT) == data.R1_OUTPUT

    def test_r2_reference(self, ref_square):
        assert r2(ref_square, data.REVERSE_EXAMPLE_INPUT) == data.R2_OUTPUT

    def test_r2_is_r1_twice_with_same_leaders(self, ref_square):
        # both passes use the original input reversed, not the intermediate
        a = (1, 3, 2, 0)
        mid = apply_leader_sequence(ref_square, tuple(reversed(a)), a)
        assert r2(ref_square, a) == apply_leader_sequence(ref_square, tuple(reversed(a)), mid)

    def test_single_symbol(self, ref_square):
        a = (3,)
        assert r1(ref_square, a) == (ref_square.mul(3, 3),)


class TestOwfSpec:
    def test_leader_validation(self, ref_square):
        OwfSpec(ref_square, 2, (Const(3), Index(1)))
        with pytest.raises(SymbolOutOfRange):
            OwfSpec(ref_square, 2, (Const(4),))
        with pytest.raises(IndexLeaderOutOfRange):
            OwfSpec(ref_square, 2, (Index(2),))
        with pytest.raises(TypeError):
            OwfSpec(ref_square, 2, (3,))

    def test_resolution_reads_original_input(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(1), Index(0)))
        resolved = resolve_leaders(spec, (0, 1))
        assert resolved == data.INDEX_LEADER_LEFT_RESOLVED

    def test_resolution_other_order(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))
        assert resolve_leaders(spec, (0, 1)) == data.INDEX_LEADER_RIGHT_RESOLVED

    def test_trace_rows(self, ref_square):
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(1), Index(0)))
        rows = transformation_rows(ref_square, resolve_leaders(spec, (0, 1)), (0, 1))
        assert list(rows) == data.INDEX_LEADER_LEFT_ROWS
        spec = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))
        rows = transformation_rows(ref_square, resolve_leaders(spec, (0, 1)), (0, 1))
        assert list(rows) == data.INDEX_LEADER_RIGHT_ROWS

    def test_length_mismatch(self, ref_square):
        spec = OwfSpec(ref_square, 3, ())
        with pytest.raises(LengthMismatch):
            r_n(spec, (0, 1))

    def test_full_maps(self, ref_square):
        left = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(1), Index(0)))
        right = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))
        got_left = {}
        got_right = {}
        for value in range(16):
            a = unpack_string(value, 4, 2)
            got_left[value] = pack_string(r_n(left, a), 4)
            got_right[value] = pack_string(r_n(right, a), 4)
        assert got_left == data.N2_PERMUTATION_MAP
        assert got_right == data.N2_TWO_REGULAR_MAP

    def test_empty_leaders_equal_r2(self, ref_square):
        spec = OwfSpec(ref_square, 5, ())
        assert r_n(spec, data.REVERSE_EXAMPLE_INPUT) == data.R2_OUTPUT


class TestPacking:
    def test_most_significant_first(self):
        assert pack_string((3, 0), 4) == 12
        assert pack_string((1, 0), 4) == 4
        assert unpack_string(12, 4, 2) == (3, 0)
        assert unpack_string(4, 4, 2) == (1, 0)

    def test_leading_zeros(self):
        assert unpack_string(1, 4, 3) == (0, 0, 1)
        assert pack_string((0, 0, 1), 4) == 1

    @given(st.integers(2, 9), st.data())
    @settings(max_examples=60)
    def test_round_trip(self, order, payload):
        n = payload.draw(st.integers(1, 10))
        a = tuple(payload.draw(st.integers(0, order - 1)) for _ in range(n))
        assert unpack_string(pack_string(a, order), order, n) == a
