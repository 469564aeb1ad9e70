import itertools
import random
import tracemalloc
from unittest import mock

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
    render_iterations,
    resolve_leaders,
    transformation_rows,
    unpack_string,
)
from qows import transforms
from qows.inversion import count_dtype
from qows.transforms import (
    blocks,
    digit_columns,
    e_columns,
    e_iterates,
    e_row,
    family_columns,
    family_steps,
    flat_table,
    leader_ids,
    leader_tokens,
    pack_columns,
    stack_layers,
    stack_tables,
    symbol_dtype,
    tile_side,
)

import data
from oracles import reference_render


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
        # a symbol is an integer: a float is refused by the same check
        with pytest.raises(SymbolOutOfRange, match=r"^leader 1\.5 not in \[0, 4\)$"):
            e_transform(ref_square, 1.5, (0, 1))
        for fn in (lambda q, a: e_transform(q, 0, a), lambda q, a: e_inverse(q, 0, a), r1):
            with pytest.raises(OrderMismatch, match=r"^symbol 1\.5 not in \[0, 4\)$"):
                fn(ref_square, (1.5, 2))
        # and numpy integers and bools are integers
        assert e_transform(ref_square, np.int64(1), np.array([0, 1, 3])) == \
            e_transform(ref_square, 1, (0, 1, 3))
        assert r1(ref_square, [np.uint8(1), True]) == r1(ref_square, (1, 1))
        # a bad leader late in a sequence is refused before any step
        with mock.patch.object(transforms, "e_row", side_effect=AssertionError("stepped")):
            for compose in (apply_leader_sequence, transformation_rows):
                with pytest.raises(SymbolOutOfRange, match=r"^leader 9 not in \[0, 4\)$"):
                    compose(ref_square, (0, 1, 2, 3, 9), (0, 1))

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


def _columns(arr):
    return [tuple(col) for col in arr.T.tolist()]


def _leader_forms(leaders, dtype):
    """(leader, per-column leaders) in the four forms e_columns takes: a
    Python int, a numpy scalar, and one per column in the symbol dtype and
    in int64 (as family_columns passes index ids)."""
    count = len(leaders)
    yield leaders[0], [leaders[0]] * count
    yield np.int64(leaders[0]), [leaders[0]] * count
    yield np.array(leaders, dtype=dtype), leaders
    yield np.array(leaders, dtype=np.int64), leaders


class TestVectorizedPair:
    """e_columns against the pure-Python reference, column by column,
    across the uint8/uint16 symbol boundary and the uint8/uint16/uint32
    index boundaries."""

    @given(st.integers(2, 300), st.randoms(use_true_random=False),
           st.integers(1, 6), st.integers(1, 5))
    @example(16, random.Random(3), 5, 4)       # 256 entries: a uint8 index
    @example(17, random.Random(4), 5, 4)       # 289 entries: a uint16 index
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
        for leader, per_column in _leader_forms(leaders, state.dtype):
            assert _columns(e_columns(mul, order, leader, state.copy())) == \
                [e_transform(q, l, a) for l, a in zip(per_column, strings)]

    @pytest.mark.parametrize("order", [4, 256, 257])
    def test_flat_table_lays_squares_end_to_end(self, order):
        # uint8 symbols up to order 256, uint16 past it
        rnd = random.Random(order)
        squares = [Quasigroup(data.shuffled_cyclic(order, rnd)) for _ in range(3)]
        alone = [flat_table(q) for q in squares]
        for q, flat in zip(squares, alone):
            assert flat.tolist() == [v for row in q.table for v in row]
        together = flat_table(*squares)
        assert together.dtype == symbol_dtype(order) == alone[0].dtype
        assert np.array_equal(together, np.concatenate(alone))

    @pytest.mark.parametrize("tables", [2, 257])
    def test_stacked_tables_match_reference(self, tables):
        # order-16 tables stacked 2 deep (512 entries, a uint16 index) and
        # 257 deep (65,792 entries, uint32); the last column reads the last
        # table's last entry, the largest index
        rnd = random.Random(tables)
        order, n, count = 16, 5, 300
        squares = [Quasigroup(data.shuffled_cyclic(order, rnd)) for _ in range(tables)]
        mul = np.concatenate([flat_table(q) for q in squares])
        which = [rnd.randrange(tables) for _ in range(count - 1)] + [tables - 1]
        offset = np.array(which, dtype=np.intp) * (order * order)
        strings = [tuple(rnd.randrange(order) for _ in range(n)) for _ in range(count - 1)]
        strings.append((order - 1,) * n)
        leaders = [rnd.randrange(order) for _ in range(count - 1)] + [order - 1]
        state = np.array(strings, dtype=np.uint8).T.copy()
        for leader, per_column in _leader_forms(leaders, state.dtype):
            got = e_columns(mul, order, leader, state.copy(), offset)
            assert _columns(got) == [e_transform(squares[w], l, a)
                                     for w, l, a in zip(which, per_column, strings)]

    @pytest.mark.parametrize("order, tables, dtype", [
        (2, 1, np.uint8), (16, 1, np.uint8), (8, 4, np.uint8), (17, 1, np.uint16),
        (16, 2, np.uint16), (256, 1, np.uint16), (257, 1, np.uint32),
        (16, 257, np.uint32)])
    def test_index_dtype_is_the_narrowest(self, monkeypatch, order, tables, dtype):
        # the gather index holds len(mul) - 1 and no more; a uint8 index
        # (at most 256 entries) gathers through the byte table, never np.take
        mul = np.zeros(tables * order * order, dtype=symbol_dtype(order))
        state = np.zeros((2, 3), dtype=mul.dtype)
        seen = []
        take = np.take

        def spy(a, idx, **kw):
            seen.append(idx.dtype)
            return take(a, idx, **kw)

        monkeypatch.setattr(np, "take", spy)
        e_columns(mul, order, 0, state, np.zeros(3, np.intp) if tables > 1 else None)
        assert seen == ([] if dtype == np.uint8 else [dtype, dtype])

    @given(st.sampled_from([(1, 1), (2, 1), (15, 1), (16, 1), (17, 1), (8, 4), (8, 5)]),
           st.sampled_from([0, 1, 3000]), st.integers(1, 4), st.booleans(),
           st.randoms(use_true_random=False))
    @example((16, 1), 3000, 4, True, random.Random(0))   # 256 entries: the byte table
    @example((8, 4), 3000, 3, True, random.Random(1))    # 256 entries, stacked
    @example((8, 5), 3000, 3, False, random.Random(2))   # 320 entries: np.take
    @settings(max_examples=30, deadline=None)
    def test_byte_table_boundary(self, case, width, n, per_column, rnd):
        # either side of 256 entries, single tables and order-8 stacks read
        # through per-column offsets, against e_row column by column
        order, tables = case
        tabs = [data.shuffled_cyclic(order, rnd) for _ in range(tables)]
        mul = np.concatenate([np.array(t, np.uint8).ravel() for t in tabs])
        gen = np.random.default_rng(rnd.getrandbits(32))
        which = gen.integers(0, tables, width)
        offset = which * (order * order) if tables > 1 else None
        state = gen.integers(0, order, (n, width)).astype(np.uint8)
        if per_column:
            leader = gen.integers(0, order, width).astype(np.uint8)
            leaders = leader.tolist()
        else:
            leader = rnd.randrange(order)
            leaders = [leader] * width
        got = e_columns(mul, order, leader, state.copy(), offset)
        assert _columns(got) == [tuple(e_row(tabs[w], l, a))
                                 for w, l, a in zip(which.tolist(), leaders, _columns(state))]

    @pytest.mark.parametrize("order, tables", [(4, 1), (15, 1), (8, 3), (17, 1), (8, 5)])
    def test_index_past_the_table_raises(self, order, tables):
        # the byte table (up to 256 entries) raises IndexError as np.take
        # does: a symbol >= order under the last table, and an offset past
        # the stack, each index one or more entries past len(mul)
        mul = np.concatenate([flat_table(random_latin(order, t)) for t in range(tables)])
        last = (tables - 1) * order * order
        offset = np.array([0, last]) if tables > 1 else None
        state = np.zeros((2, 2), dtype=symbol_dtype(order))
        state[0, 1] = order
        with pytest.raises(IndexError):
            e_columns(mul, order, order - 1, state, offset)
        if tables > 1:
            with pytest.raises(IndexError):
                e_columns(mul, order, 0, np.zeros((2, 2), state.dtype),
                          np.array([0, len(mul)]))

    def test_dtype_by_order(self):
        assert symbol_dtype(256) == np.uint8
        assert symbol_dtype(257) == np.uint16


def _owning_buffer(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


def _assert_iterates(q, leader, row, iterations):
    grid = e_iterates(q, leader, row, iterations)
    assert grid.shape == (iterations + 1, len(row))
    assert grid.dtype == symbol_dtype(q.order)
    assert not grid.flags.writeable
    assert tuple(grid[0]) == tuple(row)
    for k in range(iterations):
        assert tuple(grid[k + 1]) == e_transform(q, leader, grid[k].tolist())


@pytest.fixture(scope="module")
def phase_squares():
    return [random_latin(4, 4), random_latin(5, 5)] + [
        Quasigroup(data.shuffled_cyclic(order, random.Random(order))) for order in (16, 256, 300)]


# e_iterates' working memory in bytes, at most this many times
# (H + W) * min(H, W) for H rows and W columns
ITERATES_MEMORY_FACTOR = 16


class TestIterates:
    """e_iterates, the sweep over tiles, against e_transform row by row."""

    @pytest.mark.parametrize("order, side", [
        (1, 1), (2, 6), (3, 3), (4, 3), (5, 2), (8, 2), (9, 1), (64, 1), (257, 1)])
    def test_tile_side(self, order, side):
        # the largest b with order^(2b) <= 4096
        assert tile_side(order) == side

    @pytest.mark.parametrize("order", [2, 3, 4, 8, 64, 257])
    def test_every_tile_side(self, order):
        # sizes around the tile side b, none or one a multiple of it, and
        # iterations = 0; the render against the row-by-row reference too
        b = tile_side(order)
        rnd = random.Random(order)
        q = random_latin(order, order) if order <= 8 else \
            Quasigroup(data.shuffled_cyclic(order, rnd))
        sizes = sorted({1, b - 1, b + 1, 2 * b + 1} - {0})
        for width, height in itertools.product(sizes, sizes):
            row = tuple(rnd.randrange(order) for _ in range(width))
            leader = rnd.randrange(order)
            _assert_iterates(q, leader, row, height - 1)
            for text in (False, True):
                assert render_iterations(q, leader, row, width, height - 1, text) == \
                    reference_render(q, leader, row, width, height - 1, text)

    @staticmethod
    def _count_pair_takes(monkeypatch):
        """A list whose one item counts the takes of the pair table from
        here on."""
        steps = [0]

        class Counted(np.ndarray):
            def take(self, *args, **kwargs):
                steps[0] += 1
                return self.view(np.ndarray).take(*args, **kwargs)

        table = transforms._tile_table

        def counted(q, cells):
            pairs, words = table(q, cells)
            return pairs.view(Counted), words

        monkeypatch.setattr(transforms, "_tile_table", counted)
        return steps

    def test_order_4_sweeps_a_third_of_the_anti_diagonals(self, ref_square, monkeypatch):
        # one take of the pair table per anti-diagonal of tiles: 600 x 600
        # cells have 1199 anti-diagonals, their 3 x 3 tiles 399
        steps = self._count_pair_takes(monkeypatch)
        e_iterates(ref_square, 0, (0, 1, 2, 3) * 150, 599)
        assert 0 < steps[0] <= -(-599 // 3) + -(-600 // 3)

    @pytest.mark.parametrize("order", [4, 300])
    def test_no_iterations_is_the_row_alone(self, order, monkeypatch):
        # row 0 is written and nothing is swept, on a row many tiles wide
        rnd = random.Random(order)
        q = random_latin(4, 3) if order == 4 else Quasigroup(data.shuffled_cyclic(order, rnd))
        row = tuple(rnd.randrange(order) for _ in range(5001))
        steps = self._count_pair_takes(monkeypatch)
        assert e_iterates(q, 1, row, 0).tolist() == [list(row)]
        for text in (False, True):
            assert render_iterations(q, 1, row, len(row), 0, text) == \
                reference_render(q, 1, row, len(row), 0, text)
        assert steps[0] == 0

    # (width, iterations) at tile side b, grouped by where the sweep
    # switches from sliced anti-diagonals to whole rows of its buffer: n
    # rows and m columns of tiles, each with its virtual row or column,
    # n <= m once a tall grid is transposed
    PHASES = {
        "n-1-or-2": lambda b: [(7 * b + 1, 0), (7 * b + 1, 1), (7 * b, b)],
        "m-2-transposed": lambda b: [(1, 7 * b), (b, 7 * b - 1)],
        "n-equals-m": lambda b: [(4 * b, 4 * b), (4 * b - 1, 4 * b - 1), (2 * b, 2 * b)],
        "n-is-m-minus-1": lambda b: [(4 * b, 3 * b), (4 * b - 1, 3 * b - 1)],
        "n-is-m-plus-1-transposed": lambda b: [(3 * b, 4 * b), (3 * b - 1, 4 * b - 1)],
        "tall-transposed": lambda b: [(2 * b + 1, 9 * b), (2 * b, 9 * b + 1)],
        "wide": lambda b: [(9 * b + 2, 2 * b), (9 * b - 1, 2 * b + 1)],
    }

    @pytest.mark.parametrize("phase", PHASES)
    def test_phase_boundaries(self, phase, phase_squares):
        # b = 3 and 2, and b = 1 with uint8, uint16 and uint32 tile ids
        # (orders 16, 256 and 300), each leader at either end; the grid,
        # and the renders P3 and P6, against the row-by-row reference
        for q in phase_squares:
            rnd = random.Random(q.order)
            for width, iterations in self.PHASES[phase](tile_side(q.order)):
                row = tuple(rnd.randrange(q.order) for _ in range(width))
                for leader in (0, q.order - 1):
                    _assert_iterates(q, leader, row, iterations)
                    for text in (False, True):
                        assert render_iterations(q, leader, row, width, iterations, text) == \
                            reference_render(q, leader, row, width, iterations, text), \
                            (q.order, width, iterations, leader, text)

    @given(st.integers(1, 70), st.integers(1, 40), st.integers(0, 40),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_transformation(self, order, width, iterations, rnd):
        q = Quasigroup(data.shuffled_cyclic(order, rnd))
        row = tuple(rnd.randrange(order) for _ in range(width))
        _assert_iterates(q, rnd.randrange(order), row, iterations)

    @pytest.mark.parametrize("order, width, iterations", [
        (4, 8, 299), (4, 300, 7), (257, 8, 299), (5, 1, 40), (3, 12, 0)])
    def test_rows_follow_the_transformation(self, order, width, iterations):
        # 8 wide and 300 tall is swept as its transpose
        rnd = random.Random(order * width)
        q = Quasigroup(data.shuffled_cyclic(order, rnd))
        row = tuple(rnd.randrange(order) for _ in range(width))
        for leader in {0, order - 1, rnd.randrange(order)}:
            _assert_iterates(q, leader, row, iterations)

    @pytest.mark.parametrize("width, height", [(600, 600), (8, 300), (300, 8), (4, 5001)])
    def test_buffer_is_bounded_by_the_shorter_side(self, ref_square, width, height):
        grid = e_iterates(ref_square, 1, (0, 1, 2, 3) * (width // 4), height - 1)
        assert _owning_buffer(grid).size <= (height + width) * min(height, width)
        assert not grid.flags.writeable

    @pytest.mark.parametrize("width, height", [(4, 5001), (5001, 4), (32, 4096)])
    def test_working_memory_is_bounded_by_the_shorter_side(self, ref_square, width, height):
        # a buffer skewed along the longer side would hold about
        # (H + W) * max(H, W) / b^2 tile ids: 2.8 M at 4 x 5001, 5.6 MB
        row = [j % 4 for j in range(width)]
        tracemalloc.start()
        try:
            e_iterates(ref_square, 1, row, height - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ITERATES_MEMORY_FACTOR * (height + width) * min(height, width)


def _stepped_by_e_row(tabs, which, steps, strings, order):
    """Each column's string after the steps, one e_row a step on its own
    table: a step is one token id for every column or a list of one per
    column, and id t >= order leads with the column's input symbol t -
    order."""
    out = []
    for k, (w, a) in enumerate(zip(which, strings)):
        row = a
        for step in steps:
            t = step if isinstance(step, int) else step[k]
            row = e_row(tabs[w], t if t < order else a[t - order], row)
        out.append(tuple(row))
    return out


class TestStackedStep:
    """The stacked step, m = stack_layers(order) e-steps a gather, against
    e_row one step and one column at a time."""

    @pytest.mark.parametrize("order", range(1, 9))
    def test_family_columns_match_e_row(self, order):
        # step counts either side of m and 2m, so a last group of 1 to m
        # layers, whose symbol is no bit mask at orders 3, 5 and 6 (and at
        # order 1, MAX_LAYERS caps m); constant and index leaders, one for
        # every column or one per column; 0, 1 and odd numbers of columns;
        # three tables through offsets, and one without
        m, rnd = stack_layers(order), random.Random(order)
        tabs = [data.shuffled_cyclic(order, rnd) for _ in range(3)]
        flat = [np.array(t, np.uint8).ravel() for t in tabs]
        for steps, count, tables in itertools.product(
                sorted({1, m - 1, m + 1, 2 * m + 1} - {0}), (0, 1, 7, 301), (3, 1)):
            n = rnd.randint(1, 4)
            strings = [tuple(rnd.randrange(order) for _ in range(n)) for _ in range(count)]
            inputs = np.array(strings, np.uint8).reshape(count, n).T.copy()
            ids = [rnd.randrange(order + n) if rnd.random() < 0.5
                   else [rnd.randrange(order + n) for _ in range(count)] for _ in range(steps)]
            which = [rnd.randrange(tables) for _ in range(count)]
            offset = np.array(which, np.intp) * order ** (m + 1) if tables > 1 else None
            got = family_columns(stack_tables(np.concatenate(flat[:tables]), order), order,
                                 [t if isinstance(t, int) else np.array(t) for t in ids],
                                 inputs, offset)
            assert _columns(got) == _stepped_by_e_row(tabs, which, ids, strings, order), \
                (steps, count, tables)
            assert _columns(inputs) == strings


class TestFamilyColumns:
    """The shared family evaluator against r_n and r1, column by column."""

    @given(st.integers(2, 300), st.randoms(use_true_random=False),
           st.integers(1, 5), st.integers(1, 5), st.integers(0, 3))
    @example(256, random.Random(0), 4, 3, 3)
    @example(257, random.Random(1), 4, 3, 3)
    @example(300, random.Random(2), 3, 5, 2)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, order, rnd, n, count, nlead):
        # the stacked steps of two tables; each column picks one through
        # its offset
        squares = [Quasigroup(data.shuffled_cyclic(order, rnd)) for _ in range(2)]
        mul = stack_tables(np.concatenate([flat_table(q) for q in squares]), order)
        which = [rnd.randrange(2) for _ in range(count)]
        offset = np.array(which, dtype=np.intp) * order ** (stack_layers(order) + 1)
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
        r1_steps = range(order + n - 1, order - 1, -1)
        got = family_columns(mul, order, r1_steps, inputs, offset)
        assert _columns(got) == [r1(squares[w], a) for w, a in zip(which, strings)]
        assert _columns(inputs) == strings

    def test_leader_ids_of_a_spec(self, ref_square):
        spec = OwfSpec(ref_square, 3, (Const(3), Index(2), Const(0), Index(0)))
        assert leader_ids(spec) == (3, 6, 0, 4)
        a = (2, 0, 1)
        mul = stack_tables(flat_table(ref_square), 4)
        inputs = np.array([a], dtype=np.uint8).T.copy()
        got = family_columns(mul, 4, family_steps(4, 3, leader_ids(spec)), inputs)
        assert _columns(got) == [r_n(spec, a)]

    @given(st.integers(1, 17), st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_leader_tokens_inverts_leader_ids(self, order, n, draws):
        tokens = st.one_of(st.builds(Const, st.integers(0, order - 1)),
                           st.builds(Index, st.integers(0, n - 1)))
        q = Quasigroup(data.shuffled_cyclic(order, random.Random(order)))
        spec = OwfSpec(q, n, draws.draw(st.lists(tokens, max_size=8)))
        assert leader_tokens(leader_ids(spec), order) == spec.leaders

    @given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**40),
           st.integers(1, 300))
    @example(256, 2, 256**2 - 300, 300)     # the last strings: top symbols 255
    @example(1, 3, 0, 5)                    # base 1: one string, all zeros
    @example(4, 3, 7, 40)                   # lo inside a run of every row but the last
    @example(300, 2, 300 * 17 + 5, 100)     # narrower than the base, uint16
    @example(300, 3, 300**3 - 1000, 1000)   # order 300, up to the last string
    @example(5, 4, 123, 1)                  # one column
    @example(16, 5, 3 * transforms.CHUNK_COLUMNS, transforms.CHUNK_COLUMNS)  # a bulk block
    @settings(max_examples=40, deadline=None)
    def test_enumeration_and_packing(self, order, n, lo, width):
        total = order**n
        lo %= total
        hi = min(total, lo + width)
        cols = digit_columns(lo, hi, order, n)
        assert cols.dtype == symbol_dtype(order) and cols.shape == (n, hi - lo)
        assert cols.flags.c_contiguous and cols.flags.writeable
        assert _columns(cols) == [unpack_string(v, order, n) for v in range(lo, hi)]
        assert pack_columns(cols, order).tolist() == list(range(lo, hi))
        # packed straight into a histogram's counts dtype (uint64 at 300^4)
        packed = pack_columns(cols, order, count_dtype(total))
        assert packed.dtype == count_dtype(total) and packed.tolist() == list(range(lo, hi))


@given(st.integers(0, 10**6), st.integers(1, 2**40), st.sampled_from([1, 7, 64, None]))
@example(10**6, 1, 1)                           # a million blocks of one
@example(0, 1, None)                            # nothing to tile
@example(3 * transforms.CHUNK_COLUMNS + 1, 1, None)     # a last block of one
@example(10**6, 2**40, None)                    # wider than a block: one item each
@settings(max_examples=40, deadline=None)
def test_blocks_tile_the_range(total, width, columns):
    columns = columns or transforms.CHUNK_COLUMNS
    with mock.patch("qows.transforms.CHUNK_COLUMNS", columns):
        bounds = np.fromiter(itertools.chain.from_iterable(blocks(total, width)),
                             dtype=np.int64).reshape(-1, 2)
    size = max(1, columns // width)
    if not total:
        assert bounds.size == 0
        return
    lo, hi = bounds.T
    assert lo[0] == 0 and hi[-1] == total and np.array_equal(lo[1:], hi[:-1])
    sizes = hi - lo
    assert (sizes[:-1] == size).all() and 1 <= sizes[-1] <= size


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


@pytest.mark.parametrize("compose", [
    lambda q, a: e_transform(q, 1, a),
    lambda q, a: apply_leader_sequence(q, a[::-1], a),
    lambda q, a: transformation_rows(q, a, a),
    r1,
    r2,
    lambda q, a: r_n(OwfSpec(q, len(a), (Const(2), Index(3))), a),
], ids=["e_transform", "apply_leader_sequence", "transformation_rows", "r1", "r2", "r_n"])
def test_one_string_check_per_composition(compose, ref_square, monkeypatch):
    a = tuple(i * 7 % 4 for i in range(40))
    checked = []
    check = transforms.check_string
    monkeypatch.setattr(transforms, "check_string", lambda q, a: checked.append(a) or check(q, a))
    compose(ref_square, a)
    assert checked == [a]


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
        with pytest.raises(SymbolOutOfRange, match=r"^constant leader 7 not in \[0, 4\)$"):
            OwfSpec(ref_square, 2, (Const(7),))
        # a constant, a position and N are integers, numpy's and bools included
        with pytest.raises(SymbolOutOfRange, match=r"^constant leader 1\.5 not in \[0, 4\)$"):
            OwfSpec(ref_square, 2, (Const(1.5),))
        with pytest.raises(IndexLeaderOutOfRange, match=r"^index leader must be an integer, got 0\.5$"):
            OwfSpec(ref_square, 2, (Index(0.5),))
        with pytest.raises(LengthMismatch, match=r"^N must be an integer, got 2\.5$"):
            OwfSpec(ref_square, 2.5, ())
        spec = OwfSpec(ref_square, np.int64(2), (Const(np.uint8(3)), Index(True)))
        assert r_n(spec, (0, 1)) == r_n(OwfSpec(ref_square, 2, (Const(3), Index(1))), (0, 1))

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
        # the string is checked before its length: empty, then a symbol
        # out of range, then the length
        with pytest.raises(EmptyString):
            r_n(spec, ())
        with pytest.raises(OrderMismatch):
            r_n(spec, (0, 9))
        with pytest.raises(OrderMismatch):
            r_n(spec, (0, 1.5))

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

    def test_negative_length(self):
        # not a value out of the float range [0, 4^-2)
        assert unpack_string(0, 4, 0) == ()
        with pytest.raises(LengthMismatch, match="non-negative"):
            unpack_string(0, 4, -2)
        # a length, a value and a symbol are integers, not floats
        with pytest.raises(LengthMismatch, match=r"^string length must be an integer, got 2\.0$"):
            unpack_string(3, 4, 2.0)
        with pytest.raises(SymbolOutOfRange, match=r"^value must be an integer, got 3\.0$"):
            unpack_string(3.0, 4, 2)
        with pytest.raises(SymbolOutOfRange, match=r"^symbol must be an integer, got 1\.5$"):
            pack_string((1.5, 2), 4)
        assert pack_string((np.int64(3), True), 4) == 13
        assert unpack_string(np.int64(13), 4, np.uint8(2)) == (3, 1)
