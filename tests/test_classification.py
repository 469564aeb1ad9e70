import itertools
import random
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qows import (
    PUBLISHED_FRACTAL,
    PUBLISHED_FRACTAL_COUNT,
    ClassifySettings,
    Const,
    FormatError,
    Index,
    LengthMismatch,
    OrderNotSupported,
    OwfSpec,
    PeriodPoint,
    Quasigroup,
    SymbolOutOfRange,
    census_order4,
    classify,
    enumerate_order4,
    from_index,
    isomorphism_classes,
    leader_strings,
    lex_index,
    minimal_period,
    period_profile,
    permutation_search,
    preimage_histogram,
    random_latin,
    serialize_leaders,
)
from qows import classification, transforms
from qows.classification import _engine_rows, _first_witnesses, _stack_rows

import data
from oracles import reference_unit_profile, reference_witness, window_profile, window_rows

random_squares = st.builds(random_latin, st.integers(2, 6), st.integers(0, 10**6))


def _step(q):
    """q's stacked step as _unit_profile reads it: its row of _stack_rows,
    widened to the engine's lists."""
    return _engine_rows(_stack_rows([q])[0], q.order)


class TestMinimalPeriod:
    def test_examples(self):
        assert minimal_period([0, 1, 2, 0, 1, 2]) == 3
        assert minimal_period([5, 5, 5, 5]) == 1
        assert minimal_period([0, 1, 2, 3]) == 4
        assert minimal_period([0, 1, 0, 1, 0]) == 2
        assert minimal_period([0, 1, 0]) == 2
        assert minimal_period([]) == 0
        assert minimal_period([7]) == 1

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_matches_naive_definition(self, seq):
        def is_period(p):
            return all(seq[i] == seq[i + p] for i in range(len(seq) - p))

        p = minimal_period(seq)
        assert 1 <= p <= len(seq)
        assert is_period(p)
        assert all(not is_period(c) for c in range(1, p))


class TestLeaderStrings:
    def test_constants_only_order(self):
        got = list(leader_strings(2, 2, 2))
        assert got == [
            (),
            (Const(0),), (Const(1),),
            (Const(0), Const(0)), (Const(0), Const(1)),
            (Const(1), Const(0)), (Const(1), Const(1)),
        ]

    def test_indices_follow_constants(self):
        got = list(leader_strings(2, 2, 1, include_indices=True))
        assert got == [
            (),
            (Const(0),), (Const(1),), (Index(0),), (Index(1),),
        ]

    def test_counts(self):
        # alphabet size 4, lengths 0..4
        assert sum(1 for _ in leader_strings(4, 2, 4)) == 1 + 4 + 16 + 64 + 256

    def test_builds_no_token_before_yielding_it(self):
        # a million index tokens are counted, not built, so the first
        # strings come at once and in a few KiB
        tracemalloc.start()
        try:
            got = list(itertools.islice(leader_strings(4, 10**6, 2, True), 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [(), (Const(0),), (Const(1),), (Const(2),), (Const(3),), (Index(0),)]
        assert peak < 64 * 1024


class TestPermutationSearch:
    def test_reference_witnesses(self, ref_square):
        assert permutation_search(ref_square, 2, 4) == (Const(0),)
        assert permutation_search(from_index(46), 2, 4) == (Const(0),)
        # identity-like square: the empty leader string already works
        assert permutation_search(from_index(1), 2, 4) == ()

    def test_no_witness_outside_class(self):
        assert permutation_search(from_index(6), 2, 4) is None
        assert permutation_search(from_index(47), 2, 4) is None

    def test_witness_verifies(self, ref_square):
        w = permutation_search(ref_square, 2, 4)
        assert preimage_histogram(OwfSpec(ref_square, 2, w)).is_permutation

    def test_index_leaders_change_the_boundary(self):
        # with index leaders allowed, these two squares gain witnesses
        w6 = permutation_search(from_index(6), 2, 4, include_indices=True)
        assert serialize_leaders(w6) == data.WITNESS_6_WITH_INDICES
        w47 = permutation_search(from_index(47), 2, 4, include_indices=True)
        assert serialize_leaders(w47) == data.WITNESS_47_WITH_INDICES

    def test_longer_bound_keeps_witness(self, ref_square):
        # shorter strings are searched first, so the witness is stable
        assert permutation_search(ref_square, 2, 5) == permutation_search(ref_square, 2, 4)

    def test_budget(self, ref_square):
        from qows import BudgetExceeded
        with pytest.raises(BudgetExceeded):
            permutation_search(ref_square, 5, 1, budget=100)

    @pytest.mark.parametrize("include_indices, strings", [(False, 341), (True, 1555)])
    def test_budget_counts_inputs_times_leader_strings(self, ref_square,
                                                        include_indices, strings):
        from qows import BudgetExceeded
        work = 4**2 * strings
        w = permutation_search(ref_square, 2, 4, include_indices, budget=work)
        assert w == (Const(0),)
        with pytest.raises(BudgetExceeded):
            permutation_search(ref_square, 2, 4, include_indices, budget=work - 1)

    def test_huge_n_is_refused_before_any_work(self, ref_square):
        # with index leaders the alphabet has 4 + N tokens: counted, not built
        from qows import BudgetExceeded
        for include_indices in (False, True):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                permutation_search(ref_square, 10**9, 0, include_indices)
            assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("n, max_len, error", [(0, 2, LengthMismatch),
                                                   (2, -1, FormatError)])
    def test_bad_bounds(self, ref_square, n, max_len, error):
        with pytest.raises(error):
            permutation_search(ref_square, n, max_len)

    def test_every_square_with_index_leaders_matches_reference(self):
        for q in enumerate_order4():
            assert permutation_search(q, 2, 2, True) == reference_witness(q, 2, 2, True)

    @given(random_squares, st.integers(1, 3), st.integers(0, 2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_squares_match_reference(self, q, n, max_len, include_indices):
        assert (permutation_search(q, n, max_len, include_indices)
                == reference_witness(q, n, max_len, include_indices))

    @pytest.mark.parametrize("columns", [8, 40])
    def test_split_batches_match_reference(self, monkeypatch, columns):
        # 8 columns split each string's 16 inputs in two; 40 split the
        # strings of one length over several batches
        import qows.transforms as tr
        monkeypatch.setattr(tr, "CHUNK_COLUMNS", columns)
        for k in (1, 6, 46, 47, 355):
            q = from_index(k)
            assert permutation_search(q, 2, 2, True) == reference_witness(q, 2, 2, True)

    @given(st.integers(2, 5), st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
           st.integers(1, 2), st.integers(0, 2), st.booleans(),
           st.sampled_from([1, 7, 64, None]))
    @settings(max_examples=40, deadline=None)
    def test_square_batches_match_reference(self, order, seeds, n, max_len,
                                            include_indices, columns):
        # the census path: several squares share a block while one length's
        # strings leave room, and a square leaves at its first witness
        import qows.transforms as tr
        squares = [random_latin(order, seed) for seed in seeds]
        with mock.patch("qows.transforms.CHUNK_COLUMNS", columns or tr.CHUNK_COLUMNS):
            got = _first_witnesses(_stack_rows(squares), order, n, max_len, include_indices)
        assert got == [reference_witness(q, n, max_len, include_indices) for q in squares]


class TestPeriodProfile:
    def test_fractal_square_46(self):
        profile = period_profile(from_index(46), 0)
        assert [p.period for p in profile] == data.P46_PROFILE_L0
        assert not any(p.capped for p in profile)
        assert [p.k for p in profile] == list(range(1, 33))

    def test_non_fractal_square_47(self):
        profile = period_profile(from_index(47), 0)
        head = [p.period for p in profile[:8]]
        assert head == data.P47_PROFILE_L0_PREFIX
        assert not any(p.capped for p in profile[:8])
        # growth is exponential; past half the width the period is capped
        assert all(p.capped and p.period == 4096 for p in profile[8:])

    def test_square_1(self):
        profile = period_profile(from_index(1), 0, iterations=12)
        assert [p.period for p in profile] == data.P1_PROFILE_L0_PREFIX

    def test_trivial_square(self):
        q = Quasigroup([[0]])
        profile = period_profile(q, 0, motif=(0,), width=16, iterations=5)
        assert all(p.period == 1 and not p.capped for p in profile)

    @given(st.integers(1, 576), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_default_settings_match_the_window(self, index, leader):
        q = from_index(index)
        assert period_profile(q, leader) == window_profile(q, leader, (0, 1, 2, 3), 4096, 32)

    @given(st.integers(2, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_cases_match_the_true_period(self, order, seed, data):
        q = random_latin(order, seed)
        symbols = st.integers(0, order - 1)
        motif = tuple(data.draw(st.lists(symbols, min_size=1, max_size=4)))
        width = len(motif) * data.draw(st.integers(1, 12))
        iterations = data.draw(st.integers(1, 4))
        leader = data.draw(symbols)
        exact = period_profile(q, leader, motif, width, iterations)
        window = window_profile(q, leader, motif, width, iterations)
        # every true period is at most |motif| * order^k, so a window twice
        # that wide shows it exactly (Fine-Wilf)
        wide = 2 * len(motif) * order**iterations
        for e, w, row in zip(exact, window, window_rows(q, leader, motif, wide, iterations)):
            true = minimal_period(row)
            assert e == (PeriodPoint(e.k, true, False) if 2 * true <= width
                         else PeriodPoint(e.k, width, True))
            if w != e:
                # only where the window was fooled: its period does not
                # hold on two copies of the true unit
                assert e.capped and not w.capped
                two = row[:2 * true]
                assert any(two[i] != two[i + w.period] for i in range(2 * true - w.period))

    def test_width_validation(self, ref_square):
        with pytest.raises(FormatError):
            period_profile(ref_square, 0, motif=(0, 1, 2), width=16)
        with pytest.raises(FormatError):
            period_profile(ref_square, 0, motif=())


class TestClassify:
    @pytest.mark.parametrize("field, value", [("n", 0), ("max_len", -1), ("alpha", -1)])
    def test_negative_bounds_rejected(self, field, value):
        with pytest.raises(FormatError):
            ClassifySettings(**{field: value})

    def test_reference_labels(self, ref_square):
        assert classify(ref_square).is_fractal
        assert classify(from_index(46)).is_fractal
        assert not classify(from_index(47)).is_fractal

    def test_witness_attached(self, ref_square):
        label = classify(ref_square)
        assert label.permutation_witness == (Const(0),)
        assert label.period_at_k == 128

    def test_structured_square_agrees_on_both_criteria(self):
        label = classify(from_index(5))
        assert label.is_fractal
        assert label.permutation_witness is not None

    def test_all_leaders_considered(self):
        # every constant leader contributes a profile by default
        label = classify(from_index(46))
        assert sorted(label.profiles) == [0, 1, 2, 3]

    def test_single_leader_override(self):
        st4 = ClassifySettings(leaders=(0,))
        label = classify(from_index(47), st4)
        assert not label.is_fractal
        assert sorted(label.profiles) == [0]


class TestCensus:
    def test_split_sizes(self, census_default):
        report, _ = census_default
        assert len(report.fractal) == 192
        assert len(report.non_fractal) == 384

    def test_matches_published_list(self, census_default):
        report, _ = census_default
        assert report.fractal == PUBLISHED_FRACTAL
        assert report.matches_published
        assert report.published_missing == () and report.published_extra == ()

    def test_partition(self, census_default):
        report, _ = census_default
        assert sorted(report.fractal + report.non_fractal) == list(range(1, 577))

    def test_anchor_membership(self, census_default):
        report, _ = census_default
        assert 355 in report.fractal and 46 in report.fractal
        assert 6 in report.non_fractal and 47 in report.non_fractal

    def test_classifiers_coincide(self, census_default):
        report, _ = census_default
        assert report.disagreements == ()

    def test_witnesses_reverify(self, census_default):
        report, _ = census_default
        for idx in (1, 5, 46, 355, 576):
            w = report.witnesses[idx]
            assert w is not None
            assert preimage_histogram(OwfSpec(from_index(idx), 2, w)).is_permutation
        for idx in (6, 47):
            assert report.witnesses[idx] is None

    def test_periods_cover_all_squares(self, census_default):
        report, _ = census_default
        assert sorted(report.periods) == list(range(1, 577))
        assert report.periods[46].period == 128
        assert report.periods[47].capped

    def test_witnesses_match_reference(self, census_default):
        report, _ = census_default
        for k, q in enumerate(enumerate_order4(), 1):
            assert report.witnesses[k] == reference_witness(q, 2, 4)

    @pytest.mark.parametrize("leader", [-1, 5, 1.5])
    def test_out_of_range_leader_rejected(self, leader, ref_square):
        with pytest.raises(SymbolOutOfRange):
            census_order4(ClassifySettings(leaders=(leader,)))
        with pytest.raises(SymbolOutOfRange, match=rf"^symbol {leader} not in \[0, 4\)$"):
            period_profile(ref_square, leader)

    @pytest.mark.parametrize("n, max_len, include_indices",
                             [(1, 4, False), (3, 2, False), (2, 2, True)])
    def test_witnesses_match_per_square_search(self, n, max_len, include_indices):
        report = census_order4(ClassifySettings(n=n, max_len=max_len,
                                                include_indices=include_indices))
        expected = _first_witnesses(_stack_rows(enumerate_order4()), 4, n, max_len,
                                    include_indices)
        assert report.witnesses == dict(enumerate(expected, 1))

    @pytest.mark.parametrize("settings", [
        None, ClassifySettings(width=256, iterations=8, leaders=(3, 1))])
    def test_periods_are_the_max_over_every_leader(self, census_default, settings):
        st = settings or ClassifySettings()
        report = census_default[0] if settings is None else census_order4(st)
        finals = [[period_profile(q, l, st.motif, st.width, st.iterations)[-1]
                   for l in st.leaders_for(q)] for q in enumerate_order4()]
        for k, points in enumerate(finals, 1):
            assert report.periods[k] == max(points, key=lambda p: p.period)
        # both kinds of square, and the early stop taken and passed over
        assert {points[0].capped for points in finals} == {False, True}
        assert {points[-1].capped for points in finals} == {False, True}

    def test_one_stack_build_per_census(self, monkeypatch):
        # both stages read one _stack_rows of the 576 squares, 64 a build;
        # the head search, the member search and the period stage used to
        # build their own, 11 builds over 803 tables
        builds = []
        build = transforms.stack_tables
        monkeypatch.setattr(classification, "stack_tables",
                            lambda mul, s: builds.append(len(mul) // (s * s)) or build(mul, s))
        census_order4()
        assert builds == [64] * 9

    def test_one_stack_build_per_classify(self, monkeypatch):
        # classify's four period profiles and its witness search read one
        # kept build, where each made its own; a second square replaces it
        builds = []
        build = transforms.stack_tables
        monkeypatch.setattr(classification, "stack_tables",
                            lambda mul, s: builds.append(s) or build(mul, s))
        classification._square_stack.cache_clear()
        classify(from_index(46))
        assert builds == [4]
        classify(from_index(47))
        assert builds == [4, 4]
        assert classification._square_stack.cache_info().currsize == 1
        assert not classification._square_stack(from_index(47)).flags.writeable
        assert builds == [4, 4]

    def test_period_stage_stops_at_the_first_capped_leader(self, monkeypatch):
        calls = []
        profile = classification._unit_profile
        monkeypatch.setattr(classification, "_unit_profile",
                            lambda *args: calls.append(args[1]) or profile(*args))
        census_order4()
        assert len(calls) == 1160

    def test_period_stage_builds_one_point_per_square(self, monkeypatch):
        # the engine gives ints; 32 points per profile would be 37,120
        made = []
        point = classification.PeriodPoint
        monkeypatch.setattr(classification, "PeriodPoint",
                            lambda *args: made.append(args) or point(*args))
        census_order4()
        assert len(made) == 576

    def test_unit_profile_lists_the_uncapped_periods(self):
        step = _step(from_index(47))
        # a width of one motif caps the first iterate
        assert classification._unit_profile(step, 4, 0, [0, 1, 2, 3], 4, 3) == []
        assert classification._unit_profile(step, 4, 0, [0, 1, 2, 3], 4096, 32) \
            == data.P47_PROFILE_L0_PREFIX
        never = classification._unit_profile(_step(from_index(46)), 4, 0, [0, 1, 2, 3], 4096, 32)
        assert len(never) == 32 and never[-1] == 128

    def test_stack_layers(self):
        assert [transforms.stack_layers(s) for s in range(1, 9)] == [8, 7, 4, 3, 2, 2, 1, 1]

    @pytest.mark.parametrize("squares", [
        enumerate_order4(),                             # nine builds of 64
        [random_latin(5, seed) for seed in range(70)],  # 64 and 6, two layers
        [random_latin(7, seed) for seed in range(3)],   # one layer: the tables
    ], ids=["order-4", "order-5", "order-7"])
    def test_stack_rows_are_each_squares_stacked_step(self, squares):
        s = squares[0].order
        rows = _stack_rows(squares)
        assert rows.shape == (len(squares), s ** (transforms.stack_layers(s) + 1))
        assert rows.dtype == transforms.symbol_dtype(s)
        for q, row in zip(squares, rows):
            assert np.array_equal(row, transforms.stack_tables(transforms.flat_table(q), s))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_engine_rows_are_indexed_by_state(self, order):
        # s^m states, each stepping any state y as its last layer's symbol
        row = _stack_rows([random_latin(order, order)])[0]
        narrow = row.reshape(-1, order).tolist()
        rows = _engine_rows(row, order)
        states = order ** transforms.stack_layers(order)
        assert len(rows) == states and {len(row) for row in rows} == {states}
        for x, row in enumerate(rows):
            assert row == [narrow[x][y % order] for y in range(states)]

    def test_unit_profile_matches_the_single_layer_loop(self):
        # random squares of orders 1-8, so 1 to 8 layers a round; iteration
        # counts below m and not multiples of it; widths from one motif,
        # which caps the first iterate, up to ones no period reaches
        rng = random.Random(33)
        capped = 0
        for _ in range(600):
            s = rng.randint(1, 8)
            q = random_latin(s, rng.randrange(1 << 20))
            motif = [rng.randrange(s) for _ in range(rng.randint(1, 6))]
            unit = motif[:minimal_period(motif * 2)]
            width = len(motif) * rng.choice([1, 2, 3, 5, 8, 16, 64, 256, 1024])
            iterations = rng.randint(1, 3 * transforms.stack_layers(s) + 2)
            leader = rng.randrange(s)
            got = classification._unit_profile(_step(q), s, leader, unit, width, iterations)
            assert got == reference_unit_profile(q.table, leader, unit, width, iterations), \
                (q.table, leader, motif, width, iterations)
            capped += len(got) < iterations
        assert 100 < capped < 500

    @pytest.mark.parametrize("order", [257, 300])
    def test_profile_past_a_byte_matches_the_single_layer_loop(self, order):
        # one layer a round, so no state is packed into a byte
        q = random_latin(order, 0)
        motif = (0, 1, order - 1, 2)
        for leader in (0, order - 1):
            periods = reference_unit_profile(q.table, leader, list(motif), 4096, 32)
            assert period_profile(q, leader, motif) == \
                classification._points(periods, 4096, 32)

    def test_profile_at_order_1_ends(self):
        profile = period_profile(Quasigroup([[0]]), 0, (0,), 4, 32)
        assert [p.period for p in profile] == [1] * 32

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(1, 16),
           st.integers(1, 5), st.one_of(st.none(), st.permutations(range(4))),
           st.integers(1, 4))
    @example([0, 1, 2, 3], 1, 3, None, 4)       # width = |motif|: capped at k = 1
    @example([0, 1, 2, 3], 1024, 3, None, 4)    # never capped
    @example([0, 1, 0, 1], 4, 4, None, 4)       # unit shorter than the motif
    @example([2, 1, 3], 8, 5, (2, 0, 1, 3), 2)  # a leader subset
    @example([0, 1, 2, 3], 16, 1, None, 4)      # one iteration
    @settings(max_examples=25, deadline=None)
    def test_periods_match_period_profile(self, motif, copies, iterations, order, count):
        leaders = None if order is None else tuple(order[:count])
        st_ = ClassifySettings(iterations=iterations, width=len(motif) * copies,
                               motif=tuple(motif), leaders=leaders, n=1, max_len=0)
        report = census_order4(st_)
        for k, q in enumerate(enumerate_order4(), 1):
            finals = [period_profile(q, l, st_.motif, st_.width, iterations)[-1]
                      for l in st_.leaders_for(q)]
            assert report.periods[k] == max(finals, key=lambda p: p.period)
        assert report.disagreements == tuple(
            k for k, p in report.periods.items()
            if (p.period <= st_.threshold) != (report.witnesses[k] is not None))


def relabel(q, sigma):
    """q^sigma, with q^sigma[sigma x][sigma y] = sigma(q[x][y])."""
    table = [[0] * q.order for _ in range(q.order)]
    for x, y in itertools.product(range(q.order), repeat=2):
        table[sigma[x]][sigma[y]] = sigma[q.table[x][y]]
    return Quasigroup(table)


def canonical_positions(squares):
    """isomorphism_classes by brute force: first position of each least
    relabeled flattened table."""
    first = {}
    return tuple(first.setdefault(min(sum(relabel(q, sigma).table, ())
                                      for sigma in itertools.permutations(range(q.order))), i)
                 for i, q in enumerate(squares))


class TestIsomorphismClasses:
    @pytest.fixture(scope="class")
    def reps(self):
        return isomorphism_classes(enumerate_order4())

    @pytest.mark.parametrize("idx", [1, 46, 47, 355, 576])
    def test_every_relabeling_shares_the_representative(self, reps, idx):
        q = from_index(idx)
        for sigma in itertools.permutations(range(4)):
            assert reps[lex_index(relabel(q, sigma)) - 1] == reps[idx - 1]

    def test_class_count_and_sizes(self, reps):
        sizes = Counter(reps)
        assert len(sizes) == 35 and sum(sizes.values()) == 576
        assert all(reps[r] == r and r <= i for i, r in enumerate(reps))

    def test_witness_label_is_a_class_invariant(self, reps):
        labels = {}
        stacks = _stack_rows(enumerate_order4())
        for i, witness in enumerate(_first_witnesses(stacks, 4, 2, 4, False)):
            assert labels.setdefault(reps[i], witness is not None) == (witness is not None)
        assert sum(labels.values()) == 19

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_matches_brute_force_canonical_form(self, order):
        squares = [random_latin(order, seed) for seed in range(30)]
        squares += [relabel(squares[0], sigma) for sigma in itertools.permutations(range(order))]
        assert isomorphism_classes(squares) == canonical_positions(squares)

    def test_edge_cases(self):
        assert isomorphism_classes([]) == ()
        with pytest.raises(OrderNotSupported):
            isomorphism_classes([random_latin(6, 0)])


def test_published_list_integrity():
    assert len(PUBLISHED_FRACTAL) == PUBLISHED_FRACTAL_COUNT == 192
    assert list(PUBLISHED_FRACTAL) == sorted(set(PUBLISHED_FRACTAL))
    assert PUBLISHED_FRACTAL[0] == 1 and PUBLISHED_FRACTAL[-1] == 576
