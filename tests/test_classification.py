import itertools
import time
from collections import Counter

import pytest
from hypothesis import given, settings
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
from qows import classification
from qows.classification import _first_witnesses

import data
from oracles import reference_witness, window_profile, window_rows

random_squares = st.builds(random_latin, st.integers(2, 6), st.integers(0, 10**6))


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

    @pytest.mark.parametrize("leader", [-1, 5])
    def test_out_of_range_leader_rejected(self, leader):
        with pytest.raises(SymbolOutOfRange):
            census_order4(ClassifySettings(leaders=(leader,)))

    @pytest.mark.parametrize("n, max_len, include_indices",
                             [(1, 4, False), (3, 2, False), (2, 2, True)])
    def test_witnesses_match_per_square_search(self, n, max_len, include_indices):
        report = census_order4(ClassifySettings(n=n, max_len=max_len,
                                                include_indices=include_indices))
        expected = _first_witnesses(enumerate_order4(), n, max_len, include_indices)
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

    def test_period_stage_stops_at_the_first_capped_leader(self, monkeypatch):
        calls = []
        profile = classification._unit_profile
        monkeypatch.setattr(classification, "_unit_profile",
                            lambda *args: calls.append(args[1]) or profile(*args))
        census_order4()
        assert len(calls) == 1160


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
        for i, witness in enumerate(_first_witnesses(enumerate_order4(), 2, 4, False)):
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
