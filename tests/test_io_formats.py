import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qows import (
    AttackTrace,
    BudgetExceeded,
    Const,
    Quasigroup,
    EntryOutOfRange,
    FormatError,
    Index,
    OrderNotSupported,
    OwfSpec,
    PreimageHistogram,
    decode_image,
    e_transform,
    from_index,
    palette,
    parse_leaders,
    parse_quasigroup,
    parse_string,
    preimage_histogram,
    random_latin,
    render_iterations,
    serialize_attack_trace,
    serialize_census_json,
    serialize_census_report,
    serialize_histogram,
    serialize_leaders,
    serialize_quasigroup,
    serialize_string,
)
from qows import io_formats
from qows.classification import CensusReport, ClassifySettings, PeriodPoint

import data
from oracles import reference_histogram_text, reference_render

T1_TEXT = "4\n2 1 0 3\n3 0 1 2\n1 2 3 0\n0 3 2 1\n"


class TestQuasigroupFormat:
    def test_parse_reference_square(self, ref_square):
        assert parse_quasigroup(T1_TEXT) == ref_square

    def test_serialize_canonical(self, ref_square):
        assert serialize_quasigroup(ref_square) == T1_TEXT

    def test_round_trip_is_idempotent(self, ref_square):
        once = serialize_quasigroup(parse_quasigroup(T1_TEXT))
        twice = serialize_quasigroup(parse_quasigroup(once))
        assert once == twice == T1_TEXT

    def test_comments_and_whitespace(self):
        text = "# table\n\n 1 \n# more\n 0 \n"
        assert parse_quasigroup(text).order == 1

    def test_order_one(self):
        assert parse_quasigroup("1\n0\n").order == 1

    def test_missing_rows(self):
        with pytest.raises(FormatError):
            parse_quasigroup("4\n2 1 0 3\n")

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError) as ei:
            parse_quasigroup("2\n0 1\nx y\n")
        assert ei.value.line == 3
        assert "line 3" in str(ei.value)

    def test_extra_row(self):
        with pytest.raises(FormatError):
            parse_quasigroup("1\n0\n0\n")

    def test_ragged_row(self):
        with pytest.raises(FormatError):
            parse_quasigroup("2\n0 1\n1\n")

    def test_validation_errors_propagate(self):
        with pytest.raises(EntryOutOfRange):
            parse_quasigroup("2\n0 5\n1 0\n")

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_quasigroup("# nothing here\n")

    @given(st.integers(0, 300), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, seed, order):
        q = random_latin(order, seed)
        assert parse_quasigroup(serialize_quasigroup(q)) == q


class TestStringFormat:
    def test_compact(self):
        assert parse_string("01230", 4) == (0, 1, 2, 3, 0)

    def test_spaced(self):
        assert parse_string("0 1 2 3 0", 4) == (0, 1, 2, 3, 0)
        assert parse_string(" 2 ", 4) == (2,)

    def test_large_order_is_never_compact(self):
        assert parse_string("11", 12) == (11,)
        assert parse_string("11 0", 12) == (11, 0)

    def test_out_of_range(self):
        with pytest.raises(FormatError):
            parse_string("04", 4)
        with pytest.raises(FormatError):
            parse_string("5", 4)

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_string("  ", 4)

    def test_serialize(self):
        assert serialize_string((0, 3, 2, 0, 2), 4) == "03202"
        assert serialize_string((11, 0), 12) == "11 0"

    def test_round_trip(self):
        for order, a in [(4, (0, 1, 2, 3, 0)), (10, (9, 0, 9)), (16, (15, 3, 0))]:
            assert parse_string(serialize_string(a, order), order) == a


class TestLeaderFormat:
    def test_parse_mixed(self):
        assert parse_leaders("3,3,i1,i0") == (Const(3), Const(3), Index(1), Index(0))

    def test_empty_forms(self):
        assert parse_leaders("") == ()
        assert parse_leaders("()") == ()
        assert serialize_leaders(()) == "()"

    def test_round_trip(self):
        for text in ["0", "3,2,1", "i0", "3,3,i1,i0", "i2,0,i0"]:
            assert serialize_leaders(parse_leaders(text)) == text

    def test_bad_tokens(self):
        for bad in ["x", "3,,2", "i", "iq", "3.5"]:
            with pytest.raises(FormatError):
                parse_leaders(bad)


class TestPalette:
    def test_order4_reference(self):
        assert palette(4) == ((255, 255, 255), (170, 170, 170),
                              (85, 85, 85), (0, 0, 0))

    def test_distinct_colors(self):
        for order in range(1, 17):
            pal = palette(order)
            assert len(set(pal)) == order

    def test_extremes(self):
        for order in range(2, 17):
            pal = palette(order)
            assert pal[0] == (255, 255, 255)
            assert pal[-1] == (0, 0, 0)


class TestRender:
    def test_header_and_size(self):
        img = render_iterations(from_index(46), 0, (0, 1, 2, 3), 64, 15)
        assert img.startswith(b"P6\n64 16\n255\n")
        assert len(img) == len(b"P6\n64 16\n255\n") + 64 * 16 * 3

    def test_deterministic(self):
        a = render_iterations(from_index(46), 0, (0, 1, 2, 3), 128, 31)
        b = render_iterations(from_index(46), 0, (0, 1, 2, 3), 128, 31)
        assert a == b

    def test_row_zero_is_motif(self):
        img = render_iterations(from_index(46), 0, (0, 1, 2, 3), 16, 0)
        rows = decode_image(img, 4)
        assert rows == [(0, 1, 2, 3) * 4]

    def test_rows_follow_the_transformation(self, ref_square):
        img = render_iterations(ref_square, 2, (0, 1, 2, 3), 32, 9)
        rows = decode_image(img, 4)
        for k in range(9):
            assert rows[k + 1] == e_transform(ref_square, 2, rows[k])

    def test_text_variant_decodes_identically(self, ref_square):
        p6 = render_iterations(ref_square, 0, (0, 1, 2, 3), 16, 3)
        p3 = render_iterations(ref_square, 0, (0, 1, 2, 3), 16, 3, text=True)
        assert p3.startswith(b"P3\n")
        assert decode_image(p6, 4) == decode_image(p3, 4)

    def test_width_must_fit_motif(self, ref_square):
        with pytest.raises(FormatError):
            render_iterations(ref_square, 0, (0, 1, 2), 16, 3)

    @given(st.integers(2, 300), st.randoms(use_true_random=False),
           st.integers(1, 4), st.integers(1, 50), st.integers(0, 60), st.booleans())
    @example(256, random.Random(0), 4, 50, 60, False)
    @example(257, random.Random(1), 1, 3, 60, True)
    @example(300, random.Random(2), 3, 20, 59, False)
    @example(4, random.Random(3), 2, 1, 0, True)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, order, rnd, motif_len, repeats, iterations, text):
        # wide and tall grids alike: width runs from one motif to 50 motifs
        q = Quasigroup(data.shuffled_cyclic(order, rnd))
        motif = tuple(rnd.randrange(order) for _ in range(motif_len))
        width = motif_len * repeats
        leaders = range(order) if order <= 8 else [rnd.randrange(order)]
        for leader in leaders:
            got = render_iterations(q, leader, motif, width, iterations, text=text)
            assert got == reference_render(q, leader, motif, width, iterations, text=text)

    def test_budget_bounds_the_cells(self, ref_square, monkeypatch):
        def unreachable(*args):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setenv("QOWS_BUDGET", "1000")
        monkeypatch.setattr(io_formats, "periodic_row", unreachable)
        monkeypatch.setattr(io_formats, "e_iterates", unreachable)
        with pytest.raises(BudgetExceeded, match="render width 600 times 600 rows exceeds budget 1000"):
            render_iterations(ref_square, 0, (0, 1, 2, 3), 600, 599)
        monkeypatch.undo()
        monkeypatch.setenv("QOWS_BUDGET", "64")
        assert render_iterations(ref_square, 0, (0, 1, 2, 3), 16, 3) == \
            reference_render(ref_square, 0, (0, 1, 2, 3), 16, 3)

    def test_decode_rejects_foreign_pixels(self):
        with pytest.raises(FormatError):
            decode_image(b"P6\n1 1\n255\n\x01\x02\x03", 4)

    @pytest.mark.parametrize("data", [
        b"P6\nx y\n255\nabc",
        b"P6\n1\n255\nabc",
        b"P3\n2",
        b"P3\n1 1\n255\n0 0 x",
        b"P3\n1 1\n255\n0 0",
        # the renderer writes maxval 255 only
        b"P6\n2 1\n7\n" + bytes([255] * 6),
        b"P3\n1 1\n9\n0 0 0",
    ])
    def test_decode_rejects_malformed_headers(self, data):
        with pytest.raises(FormatError):
            decode_image(data, 4)

    def test_decode_round_trips_at_order_256(self):
        # the last order whose grey levels are all distinct
        q = Quasigroup(data.shuffled_cyclic(256, random.Random(256)))
        motif = (0, 1, 2, 3, 254, 255)
        rows = decode_image(render_iterations(q, 7, motif, 24, 5), 256)
        assert rows[0] == motif * 4
        for k in range(5):
            assert rows[k + 1] == e_transform(q, 7, rows[k])

    @pytest.mark.parametrize("order", [257, 300])
    def test_decode_refuses_orders_whose_palette_repeats(self, order):
        # 257 or more symbols share 256 grey levels, so a decode would
        # return wrong symbols
        q = Quasigroup(data.shuffled_cyclic(order, random.Random(order)))
        img = render_iterations(q, 0, (0, 1, 2, 3), 8, 2)
        with pytest.raises(OrderNotSupported, match=f"order-{order} palette"):
            decode_image(img, order)

    @pytest.mark.parametrize("order, factor", [(4, 2), (8, 2), (16, 3), (300, 4.9)])
    def test_working_memory_of_a_render(self, order, factor):
        # the pixels are written once, into the buffer that is returned; at
        # order 300 (b = 1, uint32 tile ids) the skewed buffer of tile ids
        # alone is 2.7 times the pixmap, and 4.9 is the peak of the cell
        # sweep that came before the tiles
        q = Quasigroup(data.shuffled_cyclic(order, random.Random(order)))
        render_iterations(q, 1, (0, 1, 2, 3), 600, 599)
        tracemalloc.start()
        try:
            img = render_iterations(q, 1, (0, 1, 2, 3), 600, 599)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img == reference_render(q, 1, (0, 1, 2, 3), 600, 599)
        assert peak <= factor * 600 * 600 * 3


class TestReportSerialization:
    def test_attack_trace_record(self):
        trace = AttackTrace(preimages=[(0, 1, 2, 3, 0), (2, 1, 2, 0, 0)],
                            guesses=1024, lookups=28328, elapsed=0.0123)
        text = serialize_attack_trace(trace, 4)
        assert text == ("preimages 2\nguesses 1024\nlookups 28328\n"
                        "elapsed-ms 12.300\n01230\n21200\n")

    def test_empty_trace(self):
        trace = AttackTrace(preimages=[], guesses=16, lookups=5, elapsed=0.0)
        assert serialize_attack_trace(trace, 4) == \
            "preimages 0\nguesses 16\nlookups 5\nelapsed-ms 0.000\n"

    def test_histogram_record(self, ref_square):
        hist = preimage_histogram(OwfSpec(ref_square, 2, (Const(3), Const(3),
                                                  Index(0), Index(1))))
        text = serialize_histogram(hist)
        lines = text.splitlines()
        assert lines[0] == "domain 16"
        assert lines[1] == "permutation false"
        assert lines[2] == "regular true"
        assert lines[3] == "entries all"
        assert lines[4] == "0 2" and lines[6] == "2 0"
        assert len(lines) == 4 + 16

    @given(st.integers(1, 16), st.integers(1, 4), st.integers(0, 3),
           st.dictionaries(st.integers(0, 2**24 - 1), st.integers(0, 10**7 - 1),
                           max_size=20))
    @example(4, 6, 0, {5: 2, 4095: 1})          # domain 4096: zero counts listed
    @example(2, 13, 0, {5: 2, 8191: 1})         # domain 8192: nonzero entries only
    @example(2, 13, 1, {0: 0, 77: 0})           # all but two entries listed
    @example(16, 4, 0, {0: 5})                  # value 0 nonzero
    @example(16, 4, 0, {17: 1})                 # a single nonzero entry
    @example(16, 4, 0, {})                      # all-zero counts, none listed
    @example(2, 12, 0, {})                      # all-zero counts, all listed
    @example(16, 4, 0, {3: 7, 40: 42, 999: 10**7 - 1})    # 1, 2, 7 digits
    @example(2, 24, 0, {0: 1, 2**24 - 1: 3})    # values up to 2^24 - 1
    @settings(max_examples=60, deadline=None)
    def test_histogram_text_matches_reference(self, order, n, fill, entries):
        domain = order**n
        counts = np.zeros(domain, np.int64)    # untouched pages stay unmapped
        if fill:
            counts += fill
        for value, count in entries.items():
            counts[value % domain] = count
        hist = PreimageHistogram(counts=counts, order=order, n=n)
        got, want = serialize_histogram(hist), reference_histogram_text(hist)
        # compare line by line: pytest's diff of two texts this long on a
        # failure takes minutes
        lines = zip(got.splitlines(True), want.splitlines(True))
        assert next((pair for pair in lines if pair[0] != pair[1]), None) is None
        assert len(got) == len(want)

    @pytest.mark.parametrize("columns", [1, 7, 64, None])
    def test_histogram_blocks_match_reference(self, columns):
        # blocks of one to a few entries: numbers across 10^4 and 10^8,
        # 1-, 2- and 5-digit counts side by side, zero runs longer than a
        # block, value 0 hit, and both sides of the 4096-entry listing rule;
        # in int64 and in the uint32 that preimage_histogram counts in
        import qows.transforms as tr
        cases = []
        for dtype in (np.int64, np.uint32):
            counts = np.zeros(101**2, dtype)    # values 0..10200
            counts[[0, 9998, 9999, 10000, 10001, 10200]] = [
                7, 9999, 10000, 99_999_999, 100_000_000, 1]
            cases.append(PreimageHistogram(counts=counts, order=101, n=2))
            for order in (4096, 4097):
                counts = np.zeros(order, dtype)
                counts[:6] = [3, 42, 12345, 0, 1, 10]
                counts[200:203] = [99, 5, 10**4]
                counts[-1] = 2
                cases.append(PreimageHistogram(counts=counts, order=order, n=1))
        with mock.patch("qows.transforms.CHUNK_COLUMNS", columns or tr.CHUNK_COLUMNS):
            got = [serialize_histogram(hist) for hist in cases]
        assert got == [reference_histogram_text(hist) for hist in cases]

    @pytest.mark.parametrize("order, n", [(8, 6), (16, 5)])
    def test_working_memory_of_a_histogram_record(self, order, n):
        # a block of lines and the blocks' pieces beside their join
        hist = preimage_histogram(OwfSpec(random_latin(order, 12345), n, (Const(3), Index(1))))
        serialize_histogram(hist)
        tracemalloc.start()
        try:
            text = serialize_histogram(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == reference_histogram_text(hist)
        assert peak <= 3 * len(text)

    def _tiny_report(self):
        return CensusReport(
            fractal=(1,), non_fractal=(2, 3),
            witnesses={1: (Const(0),), 2: None, 3: None},
            periods={1: PeriodPoint(32, 64, False),
                     2: PeriodPoint(32, 4096, True),
                     3: PeriodPoint(32, 4096, True)},
            parameters=ClassifySettings(),
            disagreements=())

    def test_census_text(self):
        text = serialize_census_report(self._tiny_report())
        lines = text.splitlines()
        assert "# fractal 1" in lines
        assert "# threshold 512" in lines
        assert lines[-3] == "1 Fractal 0 64"
        assert lines[-2] == "2 NonFractal - 4096*"
        assert lines[-1] == "3 NonFractal - 4096*"

    def test_census_json_mirrors_text(self):
        import json
        doc = json.loads(serialize_census_json(self._tiny_report()))
        assert doc["fractal"] == [1]
        assert doc["nonFractal"] == [2, 3]
        assert doc["entries"][0] == {"index": 1, "label": "Fractal",
                                     "witness": "0", "period": 64,
                                     "capped": False}
        assert doc["parameters"]["threshold"] == 512
        assert doc["publishedDiff"]["missing"]  # tiny report lacks the rest
