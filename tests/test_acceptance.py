"""Acceptance suite: one test per acceptance criterion, each ending in a
single PASS line (printed; run with -s or check the captured output).

Reference values come from tests/data.py (independent derivations and
transcribed published tables). Heavy shared computations (the census, the
benchmark square set) live in session fixtures.
"""
import hashlib
import itertools
import random
import statistics
import time

import numpy as np
import pytest

from qows import (
    Const,
    Index,
    OwfSpec,
    Quasigroup,
    attack_r1,
    attack_r2,
    brute_preimages,
    decode_image,
    e_inverse,
    e_transform,
    enumerate_order4,
    from_index,
    lex_index,
    pack_string,
    preimage_histogram,
    r1,
    r2,
    r_n,
    random_latin,
    render_iterations,
    serialize_census_report,
    transformation_rows,
    unpack_string,
)
from qows.classification import classify

import data


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


def test_criterion_01_iteration_example(ref_square):
    """28-symbol iteration example, per-transition, with the two documented
    printed-cell slips pinned exactly."""
    t0 = time.perf_counter()
    printed = [tuple(r) for r in data.PRINTED_ITERATION_ROWS]
    computed = [e_transform(ref_square, 0, row) for row in printed[:4]]
    elapsed = time.perf_counter() - t0

    for k in range(4):
        mism = tuple(j for j in range(28) if computed[k][j] != printed[k + 1][j])
        assert mism == data.PRINTED_ITERATION_MISMATCHES[k], (
            f"transition {k}: unexpected mismatch set {mism}")

    # each broken transition is explained by exactly one slipped cell in the
    # predecessor row: correcting it reproduces the printed successor
    for k, pos, printed_sym, forced_sym in data.PRINTED_ITERATION_TYPOS:
        fixed = list(printed[k])
        assert fixed[pos] == printed_sym
        fixed[pos] = forced_sym
        assert e_transform(ref_square, 0, fixed) == printed[k + 1], (
            f"transition {k} is not a single-cell slip")

    # and the chain computed from the printed input matches its own freeze
    row = printed[0]
    for expected in data.ITERATION_CHAIN_FROM_PRINTED:
        row = e_transform(ref_square, 0, row)
        assert row == tuple(expected)

    assert elapsed < 0.001, f"4 iterations took {elapsed * 1000:.3f} ms"
    report(1, "iteration example reproduced per transition; 2 printed cells "
              "(row 0 pos 16, row 1 pos 17) deviate as documented typos; "
              f"runtime {elapsed * 1e6:.0f} us")


@pytest.mark.xfail(reason="printed rows 0 and 1 each carry a single-cell "
                          "transcription slip (1 where consistency forces 3); "
                          "transitions 2->3 and 3->4 match symbol-for-symbol",
                   strict=True)
def test_criterion_01_strict_symbol_for_symbol(ref_square):
    row = tuple(data.PRINTED_ITERATION_ROWS[0])
    for k in range(1, 5):
        row = e_transform(ref_square, 0, row)
        assert row == tuple(data.PRINTED_ITERATION_ROWS[k])


def test_criterion_02_reverse_transform_example(ref_square):
    t0 = time.perf_counter()
    got_r1 = r1(ref_square, data.REVERSE_EXAMPLE_INPUT)
    got_r2 = r2(ref_square, data.REVERSE_EXAMPLE_INPUT)
    leaders = tuple(reversed(data.REVERSE_EXAMPLE_INPUT))
    rows_r1 = transformation_rows(ref_square, leaders, data.REVERSE_EXAMPLE_INPUT)
    rows_r2 = transformation_rows(ref_square, leaders * 2, data.REVERSE_EXAMPLE_INPUT)
    elapsed = time.perf_counter() - t0

    assert got_r1 == data.R1_OUTPUT == (0, 0, 1, 0, 3)
    assert got_r2 == data.R2_OUTPUT == (0, 3, 2, 0, 2)
    assert list(rows_r1[1:]) == data.REVERSE_EXAMPLE_R1_ROWS
    assert list(rows_r2[1:6]) == data.REVERSE_EXAMPLE_R1_ROWS
    assert list(rows_r2[6:]) == data.REVERSE_EXAMPLE_R2_ROWS
    assert elapsed < 0.001
    report(2, "single- and double-reverse outputs and every intermediate row "
              f"match; runtime {elapsed * 1e6:.0f} us")


def test_criterion_03_index_leader_example(ref_square):
    left = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(1), Index(0)))
    right = OwfSpec(ref_square, 2, (Const(3), Const(3), Index(0), Index(1)))

    got_left = {v: pack_string(r_n(left, unpack_string(v, 4, 2)), 4)
                for v in range(16)}
    got_right = {v: pack_string(r_n(right, unpack_string(v, 4, 2)), 4)
                 for v in range(16)}
    assert got_left == data.N2_PERMUTATION_MAP
    assert got_right == data.N2_TWO_REGULAR_MAP

    hist_left = preimage_histogram(left)
    assert hist_left.is_permutation

    hist_right = preimage_histogram(right)
    assert not hist_right.is_permutation
    assert hist_right.is_regular
    nonzero = hist_right.counts[hist_right.counts > 0]
    assert nonzero.tolist() == [2] * 8
    report(3, "both 16-point maps reproduce exactly; one flagged permutation, "
              "one flagged 2-regular")


def test_criterion_04_enumeration_anchors(ref_square):
    squares = enumerate_order4()
    assert len(squares) == 576
    for q in squares[:20] + squares[-5:]:
        Quasigroup([list(r) for r in q.table])  # revalidates
    assert lex_index(ref_square) == 355
    report(4, "576 squares enumerated; running example sits at "
              "lexicographic number 355")


def test_criterion_05_census_reproduction(census_default):
    rep, elapsed = census_default
    assert len(rep.fractal) == 192
    assert len(rep.non_fractal) == 384
    # the diff against the published list is part of the report
    text = serialize_census_report(rep)
    assert "# published-diff missing 0 extra 0" in text
    assert rep.published_missing == ()
    assert rep.published_extra == ()
    assert elapsed < 600
    report(5, f"census split 192/384; published-list diff empty; "
              f"runtime {elapsed:.1f} s single worker")


def test_criterion_06_classifier_coincidence(census_default):
    rep, elapsed = census_default
    assert rep.disagreements == ()
    c46 = classify(from_index(46))
    c47 = classify(from_index(47))
    assert c46.label == "Fractal"
    assert c47.label == "NonFractal"
    assert elapsed < 300
    report(6, "period-growth and witness classifiers agree on all 576; "
              "square 46 Fractal, square 47 NonFractal")


def test_criterion_07_attack_equivalence(ref_square):
    t0 = time.perf_counter()
    for n in range(1, 6):
        by_output_r1 = {}
        by_output_r2 = {}
        for a in itertools.product(range(4), repeat=n):
            by_output_r1.setdefault(r1(ref_square, a), []).append(a)
            by_output_r2.setdefault(r2(ref_square, a), []).append(a)
        for b in itertools.product(range(4), repeat=n):
            want_r1 = sorted(by_output_r1.get(b, []))
            want_r2 = sorted(by_output_r2.get(b, []))
            assert attack_r1(ref_square, b).preimages == want_r1, (n, b)
            assert attack_r2(ref_square, b).preimages == want_r2, (n, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(7, "attack preimage sets equal exhaustive enumeration for every "
              f"output with N <= 5; runtime {elapsed:.1f} s")


def _benchmark_input(q, n, case):
    rng = random.Random(1234 + n * 1000 + case)
    return tuple(rng.randrange(4) for _ in range(n))


def test_criterion_08_grid_attack_cost_bound(benchmark_squares):
    worst = {}
    for n in (6, 9, 12):
        bound = 4 * 4 ** (n // 3)
        worst[n] = 0
        for i, q in enumerate(benchmark_squares):
            a = _benchmark_input(q, n, i)
            b = r1(q, a)
            trace = attack_r1(q, b)
            assert a in trace.preimages, (n, i)
            for p in trace.preimages:
                assert r1(q, p) == b
            assert trace.guesses <= bound, (n, i, trace.guesses)
            worst[n] = max(worst[n], trace.guesses)
    report(8, "100 unstructured squares, N in {6,9,12}: preimage always "
              f"recovered, guesses <= 4*4^(N/3); worst {worst}")


def test_criterion_09_double_reverse_separation(benchmark_squares):
    r1_guesses = []
    r2_guesses = []
    n = 9
    for i, q in enumerate(benchmark_squares):
        a = _benchmark_input(q, n, 500 + i)
        r1_guesses.append(attack_r1(q, r1(q, a)).guesses)
        r2_guesses.append(attack_r2(q, r2(q, a)).guesses)
    med1 = statistics.median(r1_guesses)
    med2 = statistics.median(r2_guesses)
    assert med2 >= 4 * med1, (med1, med2)

    # the verifiable stand-in for the asymptotic claim: the brute-force
    # counter is exactly s^N
    q355 = Quasigroup(data.REFERENCE_SQUARE)
    for n_small in range(1, 9):
        b = r2(q355, tuple([0, 1, 2, 3] * 2)[:n_small])
        assert brute_preimages(OwfSpec(q355, n_small, ()), b).guesses == 4**n_small
    report(9, f"median double-reverse guesses {med2:.0f} >= 4 x median "
              f"single-reverse guesses {med1:.0f} at N=9; brute counter is "
              "s^N for N <= 8")


def test_criterion_10_round_trip_suite():
    rng = random.Random(20260819)
    # 10,000 random (q, l, A) samples across orders 2..8
    square_pool = {}
    for _ in range(10_000):
        order = rng.randrange(2, 9)
        seed = rng.randrange(64)
        key = (order, seed)
        if key not in square_pool:
            square_pool[key] = random_latin(order, seed)
        q = square_pool[key]
        n = rng.randrange(1, 17)
        a = tuple(rng.randrange(order) for _ in range(n))
        l = rng.randrange(order)
        assert e_inverse(q, l, e_transform(q, l, a)) == a

    # exhaustive at order 4: every square, leader, and string of length <= 4
    strings = [a for n in range(1, 5)
               for a in itertools.product(range(4), repeat=n)]
    for q in enumerate_order4():
        table = q.table
        ld = q._ldiv
        for l in range(4):
            for a in strings:
                x = l
                b = []
                for s in a:
                    x = table[x][s]
                    b.append(x)
                prev = l
                back = []
                for y in b:
                    back.append(ld[prev][y])
                    prev = y
                assert tuple(back) == a

    # division consistency identities, exhaustively over all 576 squares
    for q in enumerate_order4():
        for u, v in itertools.product(range(4), repeat=2):
            assert q.mul(u, q.ldiv(u, v)) == v
            assert q.mul(q.rdiv(u, v), u) == v
            assert q.ldiv(u, q.mul(u, v)) == v
            assert q.rdiv(v, q.mul(u, v)) == u
    report(10, "inverse transformation undoes the transformation on 10,000 "
               "random samples and exhaustively at order 4 (N <= 4); division "
               "identities hold on all 576 squares")


# SHA-256 of the 600x600 leader-0 renders of squares 46 and 47, as the
# row-by-row renderer produced them
RENDER_SHA256 = {
    46: "daffa76739ed4d72943ad96c88bd7246622e50d0446b2b84e3704ba5b5ffcdf0",
    47: "68f44fc82d10c9d19a4da84f1011e35d858fd23e7dcb501f07f1fdfffcfe80fa",
}


def test_criterion_11_render_determinism():
    blobs = {}
    for idx in (46, 47):
        q = from_index(idx)
        first = render_iterations(q, 0, (0, 1, 2, 3), 600, 599)
        second = render_iterations(q, 0, (0, 1, 2, 3), 600, 599)
        assert first == second
        assert first.startswith(b"P6\n600 600\n255\n")
        assert hashlib.sha256(first).hexdigest() == RENDER_SHA256[idx]
        blobs[idx] = first
    assert blobs[46] != blobs[47]

    q = from_index(46)
    rows = decode_image(blobs[46], 4)
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randrange(599)
        assert rows[k + 1] == e_transform(q, 0, rows[k])
    report(11, "two 600x600 renders byte-identical per square and equal to "
               "their pinned SHA-256; 20 sampled "
               "rows advance by the transformation under palette decoding")
