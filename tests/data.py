"""Frozen reference values for the test suite.

Everything here was derived independently of the package (hand transcription
of published tables, plus standalone enumeration/attack scripts) and is
asserted as-is. If an entry and the implementation disagree, suspect the
implementation second: these values cross-check each other.
"""

# The running-example multiplication table (lexicographic number 355).
REFERENCE_SQUARE = [[2, 1, 0, 3], [3, 0, 1, 2], [1, 2, 3, 0], [0, 3, 2, 1]]

# Printed 28-symbol iteration example: input string plus four iterates of
# the leader-0 transformation, exactly as published.
PRINTED_ITERATION_ROWS = [
    [1, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 1, 0, 2, 2, 0, 1, 0, 1, 0, 3, 0, 0],
    [1, 3, 2, 2, 1, 3, 0, 2, 1, 3, 0, 2, 1, 0, 1, 1, 2, 1, 1, 1, 3, 3, 0, 1, 3, 1, 3, 0],
    [1, 2, 3, 2, 2, 0, 2, 3, 3, 1, 3, 2, 2, 1, 0, 1, 1, 2, 2, 2, 0, 3, 0, 1, 2, 2, 0, 2],
    [1, 1, 2, 3, 2, 1, 1, 2, 0, 1, 2, 3, 2, 2, 1, 0, 1, 1, 1, 1, 3, 1, 3, 3, 2, 3, 0, 0],
    [1, 0, 0, 3, 2, 2, 2, 3, 0, 1, 1, 2, 3, 2, 2, 1, 0, 1, 0, 1, 2, 2, 0, 3, 2, 0, 2, 1],
]

# The chain actually computed from the printed input row. Transitions 2->3
# and 3->4 of the printed table reproduce exactly; the first two printed
# rows each carry one transcription slip (position 16 of row 0 and position
# 17 of row 1 print 1 where consistency forces 3), whose downstream effect
# is the mismatch sets below.
ITERATION_CHAIN_FROM_PRINTED = [
    [1, 3, 2, 2, 1, 3, 0, 2, 1, 3, 0, 2, 1, 0, 1, 1, 0, 2, 3, 2, 1, 0, 2, 2, 1, 2, 1, 3],
    [1, 2, 3, 2, 2, 0, 2, 3, 3, 1, 3, 2, 2, 1, 0, 1, 3, 2, 0, 0, 1, 3, 2, 3, 3, 2, 2, 0],
    [1, 1, 2, 3, 2, 1, 1, 2, 0, 1, 2, 3, 2, 2, 1, 0, 3, 2, 1, 3, 3, 1, 1, 2, 0, 0, 0, 2],
    [1, 0, 0, 3, 2, 2, 2, 3, 0, 1, 1, 2, 3, 2, 2, 1, 2, 3, 3, 1, 2, 2, 2, 3, 0, 2, 1, 1],
]
PRINTED_ITERATION_MISMATCHES = {
    0: tuple(range(16, 28)),
    1: tuple(range(17, 28)),
    2: (),
    3: (),
}
# (transition, position, printed symbol, consistency-forced symbol)
PRINTED_ITERATION_TYPOS = ((0, 16, 1, 3), (1, 17, 1, 3))

# Worked single-reverse / double-reverse example: input and all
# intermediate rows. Leaders are the reversed input, applied twice for the
# double-reverse variant.
REVERSE_EXAMPLE_INPUT = (0, 1, 2, 3, 0)
REVERSE_EXAMPLE_R1_ROWS = [
    (2, 2, 3, 1, 3),
    (2, 3, 1, 0, 3),
    (3, 1, 0, 2, 0),
    (2, 2, 1, 1, 3),
    (0, 0, 1, 0, 3),
]
REVERSE_EXAMPLE_R2_ROWS = [
    (2, 1, 0, 2, 0),
    (2, 2, 1, 1, 3),
    (3, 2, 2, 2, 0),
    (2, 3, 2, 3, 0),
    (0, 3, 2, 0, 2),
]
R1_OUTPUT = (0, 0, 1, 0, 3)
R2_OUTPUT = (0, 3, 2, 0, 2)

# Index-leader worked example at N=2, input (0,1): resolved leader
# sequences and the full trace rows for both leader strings.
INDEX_LEADER_LEFT_RESOLVED = (3, 3, 1, 0, 1, 0, 1, 0)    # from L = 3,3,i1,i0
INDEX_LEADER_LEFT_ROWS = [(0, 1), (0, 1), (0, 1), (3, 3), (3, 1), (2, 2), (0, 0),
                    (3, 0), (3, 0)]
INDEX_LEADER_RIGHT_RESOLVED = (3, 3, 0, 1, 1, 0, 1, 0)   # from L = 3,3,i0,i1
INDEX_LEADER_RIGHT_ROWS = [(0, 1), (0, 1), (0, 1), (2, 2), (1, 1), (0, 1), (2, 2),
                     (1, 1), (1, 0)]

# Full packed-value maps of the two N=2 family members over the reference square.
N2_PERMUTATION_MAP = {0: 1, 1: 12, 2: 7, 3: 10, 4: 3, 5: 14, 6: 5, 7: 8,
         8: 6, 9: 11, 10: 0, 11: 13, 12: 4, 13: 9, 14: 2, 15: 15}
N2_TWO_REGULAR_MAP = {0: 1, 1: 4, 2: 14, 3: 11, 4: 11, 5: 14, 6: 4, 7: 1,
         8: 15, 9: 10, 10: 0, 11: 5, 12: 5, 13: 0, 14: 10, 15: 15}

# Enumeration anchors: tables at selected 1-based lexicographic indices.
TABLE_AT_1 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
TABLE_AT_5 = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))  # mod-4 addition
TABLE_AT_6 = ((0, 1, 2, 3), (1, 2, 3, 0), (3, 0, 1, 2), (2, 3, 0, 1))
TABLE_AT_46 = ((0, 1, 3, 2), (3, 2, 0, 1), (2, 3, 1, 0), (1, 0, 2, 3))
TABLE_AT_47 = ((0, 1, 3, 2), (3, 2, 1, 0), (1, 0, 2, 3), (2, 3, 0, 1))

# Lookup-table attack references over the reference square.
R1_ATTACK_B = (0, 0, 1, 0, 3)
R1_ATTACK_PREIMAGES = [(0, 0, 3, 0, 0), (0, 1, 2, 3, 0), (0, 2, 0, 1, 0), (0, 3, 1, 2, 0)]
R1_ATTACK_GUESSES = 16
R2_ATTACK_B = (0, 3, 2, 0, 2)
R2_ATTACK_PREIMAGES = [(0, 1, 2, 3, 0), (2, 1, 2, 0, 0)]

# Period trajectories, leader 0, window 4096, motif 0123.
P46_PROFILE_L0 = [8, 8, 16, 16, 16, 16, 32, 32, 32, 32, 32, 32, 32, 32,
                  64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64,
                  64, 64, 128, 128]
P47_PROFILE_L0_PREFIX = [4, 12, 12, 36, 36, 144, 432, 1296]  # capped after k=8
P1_PROFILE_L0_PREFIX = [4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16]

# Witnesses found by the bounded search when index leaders are allowed at
# N=2 (they change the class boundary; constants-only reproduces the
# published split).
WITNESS_6_WITH_INDICES = "0,1,i0,i0"
WITNESS_47_WITH_INDICES = "i0,i0"

# Benchmark square generation: seeds 0..118 yield exactly 100 squares that
# are both non-commutative and non-associative.
BENCHMARK_SEEDS_CONSUMED = 119


def shuffled_cyclic(s, rnd):
    """An order-s Latin square p[(i + c[j]) % s] with p and c shuffled by
    rnd: an isotope of Z_s, built without a search at any order."""
    p = list(range(s))
    c = list(range(s))
    rnd.shuffle(p)
    rnd.shuffle(c)
    return [[p[(i + c[j]) % s] for j in range(s)] for i in range(s)]
