"""Order-4 classification experiments.

Two independent classifiers split the 576 order-4 quasigroups:

  * witness search: a quasigroup is Fractal when some bounded-length leader
    string makes the string-transformation family member a permutation;
  * period growth: a quasigroup is Fractal when iterating the elementary
    transformation on a periodic string keeps the minimal period within a
    linear envelope for every constant leader.

Both reproduce the same published 192-member class under default settings,
and the census report surfaces any disagreement between them instead of
reconciling it silently.

The witness label is constant on isomorphism classes (see census_order4),
so the census searches exhaustively once per class: the 576 squares fall
into 35 classes, and only the members of classes with a witness are
searched again, for their own first witness.

The census keeps one period point per square, the largest final point over
its leaders, so it stops a square's leaders at the first one that caps: a
capped point reports the width, an uncapped period is at most half of it,
and every capped point is the same PeriodPoint(iterations, width, True).
"""
import itertools
from dataclasses import dataclass

import numpy as np

from . import transforms
from .budget import charge, over_by_exponent, refuse, resolve_budget
from .core import enumerate_order4
from .errors import EmptyString, FormatError, LengthMismatch, OrderNotSupported
from .transforms import Const, Index, digit_columns, e_row, family_columns, family_steps
from .transforms import check_periodic, flat_table, pack_columns, symbol_dtype
# Unused here; perfbench/tracing.py rebinds these names to count calls.
from .transforms import OwfSpec, e_transform, r_n  # noqa: F401

# Lexicographic indices (1-based) of the published Fractal class. The count
# announced alongside the list is 192, and this rendition of the list has
# exactly 192 entries; the census diff is computed against it either way.
PUBLISHED_FRACTAL_COUNT = 192
PUBLISHED_FRACTAL = (
    1, 2, 3, 4, 5, 7, 9, 11, 14, 18, 21, 24,
    25, 26, 27, 28, 37, 40, 43, 46, 49, 51, 54, 57,
    60, 63, 70, 71, 77, 80, 82, 83, 92, 93, 100, 101,
    110, 111, 113, 116, 121, 126, 127, 132, 133, 138, 139, 144,
    145, 146, 147, 148, 157, 160, 163, 166, 169, 170, 171, 172,
    174, 176, 178, 179, 182, 185, 189, 192, 196, 197, 203, 206,
    212, 213, 218, 222, 223, 228, 229, 232, 234, 235, 242, 243,
    246, 252, 253, 259, 262, 263, 269, 272, 274, 275, 284, 285,
    292, 293, 302, 303, 305, 308, 314, 315, 318, 324, 325, 331,
    334, 335, 342, 343, 345, 348, 349, 354, 355, 359, 364, 365,
    371, 374, 380, 381, 385, 388, 392, 395, 398, 399, 401, 403,
    405, 406, 407, 408, 411, 414, 417, 420, 429, 430, 431, 432,
    433, 438, 439, 444, 445, 450, 451, 456, 461, 464, 466, 467,
    476, 477, 484, 485, 494, 495, 497, 500, 506, 507, 514, 517,
    520, 523, 526, 528, 531, 534, 537, 540, 549, 550, 551, 552,
    553, 556, 559, 563, 566, 568, 570, 572, 573, 574, 575, 576,
)

FRACTAL = "Fractal"
NON_FRACTAL = "NonFractal"


def leader_strings(order, n, max_len, include_indices=False):
    """All leader strings of length 0..max_len in deterministic search order.

    Tokens at each position: constants 0..order-1, then (optionally) index
    leaders i_0..i_{n-1}; strings of a given length enumerate in product
    order over that token sequence.
    """
    tokens = _tokens(order, n, include_indices)
    for length in range(max_len + 1):
        yield from itertools.product(tokens, repeat=length)


def _tokens(order, n, include_indices):
    tokens = [Const(v) for v in range(order)]
    if include_indices:
        tokens += [Index(j) for j in range(n)]
    return tokens


def _check_search(order, n, max_len, include_indices, budget):
    """Validate a witness search and charge s^n inputs per leader string
    against the budget, before any work."""
    if n < 1:
        raise LengthMismatch("N must be at least 1")
    if max_len < 0:
        raise FormatError(f"max leader length must be non-negative, got {max_len}")
    limit = resolve_budget(budget)
    what = f"{order}^{n} inputs times the leader strings up to length {max_len}"
    ntok = order + (n if include_indices else 0)    # len(_tokens(...)), not built
    if over_by_exponent(order, n, limit) or over_by_exponent(ntok, max_len, limit):
        refuse(what, limit)
    strings = (max_len + 1 if ntok == 1
               else (ntok**(max_len + 1) - 1) // (ntok - 1))
    charge(order**n * strings, limit, what)


def _bijective(mul, s, n, squares, ids):
    """(len(squares), strings) mask: is leader string ids[:, k] a witness for
    the square whose table starts at squares[i] * s * s in mul?

    Token ids below s are constants, s + j is Index(j). Columns run
    (square, string, input); as there are exactly s^n inputs, outputs that
    cover all of Q^n make a bijection.
    """
    total = s**n
    strings = ids.shape[1]
    groups = len(squares) * strings
    chunk = min(total, max(1, transforms.CHUNK_COLUMNS // groups))
    group_tok = np.tile(ids, len(squares))
    group_off = np.repeat(np.asarray(squares, dtype=np.intp) * (s * s), strings)
    seen = np.zeros((groups, total), dtype=bool)
    for lo in range(0, total, chunk):
        m = min(total, lo + chunk) - lo
        inputs = np.tile(digit_columns(lo, lo + m, s, n, mul.dtype), groups)
        leaders = (np.repeat(tok, m) for tok in group_tok)
        state = family_columns(mul, s, family_steps(s, n, leaders), inputs,
                               np.repeat(group_off, m))
        seen[np.arange(groups).repeat(m), pack_columns(state, s)] = True
    return seen.reshape(len(squares), strings, total).all(axis=2)


def _first_witnesses(squares, n, max_len, include_indices):
    """permutation_search for each of several squares of one order, by
    length, dropping a square at its first witness."""
    s = squares[0].order
    tokens = _tokens(s, n, include_indices)
    ntok = len(tokens)
    mul = np.concatenate([flat_table(q) for q in squares])
    per_block = max(1, transforms.CHUNK_COLUMNS // s**n)    # (square, string) pairs
    witnesses = [None] * len(squares)
    pending = list(range(len(squares)))
    for length in range(max_len + 1):
        count = ntok**length
        step = min(count, per_block)
        group = max(1, per_block // count)
        for b in range(0, len(pending), group):
            batch = pending[b:b + group]
            for lo in range(0, count, step):
                batch = [i for i in batch if witnesses[i] is None]
                if not batch:
                    break
                ids = digit_columns(lo, min(count, lo + step), ntok, length, symbol_dtype(ntok))
                for i, hits in zip(batch, _bijective(mul, s, n, batch, ids)):
                    if hits.any():
                        witnesses[i] = tuple(tokens[t] for t in ids[:, hits.argmax()])
        pending = [i for i in pending if witnesses[i] is None]
        if not pending:
            break
    return witnesses


def permutation_search(q, n, max_len, include_indices=False, budget=None):
    """First leader string in leader_strings order whose family member is
    a bijection on Q^n, or None when no string within the length bound works.

    Every string of one length is evaluated on all s^n inputs at once with
    the vectorized e-step. The budget covers s^n times the number of leader
    strings and is checked before any work.
    """
    _check_search(q.order, n, max_len, include_indices, budget)
    return _first_witnesses([q], n, max_len, include_indices)[0]


def minimal_period(seq):
    """Smallest p >= 1 with seq[i] == seq[i+p] wherever both sides exist.

    Border-based: p = len - (longest proper border), the standard prefix
    function construction.
    """
    n = len(seq)
    if n == 0:
        return 0
    pi = [0] * n
    k = 0
    for i in range(1, n):
        while k and seq[i] != seq[k]:
            k = pi[k - 1]
        if seq[i] == seq[k]:
            k += 1
        pi[i] = k
    return n - pi[-1]


@dataclass(frozen=True)
class PeriodPoint:
    """Minimal period of iterate k, exact: the length of the unit the
    purely periodic iterate repeats. Reported as is while 2 * period <= width;
    beyond that, period is the width and capped is set, for this iterate and
    every later one (periods never decrease). By the Fine-Wilf theorem this
    equals the minimal period of the first width symbols whenever the true
    period is at most width / 2."""

    k: int
    period: int
    capped: bool


@dataclass(frozen=True)
class ClassifySettings:
    """Defaults calibrated so both classifiers reproduce the published
    192-member class."""

    alpha: int = 4
    iterations: int = 32
    width: int = 4096
    motif: tuple = (0, 1, 2, 3)
    leaders: tuple = None  # None: every constant leader of the quasigroup
    n: int = 2
    max_len: int = 4
    include_indices: bool = False

    def __post_init__(self):
        for name, least in (("iterations", 1), ("n", 1), ("max_len", 0), ("alpha", 0)):
            if getattr(self, name) < least:
                raise FormatError(f"{name} must be at least {least}, "
                                  f"got {getattr(self, name)}")

    @property
    def threshold(self):
        return self.alpha * self.iterations * len(self.motif)

    def leaders_for(self, q):
        """The constant leaders to profile on q, checked against its symbols."""
        leaders = tuple(range(q.order)) if self.leaders is None else tuple(self.leaders)
        if not leaders:
            raise EmptyString("the leader set is empty")
        q._check(*leaders)
        return leaders


@dataclass
class ClassLabel:
    label: str
    permutation_witness: tuple
    period_profile: tuple       # profile of the leader with the largest final period
    profiles: dict              # leader -> tuple of PeriodPoint
    period_at_k: int            # max over leaders of the final reported period

    @property
    def is_fractal(self):
        return self.label == FRACTAL


def _start_unit(q, motif, width, iterations):
    """The shortest unit whose repetition is the periodic extension of motif,
    after checking motif and width and charging width * iterations, the
    most symbols one profile steps, against the budget."""
    motif = list(motif)
    check_periodic(q, motif, width)
    charge(width * iterations, resolve_budget(), f"width {width} times {iterations} iterations")
    return motif[:minimal_period(motif * 2)]


def _unit_profile(table, leader, unit, width, iterations):
    """period_profile without checks, from the start string's unit.

    If the iterate repeats a unit U of minimal length P, one pass of the
    e-step over U maps the state permutation-wise, and the leader returns
    to itself after c <= s passes. The next iterate then repeats the e-step
    of c copies of U, and P * c is its minimal period: periods are
    multiples of P (the step is invertible), and a shift by fewer copies
    would start a copy from a different state, hence a different symbol.
    """
    points = []
    capped = False
    for k in range(1, iterations + 1):
        if not capped:
            nxt = []
            x = leader
            while True:
                block = e_row(table, x, unit)
                nxt += block
                x = block[-1]
                least = len(nxt) if x == leader else len(nxt) + len(unit)
                if 2 * least > width:       # the next period is at least this
                    capped = True
                    break
                if x == leader:
                    unit = nxt
                    break
        points.append(PeriodPoint(k, width, True) if capped
                      else PeriodPoint(k, len(unit), False))
    return tuple(points)


def period_profile(q, leader, motif=(0, 1, 2, 3), width=4096, iterations=32):
    """Minimal period of each iterate of the leader-l elementary
    transformation, starting from the periodic extension of motif to width
    (see PeriodPoint for what is reported)."""
    unit = _start_unit(q, motif, width, iterations)
    q._check(leader)
    return _unit_profile(q.table, leader, unit, width, iterations)


def classify(q, settings=None):
    """Label by period growth; attach a permutation witness independently.

    Fractal means every constant leader keeps the final reported period
    within alpha * iterations * |motif|.
    """
    st = settings or ClassifySettings()
    profiles = {}
    for l in st.leaders_for(q):
        profiles[l] = period_profile(q, l, st.motif, st.width, st.iterations)
    worst = max(profiles, key=lambda l: profiles[l][-1].period)
    period_at_k = profiles[worst][-1].period
    label = FRACTAL if period_at_k <= st.threshold else NON_FRACTAL
    witness = permutation_search(q, st.n, st.max_len, st.include_indices)
    return ClassLabel(label=label, permutation_witness=witness,
                      period_profile=profiles[worst], profiles=profiles,
                      period_at_k=period_at_k)


@dataclass
class CensusReport:
    """Census of all 576 order-4 quasigroups.

    labels follow the witness criterion; period data is attached per entry
    and any disagreement between the two criteria lands in disagreements.
    Indices are 1-based lexicographic.
    """

    fractal: tuple
    non_fractal: tuple
    witnesses: dict             # index -> leader tuple or None
    periods: dict               # index -> PeriodPoint at the final iterate
    parameters: "ClassifySettings"
    disagreements: tuple = ()   # indices where period label != witness label

    @property
    def published_missing(self):
        return tuple(sorted(set(PUBLISHED_FRACTAL) - set(self.fractal)))

    @property
    def published_extra(self):
        return tuple(sorted(set(self.fractal) - set(PUBLISHED_FRACTAL)))

    @property
    def matches_published(self):
        return not self.published_missing and not self.published_extra


def isomorphism_classes(squares):
    """For each of several squares of one order, the 0-based position of
    its isomorphism class's representative: the class's first member in
    the given order.

    Relabeling q by sigma gives q^sigma[sigma x][sigma y] = sigma(q[x][y]).
    A square's canonical key is the least of its relabeled flattened tables
    over every sigma, packed in base s (exact in int64 up to order 5, as
    5^25 < 2^63), so squares are isomorphic exactly when their keys match.
    """
    if not squares:
        return ()
    s = squares[0].order
    if s > 5:
        raise OrderNotSupported(f"isomorphism classes are computed up to order 5, got {s}")
    tables = np.array([q.table for q in squares], dtype=np.int64).reshape(len(squares), s * s)
    weights = s ** np.arange(s * s - 1, -1, -1, dtype=np.int64)
    key = None
    for sigma in map(np.array, itertools.permutations(range(s))):
        inverse = np.argsort(sigma)     # cell (u, v) of q^sigma is sigma(q[inverse u][inverse v])
        cells = (inverse[:, None] * s + inverse).ravel()
        packed = sigma[tables[:, cells]] @ weights
        key = packed if key is None else np.minimum(key, packed)
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    return tuple(first[which].tolist())


def census_order4(settings=None):
    """Classify all 576 order-4 quasigroups by witness search, with the
    period criterion computed alongside for the coincidence check.

    The witness label is searched once per isomorphism class. Relabeling by
    sigma commutes with the e-step: e^{q^sigma}_{sigma l}(sigma a) =
    sigma(e^q_l(a)). Index leaders read input symbols, which are relabeled
    with the input, so R_N^{q^sigma, sigma L} = sigma . R_N^{q,L} . sigma^-1,
    a bijection exactly when R_N^{q,L} is. As sigma also permutes the leader
    strings of each length, a class has a witness within the length bound
    exactly when its representative has, for every N, length bound and
    token set. Which witness comes first in leader_strings order is not
    invariant (sigma reorders the constants), so each member of a witnessed
    class is searched for its own.

    A square's period point is the largest final PeriodPoint over its
    leaders, and its leaders are profiled in order only up to the first
    whose point is capped. That is exact: a capped point reports the width
    and an uncapped period is at most width / 2, so no later leader can
    raise the point, its label or the disagreement check; and as every
    capped point equals PeriodPoint(iterations, width, True), it does not
    matter which of several capped leaders supplies it.
    """
    st = settings or ClassifySettings()
    squares = enumerate_order4()
    leaders = st.leaders_for(squares[0])
    unit = _start_unit(squares[0], st.motif, st.width, st.iterations)
    _check_search(squares[0].order, st.n, st.max_len, st.include_indices, None)
    search = (st.n, st.max_len, st.include_indices)
    rep = isomorphism_classes(squares)
    heads = sorted(set(rep))
    labels = dict(zip(heads, _first_witnesses([squares[i] for i in heads], *search)))
    members = [i for i, r in enumerate(rep) if labels[r] is not None]
    found = (dict(zip(members, _first_witnesses([squares[i] for i in members], *search)))
             if members else {})
    witnesses = [found.get(i) for i in range(len(squares))]
    fractal, non_fractal, periods, disagree = [], [], {}, []
    for idx, (q, witness) in enumerate(zip(squares, witnesses), 1):
        finals = []
        for l in leaders:
            finals.append(_unit_profile(q.table, l, unit, st.width, st.iterations)[-1])
            if finals[-1].capped:
                break
        point = max(finals, key=lambda p: p.period)
        periods[idx] = point
        (fractal if witness is not None else non_fractal).append(idx)
        if (point.period <= st.threshold) != (witness is not None):
            disagree.append(idx)
    return CensusReport(fractal=tuple(fractal), non_fractal=tuple(non_fractal),
                        witnesses=dict(enumerate(witnesses, 1)), periods=periods,
                        parameters=st, disagreements=tuple(disagree))
