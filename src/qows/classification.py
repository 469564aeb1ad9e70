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

One period engine, _unit_profile, serves the census, classify and
period_profile. It steps m iterates per pass over the current unit through
one stacked e-step table, whose state packs the symbols of m layers (see
transforms.stack_tables, the builder the vectorized scans share): m is the
most layers whose table has at most 256 entries, 3 at order 4 and 1 from
order 7 up, where the table is the square's own. The engine's table is
indexed by state: row x has s^m entries, entry y the state after symbol
y % s, the last layer's symbol of state y, so each round steps the last
round's states as they are (_engine_rows). One builder, _stack_rows,
gives the stacked steps of several squares as the rows of one array. The
census calls it once, for all 576 squares, and both of its stages read
those rows: the witness search steps its family members through the rows
of the squares it searches, and the period engine widens one square's row
at a time. permutation_search and period_profile read one square's row
from _square_stack, which keeps the last square asked, so a classify,
which calls period_profile for each leader and then permutation_search,
builds it once.
"""
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .budget import as_integer, charge, charge_steps, over_by_exponent, refuse, resolve_budget
from .core import enumerate_order4
from .errors import EmptyString, FormatError, LengthMismatch, OrderNotSupported
from .transforms import digit_columns, e_row, family_columns, family_steps, leader_tokens
from .transforms import blocks, check_periodic, flat_table, pack_columns
from .transforms import stack_layers, stack_tables, unpack_string
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
    order over that token sequence. The v-th string of a length has the
    base-ntok digits of v as its token ids (ntok tokens in all), decoded by
    transforms.leader_tokens, so no token is built before its string is
    yielded.
    """
    ntok = order + (n if include_indices else 0)
    for length in range(max_len + 1):
        for v in range(ntok**length):
            yield leader_tokens(unpack_string(v, ntok, length), order)


def _check_search(order, n, max_len, include_indices, budget):
    """Validate a witness search and charge s^n inputs per leader string
    against the budget, then the e-steps of one evaluation under the
    longest leader string, before any work."""
    if as_integer(n, LengthMismatch, "N") < 1:
        raise LengthMismatch("N must be at least 1")
    if as_integer(max_len, FormatError, "max leader length") < 0:
        raise FormatError(f"max leader length must be non-negative, got {max_len}")
    limit = resolve_budget(budget)
    what = f"{order}^{n} inputs times the leader strings up to length {max_len}"
    ntok = order + (n if include_indices else 0)    # counted, not built
    if over_by_exponent(order, n, limit) or over_by_exponent(ntok, max_len, limit):
        refuse(what, limit)
    strings = (max_len + 1 if ntok == 1
               else (ntok**(max_len + 1) - 1) // (ntok - 1))
    charge(order**n * strings, limit, what)
    charge_steps(max_len + 2 * n, n, limit)


def _bijective(stacks, s, n, squares, ids):
    """(len(squares), strings) mask: is leader string ids[:, k] a witness for
    the square whose stacked step is row squares[i] of stacks (_stack_rows)?

    Token ids below s are constants, s + j is Index(j). Columns run
    (square, string, input); as there are exactly s^n inputs, outputs that
    cover all of Q^n make a bijection. The per-column offsets and group
    numbers are built in the gather's index dtype, which holds stacks.size
    - 1, and the packed images in the narrowest dtype holding s^n - 1.
    """
    total = s**n
    strings = ids.shape[1]
    groups = len(squares) * strings
    group_tok = np.tile(ids, len(squares))
    dtype = np.min_scalar_type(max(stacks.size, groups) - 1)
    group_off = np.repeat((np.asarray(squares) * stacks.shape[1]).astype(dtype), strings)
    stack = stacks.ravel()
    seen = np.zeros((groups, total), dtype=bool)
    for lo, hi in blocks(total, groups):
        m = hi - lo
        inputs = np.tile(digit_columns(lo, hi, s, n), groups)
        leaders = (np.repeat(tok, m) for tok in group_tok)
        state = family_columns(stack, s, family_steps(s, n, leaders), inputs,
                               np.repeat(group_off, m))
        packed = pack_columns(state, s, np.min_scalar_type(total - 1))
        seen[np.arange(groups, dtype=dtype).repeat(m), packed] = True
    return seen.reshape(len(squares), strings, total).all(axis=2)


def _first_witnesses(stacks, s, n, max_len, include_indices):
    """permutation_search for each of several squares of order s, given as
    the rows of their stacked steps (_stack_rows), by length, dropping a
    square at its first witness."""
    ntok = s + (n if include_indices else 0)
    witnesses = [None] * len(stacks)
    pending = list(range(len(stacks)))
    for length in range(max_len + 1):
        count = ntok**length
        # batches of squares that each take every string of this length,
        # searched in blocks of strings that each take all s^n inputs
        for first, last in blocks(len(pending), count * s**n):
            batch = pending[first:last]
            for lo, hi in blocks(count, s**n):
                batch = [i for i in batch if witnesses[i] is None]
                if not batch:
                    break
                ids = digit_columns(lo, hi, ntok, length)
                for i, hits in zip(batch, _bijective(stacks, s, n, batch, ids)):
                    if hits.any():
                        witnesses[i] = leader_tokens(ids[:, hits.argmax()].tolist(), s)
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
    return _first_witnesses(_square_stack(q), q.order, n, max_len, include_indices)[0]


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
        for name in ("iterations", "width", "alpha", "n", "max_len"):
            as_integer(getattr(self, name), FormatError, name)
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


# _stack_rows builds STACK_TABLES squares' steps at a time, which keeps the
# build's index arrays to 32 KB at order 4: one pass over all 576 order-4
# tables raised the census peak RSS by 0.5 MiB.
STACK_TABLES = 64


def _stack_rows(squares):
    """The stacked step (transforms.stack_tables) of each of several squares
    of one order, as the rows of one (len(squares), s^(m+1)) array of
    symbol_dtype, m = stack_layers(s): row k is square k's step, entry
    state * s + a the state after symbol a. STACK_TABLES squares are
    built at a time. With m = 1 a row is the square's flat table."""
    s = squares[0].order
    parts = [stack_tables(flat_table(*squares[lo:lo + STACK_TABLES]), s)
             for lo in range(0, len(squares), STACK_TABLES)]
    return np.concatenate(parts).reshape(len(squares), -1)


@functools.lru_cache(maxsize=1)
def _square_stack(q):
    """_stack_rows([q]), read-only, kept for the last square asked only:
    classify's period profiles and witness search share one build, and
    nothing of an earlier square stays."""
    rows = _stack_rows([q])
    rows.flags.writeable = False
    return rows


def _engine_rows(row, s):
    """The period engine's step from an order-s square's row of
    _stack_rows, as lists: row x has s^m entries, m = stack_layers(s), and
    entry y is the state after symbol y % s from state x. That is the row
    of s entries repeated s^(m-1) times, sharing its ints, and it reads a
    state y as its last layer's symbol, so a round steps the last round's
    states as they are."""
    copies = s ** (stack_layers(s) - 1)
    return [r * copies for r in row.reshape(-1, s).tolist()]


def _unit_profile(step, s, leader, unit, width, iterations):
    """The minimal periods of the iterates of period_profile that are not
    capped, from the start string's unit and the order-s square's stacked
    step as the engine's lists (_engine_rows; q.table when m =
    stack_layers(s) is 1), without checks.

    If the iterate repeats a unit U of minimal length P, one pass of the
    e-step over U maps the state permutation-wise, and the leader returns
    to itself after c <= s passes. The next iterate then repeats the e-step
    of c copies of U, and P * c is its minimal period: periods are
    multiples of P (the step is invertible), and a shift by fewer copies
    would start a copy from a different state, hence a different symbol.
    Periods never decrease, so the list ends at the first iterate whose
    period passes width / 2: it and every later iterate are capped.

    A round takes m iterates at once: passes of the stacked step over U
    from home, the state where every layer holds the leader, until every
    layer is home again. Layer j's unit is c_j copies of layer j-1's, so it
    can only return where layers 1..j-1 are home, and its period is P times
    the passes at its first return there. The width test of each layer is
    made at those same points. The next round's unit is the last layer's
    output, which the engine's rows read from the states as they are.
    """
    m = stack_layers(s)
    # layers 1..j of state x are home when x // scale[j] == homes[j]
    scale = [s ** (m - j) for j in range(m + 1)]
    home = leader * sum(scale[1:])      # every layer holds the leader
    homes = [home // d for d in scale]
    periods = []
    while len(periods) < iterations:
        layers = min(m, iterations - len(periods))
        states, found = e_row(step, home, unit), 0
        while found < layers:
            x = states[-1]
            # len(states) is P times the passes so far
            while found < layers and x // scale[found] == homes[found]:
                back = x // scale[found + 1] == homes[found + 1]
                least = len(states)
                if not back:                    # one more unit of the layer before
                    least += periods[-1] if found else len(unit)
                if 2 * least > width:           # the next period is at least this
                    return periods
                if not back:
                    break
                periods.append(len(states))
                found += 1
            if found < layers:
                states += e_row(step, x, unit)
        unit = states
    return periods


def _points(periods, width, iterations):
    """The PeriodPoint of each iterate from _unit_profile's periods: those
    listed as they are, every later iterate capped at the width."""
    return tuple(PeriodPoint(k, periods[k - 1], False) if k <= len(periods)
                 else PeriodPoint(k, width, True) for k in range(1, iterations + 1))


def period_profile(q, leader, motif=(0, 1, 2, 3), width=4096, iterations=32):
    """Minimal period of each iterate of the leader-l elementary
    transformation, starting from the periodic extension of motif to width
    (see PeriodPoint for what is reported)."""
    iterations = as_integer(iterations, FormatError, "iterations")
    width = as_integer(width, FormatError, "width")
    unit = _start_unit(q, motif, width, iterations)
    q._check(leader)
    step = (q.table if stack_layers(q.order) == 1
            else _engine_rows(_square_stack(q)[0], q.order))
    periods = _unit_profile(step, q.order, leader, unit, width, iterations)
    return _points(periods, width, iterations)


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
    tables = flat_table(*squares).astype(np.int64).reshape(len(squares), s * s)
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
    matter which of several capped leaders supplies it. The final periods
    stay ints, as _unit_profile gives them, and each square gets one
    PeriodPoint.
    """
    st = settings or ClassifySettings()
    squares = enumerate_order4()
    leaders = st.leaders_for(squares[0])
    unit = _start_unit(squares[0], st.motif, st.width, st.iterations)
    _check_search(squares[0].order, st.n, st.max_len, st.include_indices, None)
    search = (4, st.n, st.max_len, st.include_indices)
    stacks = _stack_rows(squares)
    rep = isomorphism_classes(squares)
    heads = sorted(set(rep))
    labels = dict(zip(heads, _first_witnesses(stacks[heads], *search)))
    members = [i for i, r in enumerate(rep) if labels[r] is not None]
    found = dict(zip(members, _first_witnesses(stacks[members], *search)))
    witnesses = [found.get(i) for i in range(len(squares))]
    fractal, non_fractal, periods, disagree = [], [], {}, []
    for idx, (row, witness) in enumerate(zip(stacks, witnesses), 1):
        step, final = _engine_rows(row, 4), 0
        for l in leaders:
            uncapped = _unit_profile(step, 4, l, unit, st.width, st.iterations)
            if len(uncapped) < st.iterations:
                point = PeriodPoint(st.iterations, st.width, True)
                break
            final = max(final, uncapped[-1])
        else:
            point = PeriodPoint(st.iterations, final, False)
        periods[idx] = point
        (fractal if witness is not None else non_fractal).append(idx)
        if (point.period <= st.threshold) != (witness is not None):
            disagree.append(idx)
    return CensusReport(fractal=tuple(fractal), non_fractal=tuple(non_fractal),
                        witnesses=dict(enumerate(witnesses, 1)), periods=periods,
                        parameters=st, disagreements=tuple(disagree))
