"""String transformations driven by a quasigroup, and the reverse-leader
functions built from them.

The elementary step takes a leader symbol l and a string (a_0, ..., a_{N-1})
and produces (b_0, ..., b_{N-1}) with b_0 = l * a_0 and b_i = b_{i-1} * a_i.
Every function here is a composition of such steps; they differ only in
where the leader sequence comes from:

  single reverse   leaders are the input string reversed
  double reverse   the reversed input, twice
  general family   a preprocessing leader string (constants and index
                   references into the input), then the reversed input twice

Leader application order follows the worked numeric examples: the resolved
leader sequence is consumed left to right, the first listed leader applied
first, and the reversed input contributes (a_{N-1}, ..., a_0) in that order.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyString,
    FormatError,
    IndexLeaderOutOfRange,
    LengthMismatch,
    OrderMismatch,
    SymbolOutOfRange,
)


def check_string(q, a):
    """Raise unless a is a nonempty string over q's symbols."""
    if len(a) == 0:
        raise EmptyString("transformations are defined for strings of length >= 1")
    for x in a:
        if not 0 <= x < q.order:
            raise OrderMismatch(f"symbol {x} not in [0, {q.order})")


def e_row(table, leader, a):
    """e_transform without checks, on q.table, returning a list."""
    out = []
    x = leader
    for sym in a:
        x = table[x][sym]
        out.append(x)
    return out


def e_transform(q, leader, a):
    """Apply one elementary transformation with the given constant leader.

    Args:
        q: the quasigroup.
        leader: seed symbol; the first output is leader * a[0].
        a: nonempty input string over q's symbols.

    Returns the transformed string as a tuple, the same length as a.
    """
    a = tuple(a)
    check_string(q, a)
    if not 0 <= leader < q.order:
        raise SymbolOutOfRange(f"leader {leader} not in [0, {q.order})")
    return tuple(e_row(q.table, leader, a))


def e_inverse(q, leader, b):
    """Invert e_transform for the same leader.

    Uniqueness of left division makes the step bijective for every fixed
    leader, so e_inverse(q, l, e_transform(q, l, a)) == a always holds.
    """
    b = tuple(b)
    check_string(q, b)
    if not 0 <= leader < q.order:
        raise SymbolOutOfRange(f"leader {leader} not in [0, {q.order})")
    ldiv = q._ldiv
    out = []
    prev = leader
    for x in b:
        out.append(ldiv[prev][x])
        prev = x
    return tuple(out)


def symbol_dtype(order):
    """The narrowest unsigned dtype holding the symbols 0..order-1."""
    return np.uint8 if order <= 256 else np.uint16


def flat_table(q):
    """q.table flattened (entry u * s + v) to symbol_dtype."""
    return np.array(q.table, dtype=symbol_dtype(q.order)).ravel()


def e_columns(mul, order, leader, state, offset=None):
    """e_transform of every column of the (n, count) state, in place and
    unchecked. leader is a symbol or one per column. mul is flat_table(q),
    or several tables stacked with offset the start of each column's.
    """
    idx = np.empty(state.shape[1], dtype=np.intp)
    prev = leader
    for row in state:
        # index arithmetic in intp: a uint8 row times order would wrap
        np.multiply(prev, order, out=idx, dtype=np.intp)
        idx += row
        if offset is not None:
            idx += offset
        np.take(mul, idx, out=row)
        prev = row
    return state


# Columns per block in every bulk path.
CHUNK_COLUMNS = 1 << 18


def family_steps(order, n, leaders=(), reverses=2):
    """An iterator over the token ids of the family member: leaders (which
    may be a generator of per-column steps), then the reversed input twice;
    r1 reverses once."""
    rev = range(order + n - 1, order - 1, -1)
    return itertools.chain(leaders, *[rev] * reverses)


def leader_ids(spec):
    """The token ids of spec's preprocessing leaders."""
    s = spec.q.order
    return tuple(s + t.j if isinstance(t, Index) else t.value for t in spec.leaders)


def digit_columns(lo, hi, base, n, dtype):
    """Strings lo..hi-1 of base^n in pack_string order, as the columns of
    an (n, hi - lo) array of dtype."""
    t = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((n, hi - lo), dtype=dtype)
    for row in out[::-1]:
        np.remainder(t, base, out=row, casting="unsafe")
        t //= base
    return out


def pack_columns(state, base):
    """pack_string of every column of state, as intp."""
    packed = np.zeros(state.shape[1], dtype=np.intp)
    for row in state:
        packed *= base
        packed += row
    return packed


def family_columns(mul, order, steps, inputs, offset=None):
    """One e-step per step on a copy of inputs, unchecked; mul and offset
    as for e_columns. A step is a token id, or an array of one per column
    (resolved in place). Id l < order leads with the constant l, id
    order + j with each column's input symbol j.
    """
    state = inputs.copy()
    for step in steps:
        if np.ndim(step):
            if step.max() >= order:
                cols = np.flatnonzero(step >= order)
                step[cols] = inputs[step[cols] - order, cols]
        elif step >= order:
            step = inputs[step - order]
        e_columns(mul, order, step, state, offset)
    return state


def periodic_row(q, motif, width):
    """The periodic extension of a motif over q's symbols to width symbols."""
    motif = tuple(motif)
    if not motif:
        raise FormatError("motif must be non-empty")
    if width < 1 or width % len(motif):
        raise FormatError(
            f"width {width} is not a positive multiple of motif length {len(motif)}")
    check_string(q, motif)
    return list(motif) * (width // len(motif))


def apply_leader_sequence(q, leaders, a):
    """Apply one e_transform per leader, first listed leader first.

    An empty leader sequence returns the input unchanged.
    """
    a = tuple(a)
    check_string(q, a)
    for l in leaders:
        a = e_transform(q, l, a)
    return a


def transformation_rows(q, leaders, a):
    """Return every row of the computation: the input, then one row per leader.

    Row k+1 is e_transform with leaders[k] applied to row k. Useful for
    reproducing worked tables and for rendering.
    """
    a = tuple(a)
    check_string(q, a)
    rows = [a]
    for l in leaders:
        rows.append(e_transform(q, l, rows[-1]))
    return rows


def r1(q, a):
    """Single reverse transformation: leaders are the reversed input."""
    a = tuple(a)
    return apply_leader_sequence(q, a[::-1], a)


def r2(q, a):
    """Double reverse transformation: the reversed input applied twice."""
    a = tuple(a)
    rev = a[::-1]
    return apply_leader_sequence(q, rev + rev, a)


@dataclass(frozen=True)
class Const:
    """A leader that is a fixed symbol of the quasigroup."""

    value: int


@dataclass(frozen=True)
class Index:
    """A leader that refers to position j of the input string."""

    j: int


@dataclass(frozen=True)
class OwfSpec:
    """A fully determined member of the general family: quasigroup, input
    length N, and preprocessing leader string (possibly empty)."""

    q: object
    n: int
    leaders: tuple

    def __post_init__(self):
        object.__setattr__(self, "leaders", tuple(self.leaders))
        if self.n < 1:
            raise LengthMismatch("N must be at least 1")
        for tok in self.leaders:
            if isinstance(tok, Const):
                if not 0 <= tok.value < self.q.order:
                    raise SymbolOutOfRange(f"constant leader {tok.value} out of range")
            elif isinstance(tok, Index):
                if not 0 <= tok.j < self.n:
                    raise IndexLeaderOutOfRange(f"index leader i{tok.j} outside 0..{self.n - 1}")
            else:
                raise TypeError(f"leader token must be Const or Index, got {tok!r}")


def resolve_leaders(spec, a):
    """Resolve the preprocessing leaders against the input and append the
    reversed input twice.

    Index tokens are resolved once, against the original input; intermediate
    strings never re-resolve them. The result has length len(leaders) + 2N.
    """
    a = tuple(a)
    if len(a) != spec.n:
        raise LengthMismatch(f"input length {len(a)} != N = {spec.n}")
    resolved = tuple(a[t.j] if isinstance(t, Index) else t.value for t in spec.leaders)
    rev = a[::-1]
    return resolved + rev + rev


def r_n(spec, a):
    """Evaluate the general family member on input a (length spec.n)."""
    a = tuple(a)
    check_string(spec.q, a)
    return apply_leader_sequence(spec.q, resolve_leaders(spec, a), a)


def pack_string(a, s):
    """Encode a string as an integer, base s, first symbol most significant.

    For s = 4 this matches the two-bit-letter convention: (3, 0) -> 12.
    """
    v = 0
    for x in a:
        if not 0 <= x < s:
            raise SymbolOutOfRange(f"symbol {x} not in [0, {s})")
        v = v * s + x
    return v


def unpack_string(value, s, n):
    """Decode pack_string: the length-n string whose base-s value is given."""
    if not 0 <= value < s**n:
        raise SymbolOutOfRange(f"value {value} not in [0, {s}^{n})")
    out = [0] * n
    for j in range(n - 1, -1, -1):
        out[j] = value % s
        value //= s
    return tuple(out)
