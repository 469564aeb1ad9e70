"""Finite quasigroups represented as Latin squares.

A quasigroup of order s is an s-by-s table over the symbols 0..s-1 in which
every row and every column is a permutation. That property makes both
division equations u * x = v and y * u = v uniquely solvable, which is what
every transformation and attack in this package leans on.

A symbol of Q = {0, ..., s-1} is an integer in the sense of operator.index,
so numpy integers and bools count, in [0, s); one rule, _is_symbol, decides
it for the whole package. Quasigroup._check applies it to operands, leaders
and the symbols of a string alike, each caller naming its error type, and
the constructor to each table entry, raising EntryOutOfRange.
"""
import operator
from dataclasses import dataclass
from functools import lru_cache
from random import Random

import numpy as np

from .budget import as_integer, charge, resolve_budget
from .errors import (
    ColNotPermutation,
    EntryOutOfRange,
    NotSquare,
    OrderNotSupported,
    RowNotPermutation,
    SymbolOutOfRange,
)


def _is_symbol(x, order):
    """Whether x is a symbol of Q = {0, ..., order - 1}: an integer in the
    sense of operator.index, so numpy integers and bools count, in
    [0, order)."""
    try:
        return 0 <= operator.index(x) < order
    except TypeError:
        return False


class Quasigroup:
    """An immutable order-s quasigroup with O(1) multiplication and division.

    Left and right division tables are precomputed at construction: the
    attacks perform millions of divisions and must not scan rows. Use
    validate() to build one from an untrusted table.
    """

    __slots__ = ("order", "table", "_ldiv", "_rdiv")

    def __init__(self, table):
        try:
            rows = [tuple(row) for row in table]
        except TypeError:
            raise NotSquare("table must be a nonempty square matrix") from None
        s = len(rows)
        if s == 0 or any(len(row) != s for row in rows):
            raise NotSquare("table must be a nonempty square matrix")
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not _is_symbol(v, s):
                    raise EntryOutOfRange(i, j, v)
        rows = [tuple(map(operator.index, row)) for row in rows]
        full = frozenset(range(s))
        for i, row in enumerate(rows):
            if frozenset(row) != full:
                raise RowNotPermutation(i)
        for j in range(s):
            if frozenset(row[j] for row in rows) != full:
                raise ColNotPermutation(j)
        ldiv = [[0] * s for _ in range(s)]
        rdiv = [[0] * s for _ in range(s)]
        for u in range(s):
            for v in range(s):
                w = rows[u][v]
                ldiv[u][w] = v      # u * ldiv[u][w] = w
                rdiv[v][w] = u      # rdiv[v][w] * v = w
        object.__setattr__(self, "order", s)
        object.__setattr__(self, "table", tuple(rows))
        object.__setattr__(self, "_ldiv", tuple(tuple(r) for r in ldiv))
        object.__setattr__(self, "_rdiv", tuple(tuple(r) for r in rdiv))

    def __setattr__(self, name, value):
        raise AttributeError("Quasigroup is immutable")

    def __eq__(self, other):
        return isinstance(other, Quasigroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"Quasigroup(order={self.order})"

    def _check(self, *symbols, error=SymbolOutOfRange, what="symbol"):
        """Raise error(f"{what} {x} not in [0, {order})") for the first x of
        symbols that is not a symbol of Q: the package's one symbol check,
        for operands, leaders and the symbols of a string alike."""
        for x in symbols:
            if not _is_symbol(x, self.order):
                raise error(f"{what} {x} not in [0, {self.order})")

    def mul(self, u, v):
        """Return u * v."""
        self._check(u, v)
        return self.table[u][v]

    def ldiv(self, u, v):
        """Return the unique x with u * x = v."""
        self._check(u, v)
        return self._ldiv[u][v]

    def rdiv(self, u, v):
        """Return the unique y with y * u = v."""
        self._check(u, v)
        return self._rdiv[u][v]


def validate(table):
    """Build a Quasigroup from a table, raising a domain error if it is not
    a Latin square.

    Errors are specific: NotSquare, EntryOutOfRange, RowNotPermutation, or
    ColNotPermutation, in that checking order. Any table ends in one of
    them or a square: one that is not rows of entries is NotSquare, and a
    non-integer entry EntryOutOfRange at the first bad cell, row by row.
    """
    return Quasigroup(table)


@dataclass(frozen=True)
class AlgebraicProfile:
    """Outcome of exhaustive commutativity and associativity checks.

    A witness is present exactly when the property fails, and is the first
    counterexample in lexicographic scan order.
    """

    commutative: bool
    associative: bool
    commutativity_witness: tuple | None
    associativity_witness: tuple | None


def algebraic_probe(q):
    """Exhaustively test commutativity and associativity of q.

    Returns an AlgebraicProfile. The attacks assume both properties fail;
    callers use this probe to surface violations of that hypothesis.
    Associativity is checked one u at a time, comparing (u*v)*w with
    u*(v*w) over all (v, w) at once, so the first mismatch found is the
    lexicographically first.
    """
    t = np.array(q.table, dtype=np.intp)
    # symmetric with a false diagonal, so its first true entry in row-major
    # order lies above the diagonal
    comm = (t != t.T).ravel()
    i = int(comm.argmax())
    comm_w = divmod(i, q.order) if comm[i] else None
    assoc_w = None
    for u, row in enumerate(t):
        miss = (t[row] != row[t]).ravel()
        i = int(miss.argmax())
        if miss[i]:
            assoc_w = (u, *divmod(i, q.order))
            break
    return AlgebraicProfile(
        commutative=comm_w is None,
        associative=assoc_w is None,
        commutativity_witness=comm_w,
        associativity_witness=assoc_w,
    )


def _rows_extending(rect, order):
    """Yield each row that extends the Latin rectangle rect by one row, in
    lexicographic order of the symbol sequence order: a depth-first search
    over the columns, without recursion."""
    used = [{r[j] for r in rect} for j in range(len(order))]
    row, taken, options = [], set(), [iter(order)]     # a candidate iterator per open column
    while options:
        for v in options[-1]:
            if v not in taken and v not in used[len(row)]:
                break
        else:
            options.pop()
            if row:
                taken.remove(row.pop())
            continue
        if len(row) + 1 == len(order):
            yield (*row, v)
        else:
            row.append(v)
            taken.add(v)
            options.append(iter(order))


def _first_extension(lacks, holders, order, spend):
    """Return the row that next(_rows_extending(rect, order)) would, in
    polynomial time.

    lacks[j] is the bitmask of the symbols column j of the rectangle still
    lacks, and holders[v] the bitmask of the columns that still lack v. The
    cells left make a regular bipartite graph, which by M. Hall's theorem
    has a perfect matching; one is built by augmenting paths. The columns
    are then fixed left to right, each to its first symbol v in order whose
    edge lies in a perfect matching of the columns not yet fixed: v is the
    column's partner u, or v's partner column reaches u by an alternating
    path. One search backwards from u, grown only as far as the candidates
    need, answers them all, and shifting the partners along the path it
    finds keeps the matching perfect. spend(n) is called with the work
    done: a unit per candidate tested and per symbol a search visits.
    """
    s = len(order)
    partner, owner = [-1] * s, [-1] * s     # column -> symbol, symbol -> column
    unmatched = (1 << s) - 1
    for c in range(s):
        col, options = c, lacks[c] & unmatched
        if not options:     # search forwards from c for an unmatched symbol
            seen = pending = lacks[c]
            trail = [(c, seen)]     # (column, the symbols it reached first)
            while not options:
                low = pending & -pending
                pending ^= low
                col = owner[low.bit_length() - 1]
                new = lacks[col] & ~seen
                trail.append((col, new))
                seen |= new
                pending |= new
                options = new & unmatched
            spend(len(trail) - 1)
            i = len(trail) - 1
        w = (options & -options).bit_length() - 1
        unmatched ^= 1 << w
        while col != c:     # col takes w and hands on its old partner
            partner[col], owner[w], w = w, col, partner[col]
            while not trail[i][1] >> w & 1:
                i -= 1
            col = trail[i][0]
        partner[c], owner[w] = w, c
    row, left = [], list(order)     # the symbols not yet fixed, in order
    for j in range(s):
        u, options, work = partner[j], lacks[j], 0
        closed = (2 << j) - 1       # the fixed columns and j
        reached = pending = 0       # the columns found to reach u
        trail, w = [], u            # (symbol, the columns it reached first)
        for v in left:
            if not options >> v & 1:
                continue
            work += 1
            if v == u:
                break
            c = owner[v]
            while w >= 0 and not reached >> c & 1:
                new = holders[w] & ~closed & ~reached
                trail.append((w, new))
                reached |= new
                pending |= new
                if pending:
                    low = pending & -pending
                    pending ^= low
                    w = partner[low.bit_length() - 1]
                else:
                    w = -1
            if reached >> c & 1:
                i = len(trail) - 1
                while c != j:       # c takes the symbol it reached u through
                    while not trail[i][1] >> c & 1:
                        i -= 1
                    w = trail[i][0]
                    partner[c], owner[w], c = w, c, owner[w]
                break
        spend(work + len(trail))
        row.append(v)
        left.remove(v)
    return tuple(row)


@lru_cache(maxsize=1)
def _order4_tables():
    tables = [()]       # extended level by level, so in ascending row-major order
    for _ in range(4):
        tables = [t + (row,) for t in tables for row in _rows_extending(t, range(4))]
    return tuple(tables)


@lru_cache(maxsize=1)
def enumerate_order4():
    """Return all 576 order-4 quasigroups in ascending row-major order.

    The 1-based position of a square in this sequence is its lexicographic
    number; positions are stable because the ordering is a total order on
    the flattened 16-symbol strings.
    """
    return tuple(Quasigroup(rows) for rows in _order4_tables())


@lru_cache(maxsize=1)
def _order4_index():
    return {rows: k for k, rows in enumerate(_order4_tables(), start=1)}


def lex_index(q):
    """Return the 1-based lexicographic number of an order-4 quasigroup."""
    if q.order != 4:
        raise OrderNotSupported(f"lexicographic numbering is defined for order 4, got {q.order}")
    return _order4_index()[q.table]


def from_index(k):
    """Return the order-4 quasigroup with lexicographic number k (1-based)."""
    tables = _order4_tables()
    if not 1 <= as_integer(k, OrderNotSupported, "index") <= len(tables):
        raise OrderNotSupported(f"index {k} outside 1..{len(tables)}")
    return Quasigroup(tables[k - 1])


def random_latin(s, seed):
    """Generate a pseudorandom order-s Latin square, deterministically.

    Rows are placed one at a time, each the lexicographically first
    extension of the rows above in a freshly shuffled symbol order; by
    M. Hall's theorem one always exists, and _first_extension finds it by
    augmenting paths in time polynomial in s. Its work, a unit per
    candidate symbol tested and per symbol a path search visits, is charged
    against the budget (QOWS_BUDGET or the default), and an order whose s^2
    cells already exceed it is refused up front. `qows gen` takes about
    0.3 s at order 16, 0.35 s at order 64 and 0.45 s at order 128 on a
    2-core x86-64 host, about 0.25 s of each being interpreter start-up.
    The same (s, seed) pair always produces the identical square. The sampler is not uniform
    over all Latin squares, which is acceptable for attack benchmarking.
    """
    if as_integer(s, OrderNotSupported, "order") < 1:
        raise OrderNotSupported("order must be at least 1")
    rng = Random(seed)
    limit, spent = resolve_budget(), 0
    what = f"order-{s} square: placed symbols"
    # a square tests at least s^2 candidates; refuse before the row scans
    charge(s * s, limit, what, "exceed")

    def spend(work):
        nonlocal spent
        spent += work
        charge(spent, limit, what, "exceed")

    full = (1 << s) - 1
    lacks, holders = [full] * s, [full] * s
    rows = []
    for _ in range(s):
        order = list(range(s))
        rng.shuffle(order)
        row = _first_extension(lacks, holders, order, spend)
        for j, v in enumerate(row):
            lacks[j] ^= 1 << v
            holders[v] ^= 1 << j
        rows.append(row)
    return Quasigroup(rows)
