"""Preimage search: brute force, and the structured lookup-table attacks.

The single-reverse attack reconstructs the table of intermediate rows that
the forward computation would have produced. Row 0 is the unknown input A,
row N is the known output B, and two families of local relations tie the
cells together:

  horizontal   c[i][j] = c[i][j-1] * c[i-1][j]          for j >= 1
  leader       c[i][0] = (leader of step i) * c[i-1][0]

where the leader of step i is the row-0 cell N - i. Any two known values in
a relation force the third through multiplication or one of the divisions,
so constraint propagation fills large parts of the table before any
guessing, and each guess of a row-0 cell triggers a cascade. The cascades
from the bottom and the top meet after about N/3 guesses.

The double-reverse function has no such meeting point: no cross-check binds
until a full input tuple has been guessed, which separates the two attack
costs. So its attack and brute force share one exhaustive scan, the column
sweep. Column j of every row depends only on columns 0..j of the rows above
it and on the leaders, so the sweep steps all L rows one column at a time
and, after column j, keeps only the tuples whose output matches b there.
About 1/s of them survive each column, so a tuple costs about
L * s / (s - 1) table reads rather than L * N.
"""
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .errors import BudgetExceeded, FormatError, LengthMismatch
from .transforms import check_string, digit_columns, family_columns, family_steps
from .transforms import flat_table, leader_ids, pack_columns, r1 as _r1_eval

DEFAULT_BUDGET = 1 << 24


class AlgebraicStructureWarning(UserWarning):
    """The attacked quasigroup is commutative or associative; the cost
    guarantees assume neither."""


def resolve_budget(budget=None):
    """Budget precedence: explicit argument, QOWS_BUDGET, built-in default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get("QOWS_BUDGET")
    try:
        return int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise FormatError(f"QOWS_BUDGET must be an integer, got {env!r}")


@dataclass
class AttackTrace:
    """Result of one inversion attempt.

    guesses counts completed branch explorations: full candidate tuples
    submitted to a final check, plus branches killed by a contradiction
    mid-guess; for the exhaustive scans, the tuples scanned. lookups counts
    the table reads (multiplications and divisions) actually made, one per
    element of a vectorized read.
    """

    preimages: list
    guesses: int
    lookups: int
    elapsed: float
    warnings: list = field(default_factory=list)


@dataclass
class PreimageHistogram:
    """Preimage counts over the whole codomain, in packed-value order."""

    counts: np.ndarray
    order: int
    n: int

    @property
    def domain_size(self):
        return self.order**self.n

    @property
    def is_permutation(self):
        return bool((self.counts == 1).all())

    @property
    def is_regular(self):
        nz = self.counts[self.counts > 0]
        return bool(nz.size > 0 and (nz == nz[0]).all())

    def count_of(self, value):
        return int(self.counts[value])


def _hypothesis_warnings(q):
    from .core import algebraic_probe

    profile = algebraic_probe(q)
    notes = []
    if profile.commutative:
        notes.append("quasigroup is commutative; attack cost guarantees assume it is not")
    if profile.associative:
        notes.append("quasigroup is associative; attack cost guarantees assume it is not")
    for n in notes:
        warnings.warn(n, AlgebraicStructureWarning, stacklevel=3)
    return notes


def _charge(total, budget, what):
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(f"{what} {total} exceeds budget {limit}")


def _sweep(q, n, steps, b, first_hit=False):
    """(preimages, tuples scanned, table reads made) of b under the steps
    with the given token ids, by the column sweep over Q^n in packed order.
    first_hit stops after the first block holding a preimage, keeping one.
    """
    s = q.order
    mul = flat_table(q)
    total = s**n
    chunk = transforms.CHUNK_COLUMNS
    found, scanned, lookups = [], 0, 0
    for lo in range(0, total, chunk):
        inputs = digit_columns(lo, min(total, lo + chunk), s, n, mul.dtype)
        scanned += inputs.shape[1]
        # row i holds step i's leader, then its output at the last column
        # stepped; a tuple leaves state and inputs at its first miss
        state = np.empty((len(steps), inputs.shape[1]), mul.dtype)
        for row, t in zip(state, steps):
            row[...] = t if t < s else inputs[t - s]
        idx = np.empty(inputs.shape[1], dtype=np.intp)
        for j in range(n):
            col, x = idx[:state.shape[1]], inputs[j]
            for row in state:
                np.multiply(row, s, out=col, dtype=np.intp)
                col += x
                np.take(mul, col, out=row)
                x = row
            lookups += state.size
            keep = np.flatnonzero(x == b[j])
            state, inputs = state.take(keep, axis=1), inputs.take(keep, axis=1)
        found += map(tuple, inputs[:, :1 if first_hit else None].T.tolist())
        if first_hit and found:
            break
    return found, scanned, lookups


def brute_preimages(spec, b, budget=None, first_hit=False):
    """Enumerate all of Q^N and return every preimage of b under the family
    member spec.

    The guess counter equals s^N exactly on a full scan: this is the
    exhaustive baseline the structured attacks are measured against.
    """
    t0 = time.perf_counter()
    b = tuple(b)
    s, n = spec.q.order, spec.n
    if len(b) != n:
        raise LengthMismatch(f"output length {len(b)} != N = {n}")
    check_string(spec.q, b)
    _charge(s**n, budget, "domain size")
    steps = tuple(family_steps(s, n, leader_ids(spec)))
    found, scanned, lookups = _sweep(spec.q, n, steps, b, first_hit)
    return AttackTrace(preimages=found, guesses=scanned, lookups=lookups,
                       elapsed=time.perf_counter() - t0)


def preimage_histogram(spec, budget=None):
    """Count preimages of every output value by full forward enumeration."""
    s, n = spec.q.order, spec.n
    total = s**n
    _charge(total, budget, "domain size")
    mul = flat_table(spec.q)
    steps = tuple(family_steps(s, n, leader_ids(spec)))
    chunk = transforms.CHUNK_COLUMNS
    counts = np.zeros(total, dtype=np.int64)
    for lo in range(0, total, chunk):
        inputs = digit_columns(lo, min(total, lo + chunk), s, n, mul.dtype)
        image = family_columns(mul, s, steps, inputs)
        counts += np.bincount(pack_columns(image, s), minlength=total)
    return PreimageHistogram(counts=counts, order=s, n=n)


class _Grid:
    """The r1 table of intermediate rows with fixpoint propagation.

    Rows 0..n run from the input to the output. Cell (i, j) is the int
    i*n + j, and values holds -1 for an unknown cell. Relations are triples
    of cells (x, y, z) constrained by x * y = z: a horizontal relation for
    each j >= 1 of rows 1..n, then the leader relation of that row, whose
    leader is input cell n - i. by_cell lists each cell's relations in that
    order; lookups depends on it, on the LIFO queue and on the early return.
    """

    def __init__(self, q, n):
        self.table, self.ldiv, self.rdiv = q.table, q._ldiv, q._rdiv
        self.values = [-1] * ((n + 1) * n)
        self.lookups = 0
        by_cell = [[] for _ in self.values]
        for i in range(1, n + 1):
            row, above = i * n, (i - 1) * n
            rels = [(row + j - 1, above + j, row + j) for j in range(1, n)]
            rels.append((n - i, above, row))
            for rel in rels:
                for cell in set(rel):
                    by_cell[cell].append(rel)
        self.by_cell = [tuple(rels) for rels in by_cell]

    def propagate(self, queue, trail):
        """Derive every forced cell reachable from the assigned cells on
        queue, which is consumed.

        Returns False on contradiction. All assignments are recorded on the
        trail so the caller can undo them.
        """
        table, ldiv, rdiv = self.table, self.ldiv, self.rdiv
        values, by_cell = self.values, self.by_cell
        record, pop, push = trail.append, queue.pop, queue.append
        lookups = self.lookups
        while queue:
            for xc, yc, zc in by_cell[pop()]:
                xv = values[xc]
                yv = values[yc]
                zv = values[zc]
                if xv >= 0 and yv >= 0:
                    w = table[xv][yv]
                    lookups += 1
                    if zv < 0:
                        values[zc] = w
                        record(zc)
                        push(zc)
                    elif zv != w:
                        self.lookups = lookups
                        return False
                elif zv >= 0:
                    if xv >= 0:
                        values[yc] = ldiv[xv][zv]
                        lookups += 1
                        record(yc)
                        push(yc)
                    elif yv >= 0:
                        values[xc] = rdiv[yv][zv]
                        lookups += 1
                        record(xc)
                        push(xc)
        self.lookups = lookups
        return True


def attack_r1(q, b, budget=None, first_hit=False):
    """Invert the single-reverse function by table completion and guessing.

    The known output row seeds an upward cascade of left divisions; row-0
    cells are then guessed in ascending position order, each guess propagated
    to a fixpoint, until the whole input row is forced. Complete candidates
    are verified by forward evaluation, so every returned preimage is exact.
    Each guess is charged against the budget as it is made.

    Returns an AttackTrace; an empty preimage list is a valid outcome.
    """
    t0 = time.perf_counter()
    b = tuple(b)
    check_string(q, b)
    n = len(b)
    notes = _hypothesis_warnings(q)
    s = q.order
    limit = resolve_budget(budget)
    grid = _Grid(q, n)
    values = grid.values
    values[n * n:] = b
    ok = grid.propagate(list(range(n * n, n * n + n)), [])
    assert ok, "output row alone cannot contradict"
    guesses = 0
    found = []

    def charge():
        nonlocal guesses
        guesses += 1
        if guesses > limit:
            raise BudgetExceeded(f"guess count exceeds budget {limit}")

    def dfs():
        for pos in range(n):
            if values[pos] < 0:
                break
        else:
            charge()
            cand = tuple(values[:n])
            grid.lookups += n * n
            if _r1_eval(q, cand) == b:
                found.append(cand)
                return first_hit
            return False
        for v in range(s):
            values[pos] = v
            sub = [pos]
            if grid.propagate([pos], sub):
                if dfs():
                    return True
            else:
                charge()
            for cell in sub:
                values[cell] = -1
        return False

    dfs()
    found.sort()
    return AttackTrace(preimages=found, guesses=guesses,
                       lookups=grid.lookups, elapsed=time.perf_counter() - t0,
                       warnings=notes)


def attack_r2(q, b, budget=None, first_hit=False):
    """Invert the double-reverse function by the column sweep over all s^N
    guess tuples in packed order (see the module docstring).
    """
    t0 = time.perf_counter()
    b = tuple(b)
    check_string(q, b)
    n = len(b)
    notes = _hypothesis_warnings(q)
    _charge(q.order**n, budget, "branch count")
    found, guesses, lookups = _sweep(q, n, tuple(family_steps(q.order, n)), b, first_hit)
    return AttackTrace(preimages=found, guesses=guesses, lookups=lookups,
                       elapsed=time.perf_counter() - t0, warnings=notes)
