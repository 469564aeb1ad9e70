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
until a full input tuple has been guessed, which is what separates the two
attack costs. Its attack therefore builds no table. For every guess tuple it
peels the last N steps off the output and compares the middle row with the
forward r1 pass of the tuple, vectorized over all s^N tuples.
"""
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, LengthMismatch
from .transforms import Const, Index, check_string, unpack_string
from .transforms import e_columns, e_inverse_columns, flat_tables, symbol_dtype
from .transforms import r1 as _r1_eval

DEFAULT_BUDGET = 1 << 24
_CHUNK_ROWS = 1 << 18


class AlgebraicStructureWarning(UserWarning):
    """The attacked quasigroup is commutative or associative; the cost
    guarantees assume neither."""


def resolve_budget(budget=None):
    """Budget precedence: explicit argument, QOWS_BUDGET, built-in default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get("QOWS_BUDGET")
    if env:
        return int(env)
    return DEFAULT_BUDGET


@dataclass
class AttackTrace:
    """Result of one inversion attempt.

    guesses counts completed branch explorations: full candidate tuples
    submitted to a final check, plus branches killed by a contradiction
    mid-guess. lookups counts individual table reads (multiplications and
    divisions), including vectorized ones.
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


def _unpack_block(start, count, s, n):
    """Columns start..start+count-1 of the packed enumeration of Q^n."""
    k = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((n, count), dtype=symbol_dtype(s))
    for j in range(n - 1, -1, -1):
        out[j] = k % s
        k //= s
    return out


def _forward_block(mul, s, steps, block):
    """Evaluate the leader tokens steps on every column of block.

    Index leaders resolve against each column's original symbols, so the
    leader of a step is itself a row vector.
    """
    cur = block.copy()
    for tok in steps:
        e_columns(mul, s, tok.value if isinstance(tok, Const) else block[tok.j], cur)
    return cur, len(steps) * cur.size


def brute_preimages(spec, b, budget=None):
    """Enumerate all of Q^N and return every preimage of b under the family
    member spec.

    The guess counter equals s^N exactly: this is the exhaustive baseline
    the structured attacks are measured against.
    """
    t0 = time.perf_counter()
    b = tuple(b)
    s = spec.q.order
    n = spec.n
    if len(b) != n:
        raise LengthMismatch(f"output length {len(b)} != N = {n}")
    check_string(spec.q, b)
    total = s**n
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(f"domain size {total} exceeds budget {limit}")
    mul, _ = flat_tables(spec.q)
    steps = list(spec.leaders) + [Index(n - 1 - k) for k in range(n)] * 2
    target = np.array(b, dtype=mul.dtype)[:, None]
    found = []
    lookups = 0
    for start in range(0, total, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, total - start)
        block = _unpack_block(start, count, s, n)
        image, lk = _forward_block(mul, s, steps, block)
        lookups += lk
        hits = np.nonzero((image == target).all(axis=0))[0]
        found.extend(tuple(block[:, i].tolist()) for i in hits)
    return AttackTrace(preimages=found, guesses=total, lookups=lookups,
                       elapsed=time.perf_counter() - t0)


def preimage_histogram(spec, budget=None):
    """Count preimages of every output value by full forward enumeration."""
    s = spec.q.order
    n = spec.n
    total = s**n
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(f"domain size {total} exceeds budget {limit}")
    mul, _ = flat_tables(spec.q)
    steps = list(spec.leaders) + [Index(n - 1 - k) for k in range(n)] * 2
    counts = np.zeros(total, dtype=np.int64)
    weights = (s ** np.arange(n - 1, -1, -1, dtype=np.int64))
    for start in range(0, total, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, total - start)
        block = _unpack_block(start, count, s, n)
        image, _ = _forward_block(mul, s, steps, block)
        packed = weights @ image.astype(np.int64)
        counts += np.bincount(packed, minlength=total)
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


def attack_r1(q, b, first_hit=False):
    """Invert the single-reverse function by table completion and guessing.

    The known output row seeds an upward cascade of left divisions; row-0
    cells are then guessed in ascending position order, each guess propagated
    to a fixpoint, until the whole input row is forced. Complete candidates
    are verified by forward evaluation, so every returned preimage is exact.

    Returns an AttackTrace; an empty preimage list is a valid outcome.
    """
    t0 = time.perf_counter()
    b = tuple(b)
    check_string(q, b)
    n = len(b)
    notes = _hypothesis_warnings(q)
    s = q.order
    grid = _Grid(q, n)
    values = grid.values
    values[n * n:] = b
    ok = grid.propagate(list(range(n * n, n * n + n)), [])
    assert ok, "output row alone cannot contradict"
    guesses = 0
    found = []

    def dfs():
        nonlocal guesses
        for pos in range(n):
            if values[pos] < 0:
                break
        else:
            guesses += 1
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
                guesses += 1
            for cell in sub:
                values[cell] = -1
        return False

    dfs()
    found.sort()
    return AttackTrace(preimages=found, guesses=guesses,
                       lookups=grid.lookups, elapsed=time.perf_counter() - t0,
                       warnings=notes)


def attack_r2(q, b, budget=None, first_hit=False):
    """Invert the double-reverse function.

    Follows the same table-completion scheme extended to 2N rows. The known
    rows at the bottom constrain nothing about the guessed input prefix
    until all N positions are chosen, so the attack degenerates to s^N
    completed branches: each guess tuple determines the middle row twice,
    once by peeling inverse transformations down from the output and once by
    forward evaluation from the candidate, and per-step bijectivity makes
    that single comparison equivalent to checking the whole table. Both
    derivations are evaluated for all tuples in packed order, vectorized.
    """
    t0 = time.perf_counter()
    b = tuple(b)
    check_string(q, b)
    n = len(b)
    notes = _hypothesis_warnings(q)
    s = q.order
    total = s**n
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(f"branch count {total} exceeds budget {limit}")
    mul, ldiv = flat_tables(q)
    lookups = 0

    # prefix chunking keeps peak memory at chunk * n cells
    prefix_len = 0
    while s ** (n - prefix_len) > _CHUNK_ROWS and prefix_len < n:
        prefix_len += 1
    chunk_size = s ** (n - prefix_len)
    r1_steps = [Index(n - 1 - k) for k in range(n)]
    found = []
    guesses = 0
    for pstart in range(s**prefix_len):
        prefix = unpack_string(pstart, s, prefix_len)
        mid = np.array(b, dtype=mul.dtype)[:, None]
        for a in prefix:      # leaders a_0, a_1, ... peel the last steps
            e_inverse_columns(ldiv, s, a, mid)
            lookups += n
        for d in range(prefix_len, n):
            # guess a_d: column i*s + g extends column i, so the final
            # column index is the packed value of the guess tuple
            mid = np.repeat(mid, s, axis=1)
            guess = np.resize(np.arange(s, dtype=mid.dtype), mid.shape[1])
            e_inverse_columns(ldiv, s, guess, mid)
            lookups += mid.size
        block = _unpack_block(pstart * chunk_size, chunk_size, s, n)
        image, lk = _forward_block(mul, s, r1_steps, block)
        lookups += lk
        guesses += chunk_size
        hits = np.nonzero((image == mid).all(axis=0))[0][:1 if first_hit else None]
        found.extend(tuple(block[:, i].tolist()) for i in hits)
        if first_hit and found:
            break
    found.sort()
    return AttackTrace(preimages=found, guesses=guesses, lookups=lookups,
                       elapsed=time.perf_counter() - t0, warnings=notes)
