"""Preimage search: brute force, and the structured lookup-table attacks.

The attacks reconstruct the table of intermediate rows that the forward
computation would have produced. Row 0 is the unknown input A, row N (or 2N
for the double-reverse function) is the known output B, and two families of
local relations tie the cells together:

  horizontal   c[i][j] = c[i][j-1] * c[i-1][j]          for j >= 1
  leader       c[i][0] = (leader of step i) * c[i-1][0]

where the leader of step i is a cell of row 0. Any two known values in a
relation force the third through multiplication or one of the divisions, so
constraint propagation fills large parts of the table before any guessing,
and each guess of a row-0 cell triggers a cascade. For the single-reverse
function the cascades from the bottom and the top meet after about N/3
guesses; for the double-reverse function no cross-check binds until a full
input tuple has been guessed, which is what separates their attack costs.
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
    """Partial table of intermediate rows with fixpoint propagation.

    Cells are addressed (i, j): i = 0..rows-1 top to bottom, j = 0..n-1.
    Relations are triples of cells (x, y, z) constrained by x * y = z.
    """

    def __init__(self, q, n, rows, leader_of_step):
        self.q = q
        self.n = n
        self.rows = rows
        self.values = {}
        self.lookups = 0
        rels = []
        for i in range(1, rows):
            for j in range(1, n):
                rels.append(((i, j - 1), (i - 1, j), (i, j)))
            rels.append((leader_of_step(i), (i - 1, 0), (i, 0)))
        self.by_cell = {}
        for rel in rels:
            for cell in set(rel):
                self.by_cell.setdefault(cell, []).append(rel)

    def assign(self, cell, value, trail):
        self.values[cell] = value
        trail.append(cell)

    def propagate(self, seeds, trail):
        """Derive every forced cell reachable from the seeds.

        Returns False on contradiction. All assignments are recorded on the
        trail so the caller can undo them.
        """
        q = self.q
        values = self.values
        queue = list(seeds)
        while queue:
            cell = queue.pop()
            for (xc, yc, zc) in self.by_cell.get(cell, ()):
                xv = values.get(xc)
                yv = values.get(yc)
                zv = values.get(zc)
                if xv is not None and yv is not None:
                    w = q.table[xv][yv]
                    self.lookups += 1
                    if zv is None:
                        self.assign(zc, w, trail)
                        queue.append(zc)
                    elif zv != w:
                        return False
                elif zv is not None and xv is not None:
                    w = q._ldiv[xv][zv]
                    self.lookups += 1
                    self.assign(yc, w, trail)
                    queue.append(yc)
                elif zv is not None and yv is not None:
                    w = q._rdiv[yv][zv]
                    self.lookups += 1
                    self.assign(xc, w, trail)
                    queue.append(xc)
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
    grid = _Grid(q, n, rows=n + 1, leader_of_step=lambda i: (0, n - i))
    trail = []
    for j in range(n):
        grid.assign((n, j), b[j], trail)
    ok = grid.propagate([(n, j) for j in range(n)], trail)
    assert ok, "output row alone cannot contradict"
    stats = {"guesses": 0}
    found = []

    def dfs():
        pos = next((j for j in range(n) if (0, j) not in grid.values), None)
        if pos is None:
            stats["guesses"] += 1
            cand = tuple(grid.values[(0, j)] for j in range(n))
            grid.lookups += n * n
            if _r1_eval(q, cand) == b:
                found.append(cand)
                if first_hit:
                    return True
            return False
        for v in range(s):
            sub = []
            grid.assign((0, pos), v, sub)
            if grid.propagate([(0, pos)], sub):
                if dfs():
                    return True
            else:
                stats["guesses"] += 1
            for cell in sub:
                del grid.values[cell]
        return False

    dfs()
    found.sort()
    return AttackTrace(preimages=found, guesses=stats["guesses"],
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
