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

Which relation propagation fires next depends only on which cells are
known, never on their values. So the reads are compiled once per output
length into a schedule, level by level, and every branch that meets no
contradiction makes the same reads at a level. A check that re-reads a
relation already used on the branch (a cell was derived through it, or an
earlier check passed) cannot fail; only the others, the closing checks,
can kill a branch. Between closing checks, reads that do not depend on
each other form one wavefront. The attack runs the schedule on many
branches at once: they are the columns of one array, and each wavefront
is one take over all of them. A closing check that fails drops its
columns.

Only the last level can kill a branch. With g guesses there are exactly
g closing checks: the N^2 unknown cells of rows 0..N-1 are g guesses and
N^2 - g assignments, each through a relation of its own, out of N^2
relations (N in each of rows 1..N). So each guessed cell closes one
relation, read as a check once its last cell is known. That this check
comes after the last guess, and that g = ceil(N/3), is verified rather
than proved: it holds for N = 1 to 320, 400 and 500, and _schedule
asserts it for every N it compiles. Above the last level the search is
then a complete s-ary tree. The attack grows it depth first in blocks,
counts the leaves it reaches, and counts the reads of the levels above
the last in closed form from that number. A full search makes exactly
s^ceil(N/3) guesses, the paper's s^(N/3) meeting point, so one over the
budget is refused before its schedule is compiled.

The double-reverse function has no such meeting point: no cross-check binds
until a full input tuple has been guessed, which separates the two attack
costs. So its attack and brute force share one exhaustive scan, the column
sweep. Column j of every row depends only on columns 0..j of the rows above
it and on the leaders, so the sweep steps all L rows one column at a time
and, after column j, keeps only the tuples whose output matches b there.
About 1/s of them survive each column, so a tuple costs about
L * s / (s - 1) table reads rather than L * N.
"""
import functools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import core, transforms
from .budget import charge, charge_power, over_by_exponent, refuse, resolve_budget
from .errors import LengthMismatch
from .transforms import check_string, digit_columns, family_columns, family_steps
from .transforms import e_columns, flat_table, leader_ids, pack_columns, symbol_dtype
from .transforms import r1 as _r1_eval


class AlgebraicStructureWarning(UserWarning):
    """The attacked quasigroup is commutative or associative; the cost
    guarantees assume neither."""


@dataclass
class AttackTrace:
    """Result of one inversion attempt.

    guesses counts completed branch explorations: for attack_r1 the leaves
    of its search tree that it reaches, each a candidate submitted to the
    final check or a branch killed by a contradiction at the last guess;
    for the exhaustive scans, the tuples scanned. lookups counts table reads
    (multiplications and divisions), one per element of a vectorized read.
    The scans count the reads they make. attack_r1 counts those of the
    depth-first search it defines, in closed form from the leaves it
    reached: the output row's reads, those of every branch above the last
    level that heads one of those leaves, and each leaf's own. It makes
    exactly those reads on a full search; when first_hit stops it at a
    preimage, it has also read the rest of the blocks of branches open
    there, which lookups leaves out, so that the count does not depend on
    the block size.
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

    def support(self):
        """(values, is_permutation, is_regular) from one scan of counts:
        the packed values with a preimage, and both flags from the least
        and largest of their counts."""
        values = np.flatnonzero(self.counts)
        hit = self.counts[values]
        regular = len(hit) > 0 and hit.min() == hit.max()
        permutation = regular and len(hit) == len(self.counts) and hit[0] == 1
        return values, bool(permutation), bool(regular)

    @property
    def is_permutation(self):
        return self.support()[1]

    @property
    def is_regular(self):
        return self.support()[2]

    def count_of(self, value):
        return int(self.counts[value])


def _hypothesis_warnings(q):
    profile = core.algebraic_probe(q)
    notes = []
    if profile.commutative:
        notes.append("quasigroup is commutative; attack cost guarantees assume it is not")
    if profile.associative:
        notes.append("quasigroup is associative; attack cost guarantees assume it is not")
    for n in notes:
        warnings.warn(n, AlgebraicStructureWarning, stacklevel=3)
    return notes


def _sweep(q, n, steps, b, first_hit=False):
    """(preimages, tuples scanned, table reads made) of b under the steps
    with the given token ids, by the column sweep over Q^n in packed order.
    first_hit stops after the first block holding a preimage, keeping one.
    """
    s = q.order
    # down a column the step is x <- left * x, x the row above's new symbol
    mul_t = flat_table(q).reshape(s, s).T.ravel()
    total = s**n
    chunk = transforms.CHUNK_COLUMNS
    found, scanned, lookups = [], 0, 0
    for lo in range(0, total, chunk):
        inputs = digit_columns(lo, min(total, lo + chunk), s, n, mul_t.dtype)
        scanned += inputs.shape[1]
        # row i holds step i's leader, then its output at the last column
        # stepped; a tuple leaves state and inputs at its first miss
        state = np.empty((len(steps), inputs.shape[1]), mul_t.dtype)
        for row, t in zip(state, steps):
            row[...] = t if t < s else inputs[t - s]
        for j in range(n):
            e_columns(mul_t, s, inputs[j], state)
            lookups += state.size
            keep = np.flatnonzero(state[-1] == b[j])
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
    charge_power(s, n, resolve_budget(budget), "domain size")
    steps = tuple(family_steps(s, n, leader_ids(spec)))
    found, scanned, lookups = _sweep(spec.q, n, steps, b, first_hit)
    return AttackTrace(preimages=found, guesses=scanned, lookups=lookups,
                       elapsed=time.perf_counter() - t0)


def preimage_histogram(spec, budget=None):
    """Count preimages of every output value by full forward enumeration."""
    s, n = spec.q.order, spec.n
    charge_power(s, n, resolve_budget(budget), "domain size")
    total = s**n
    mul = flat_table(spec.q)
    steps = tuple(family_steps(s, n, leader_ids(spec)))
    chunk = transforms.CHUNK_COLUMNS
    counts = np.zeros(total, dtype=np.int64)
    for lo in range(0, total, chunk):
        inputs = digit_columns(lo, min(total, lo + chunk), s, n, mul.dtype)
        image = family_columns(mul, s, steps, inputs)
        np.add.at(counts, pack_columns(image, s), 1)
    return PreimageHistogram(counts=counts, order=s, n=n)


# Kinds of schedule read: the first three set a cell from the table of
# that index; a check compares x * y with a known cell.
_MUL, _LDIV, _RDIV, _CHECK = range(4)


@functools.lru_cache(maxsize=16)
def _schedule(n):
    """The propagation schedule of attack_r1 at output length n, compiled
    once for every branch and every square, and kept for the 16 lengths
    last used: (levels, seeds), level 0 for the output row and level k >= 1
    for the k-th guessed row-0 cell.

    Rows 0..n of the table of intermediate rows run from the input to the
    output, and cell (i, j) is the int i*n + j. Relations are triples of
    cells (x, y, z) constrained by x * y = z: a horizontal relation for
    each j >= 1 of rows 1..n, then the leader relation of that row, whose
    leader is input cell n - i. Propagation pops a cell off a LIFO queue
    and visits its relations in that order: with x and y known it reads
    x * y, assigning z or checking it; otherwise with z known it assigns
    y = x \\ z or x = z / y. Which read it makes depends only on which cells
    are known, not on their values, so the rule is run here once on flags,
    and every branch makes the same reads in the same order at a level
    until a check fails. A check of a relation that an earlier read on the
    branch assigned through or checked cannot fail; only the others, the
    closing checks, can.

    A level (inherit, width, reads, ops, steps, out) works on the rows of
    an array of width rows, one cell each: the inherit cells the level
    needs from earlier levels, then its guessed cell, then the cells it
    sets. It makes reads table reads. ops holds them as (x, y, kind, c) on
    rows, grouped into steps (k, lo, hi, sets): ops[lo:hi] are read at
    once. A closing check, the k-th read of the level, is a step of its
    own and kills the branch unless x * y is row c. Between closing checks
    (k = 0), a step is a wavefront: reads whose rows are all set before
    it, the sets that assign row c first, then checks that cannot fail,
    which are read but not compared. out are the rows later levels need,
    in the order of the next level's inherited rows; after the last level,
    the input row. seeds are the output-row cells level 0 inherits.
    """
    cells = (n + 1) * n
    by_cell = [[] for _ in range(cells)]
    for i in range(1, n + 1):
        row, above = i * n, (i - 1) * n
        rels = [(row + j - 1, above + j, row + j) for j in range(1, n)]
        rels.append((n - i, above, row))
        for rel in rels:
            for cell in set(rel):
                by_cell[cell].append(rel)
    known = [False] * (n * n) + [True] * n
    held = set()
    # the wavefront that set each cell; fronts only grow, so a level's
    # reads start past every front of the levels before it
    front = [0] * cells
    top = 0

    def propagate(queue):
        """A level's reads in order, each (kind, x, y, c, closing, front):
        a read's front is 1 past the latest one that set x or y, and a
        closing check has a front of its own, after every read before it."""
        nonlocal top
        ops, floor = [], top
        while queue:
            for rel in by_cell[queue.pop()]:
                x, y, c = rel
                if known[x] and known[y]:
                    kind = _CHECK if known[c] else _MUL
                elif known[c] and known[x]:
                    kind, y, c = _LDIV, c, y
                elif known[c] and known[y]:
                    kind, x, y, c = _RDIV, y, c, x
                else:
                    continue
                if kind == _CHECK and rel not in held:
                    floor = top = top + 1
                    ops.append((kind, x, y, c, True, top))
                    held.add(rel)
                    continue
                d = 1 + max(floor, front[x], front[y])
                if d > top:
                    top = d
                ops.append((kind, x, y, c, False, d))
                if kind != _CHECK:
                    held.add(rel)
                    front[c] = d
                    known[c] = True
                    queue.append(c)
        return ops

    passes = [([], propagate(list(range(n * n, cells))))]
    # the output row forces only cells (i, j) with i + j >= n, so row 0
    # takes at least one guess
    while not all(known[:n]):
        pos = known.index(False)
        known[pos] = True
        passes.append(([pos], propagate([pos])))
    levels, need = [], list(range(n))
    for guess, ops in reversed(passes):
        sets = [c for kind, x, y, c, *_ in ops if kind != _CHECK]
        reads = {w for kind, x, y, c, closing, _ in ops
                 for w in ((x, y, c) if closing else (x, y))}
        inherit = sorted((set(need) | reads).difference(guess, sets))
        at = {c: r for r, c in enumerate(inherit + guess + sets)}
        levels.append((len(inherit), len(at), len(ops), *_steps(ops, at),
                       np.array([at[c] for c in need], dtype=np.intp)))
        need = inherit
    # the shape attack_r1 counts on (see the module docstring): ceil(n/3)
    # guess levels, and no closing check before the last, levels[0] here
    assert len(levels) == 1 + -(-n // 3) and not any(
        step[0] for level in levels[1:] for step in level[4]), n
    return tuple(levels[::-1]), tuple(need)


def _steps(ops, at):
    """(ops, steps) of one level (see _schedule) from its reads in order,
    each (kind, x, y, c, closing, front), on the rows at of its cells."""
    # within a front, the reads that set a row first
    order = sorted(range(len(ops)), key=lambda i: (ops[i][5], ops[i][0] == _CHECK))
    reads, steps, last = [], [], None
    for i in order:
        kind, x, y, c, closing, front = ops[i]
        if front != last:
            steps.append([i + 1 if closing else 0, len(reads), len(reads), 0])
            last = front
        steps[-1][2] += 1
        if kind == _CHECK:
            reads.append((at[x], at[y], _MUL, at[c] if closing else -1))
        else:
            steps[-1][3] += 1
            reads.append((at[x], at[y], kind, at[c]))
    reads = np.array(reads, dtype=np.intp).reshape(-1, 4)
    reads.flags.writeable = False
    return reads, tuple(map(tuple, steps))


def _r1_table(q):
    """q's multiplication, left- and right-division tables, each flattened
    (entry u * s + v) to symbol_dtype and laid end to end in that order:
    the table attack_r1 reads, that of op kind k at offset k * s * s."""
    dtype = symbol_dtype(q.order)
    return np.concatenate([np.array(t, dtype).ravel()
                           for t in (q.table, q._ldiv, q._rdiv)])


def _propagate(cols, level, s, table):
    """Run a level's steps on the branches in the columns of cols, one take
    over the live columns per step.

    Returns the live columns, the index of each among those given, and an
    array holding, for each dead column, the table reads it made up to and
    including the check that killed it (-1 for a live one).
    """
    x, y, kind, c = level[3].T
    off = kind[:, None] * (s * s)
    keep = np.arange(cols.shape[1])
    died = np.full(keep.size, -1)
    for k, lo, hi, sets in level[4]:
        # index arithmetic in intp: a uint8 row times order would wrap
        idx = np.multiply(cols[x[lo:hi]], s, dtype=np.intp)
        idx += cols[y[lo:hi]]
        idx += off[lo:hi]
        got = table.take(idx)
        if not k:
            cols[c[lo:lo + sets]] = got[:sets]
            continue
        ok = got[0] == cols[c[lo]]
        if ok.all():
            continue
        died[keep[~ok]] = k
        keep, cols = keep[ok], cols[:, ok]
        if not keep.size:
            break
    return cols, keep, died


def _grow(parents, level, s, table):
    """_propagate at a guess level over every branch in the columns of
    parents grown by each guess, in lexicographic order; the live columns
    are returned as their out rows."""
    inherit, width = level[:2]
    m = parents.shape[1]
    cols = np.empty((width, m * s), parents.dtype)
    cols[:inherit].reshape(inherit, m, s)[...] = parents[:, :, None]
    cols[inherit].reshape(m, s)[...] = np.arange(s, dtype=parents.dtype)
    cols, keep, died = _propagate(cols, level, s, table)
    return cols[level[-1]], keep, died


def _leaf_parents(cols, levels, k, s, table, reach):
    """Blocks of the branches of the last level but one, in depth-first
    order, grown from the level-k branches in the columns of cols.

    No level above the last can kill a branch (_schedule asserts it), so
    every branch is live and a level-j branch heads s^(g - j) leaves, g the
    last level. A block of level-j parents holds at most CHUNK_COLUMNS //
    (2 * width * s) of them, width that of level j + 1, so that it and the
    copy a check that kills some of it makes fit in CHUNK_COLUMNS cells; and
    at most ceil(reach / s^(g - j)), which together head at least reach
    leaves, as many as a search that stops within reach leaves gets to.
    The levels are walked with a stack of block iterators, not by
    recursion, which would nest ceil(N/3) generator frames.
    """
    def blocks(cols, j):
        cap = max(1, min(transforms.CHUNK_COLUMNS // (2 * levels[j + 1][1] * s),
                         -(-reach // s ** (len(levels) - 1 - j))))
        return (cols[:, lo:lo + cap] for lo in range(0, cols.shape[1], cap))

    stack = [blocks(cols, k)]
    while stack:
        block = next(stack[-1], None)
        j = k + len(stack) - 1
        if block is None:
            stack.pop()
        elif j + 2 == len(levels):
            yield block
        else:
            stack.append(blocks(_grow(block, levels[j + 1], s, table)[0], j + 1))


def attack_r1(q, b, budget=None, first_hit=False):
    """Invert the single-reverse function by table completion and guessing.

    The known output row seeds an upward cascade of left divisions; row-0
    cells are then guessed in ascending position order, each guess propagated
    to a fixpoint, until the whole input row is forced. Complete candidates
    are verified by forward evaluation, so every returned preimage is exact.

    The search is depth first, and its counters are those of the depth-first
    search: one guess per leaf it reaches, and the reads of every branch it
    reaches. Only the last of the g = ceil(N/3) guess levels can kill a
    branch, so above it the search tree is complete and the counters take a
    closed form in the number of leaves reached (see the module docstring).
    A full search reaches all s^g leaves, so one over the budget is refused
    before the schedule is compiled; under first_hit the search stops at the
    first preimage, and raises once the leaves it counted pass the budget.

    The propagation follows a schedule compiled once per output length
    (_schedule). Branches are grown a block at a time (_leaf_parents), as
    the columns of an array of cells in symbol_dtype. A full search reads
    exactly what lookups counts. When first_hit stops the search at a
    preimage, the rest of the blocks open there has been read as well,
    beyond lookups.

    Returns an AttackTrace; an empty preimage list is a valid outcome.
    """
    t0 = time.perf_counter()
    b = tuple(b)
    check_string(q, b)
    n = len(b)
    notes = _hypothesis_warnings(q)
    s = q.order
    limit = resolve_budget(budget)
    # a full search makes exactly s^ceil(n/3) guesses; refuse one over the
    # budget before compiling its schedule
    g = -(-n // 3)
    if not first_hit and (over_by_exponent(s, g, limit) or s**g > limit):
        refuse("guess count", limit)
    levels, seeds = _schedule(n)
    table = _r1_table(q)
    inherit, width, reads, *_, out = levels[0]
    root = np.empty((width, 1), table.dtype)
    root[:inherit, 0] = [b[c - n * n] for c in seeds]
    root, keep, _ = _propagate(root, levels[0], s, table)
    assert keep.size, "output row alone cannot contradict"
    found, leaves, leaf_reads = [], 0, 0
    for parents in _leaf_parents(root[out], levels, 0, s, table, limit + 1):
        cols, keep, died = _grow(parents, levels[-1], s, table)
        stop = died.size
        for i, cand in zip(keep.tolist(), map(tuple, cols.T.tolist())):
            if _r1_eval(q, cand) == b:
                found.append(cand)
                if first_hit:
                    stop = i + 1
                    break
        # a leaf killed by a check made died reads; a candidate made the
        # level's reads and n * n more to be verified through r1
        leaf_reads += int(np.where(died < 0, levels[-1][2] + n * n, died)[:stop].sum())
        leaves += stop
        charge(leaves, limit, "guess count")
        if first_hit and found:
            break
    # a level-k branch heads s^(g - k) leaves, so the leaves counted lie
    # under the first ceil(leaves / s^(g - k)) level-k branches
    lookups = reads + leaf_reads + sum(-(-leaves // s ** (g - k)) * levels[k][2]
                                       for k in range(1, g))
    found.sort()
    return AttackTrace(preimages=found, guesses=leaves, lookups=lookups,
                       elapsed=time.perf_counter() - t0, warnings=notes)


def attack_r2(q, b, budget=None, first_hit=False):
    """Invert the double-reverse function by the column sweep over all s^N
    guess tuples in packed order (see the module docstring).
    """
    t0 = time.perf_counter()
    b = tuple(b)
    check_string(q, b)
    n = len(b)
    charge_power(q.order, n, resolve_budget(budget), "branch count")
    notes = _hypothesis_warnings(q)
    found, guesses, lookups = _sweep(q, n, tuple(family_steps(q.order, n)), b, first_hit)
    return AttackTrace(preimages=found, guesses=guesses, lookups=lookups,
                       elapsed=time.perf_counter() - t0, warnings=notes)
