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
can kill a branch. The attack runs the schedule on many branches at
once: they are the columns of one array. Reads that do not depend on
each other form one wavefront. Four sets or more of one wavefront and
kind, as the output row's level has, are one take over all of them;
fewer, as past that level nearly always, are three numpy calls a set on
rows of the array. The checks that cannot fail are still read, in one take just
before each closing check and at the end of the level, so a branch that
a closing check kills has made exactly the reads before it. A closing
check that fails drops its columns.

Only the last level can kill a branch. With g guesses there are exactly
g closing checks: the N^2 unknown cells of rows 0..N-1 are g guesses and
N^2 - g assignments, each through a relation of its own, out of N^2
relations (N in each of rows 1..N). So each guessed cell closes one
relation, read as a check once its last cell is known. That this check
comes after the last guess, and that g = ceil(N/3), is verified rather
than proved: it holds for N = 1 to 320, 400 and 500, and _schedule
asserts it for every N it compiles. The attack takes outputs of at most
MAX_R1_LENGTH = 320 symbols, the longest up to which that shape is checked
with no gap; the compile holds about 1 KB for each of the (N + 1) * N
cells, some 100 MB at N = 320. Above the last level the search is
then a complete s-ary tree. The attack grows it depth first by recursion
on the levels, one generator frame per guess level (107 at N = 320), each
taking its blocks of parents from transforms.blocks like every other scan,
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
It holds m = transforms.stack_layers(s) consecutive rows as one row of
stacked states, which one gather steps down a column, and each gather's
bytes become that row.
About 1/s of them survive each column, so a tuple costs about
L * s / (s - 1) table reads rather than L * N.
"""
import functools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import core, transforms
from .budget import charge, charge_power, charge_steps, over_by_exponent, refuse, resolve_budget
from .errors import LengthMismatch, QowsError, SymbolOutOfRange
from .transforms import blocks, check_string, digit_columns, family_columns, family_steps
from .transforms import flat_table, gather, index_buffer, layer_symbols, leader_ids
from .transforms import pack_columns, pack_layers, stack_layers, stack_tables, symbol_dtype


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
    """Preimage counts over the whole codomain, in packed-value order.
    preimage_histogram counts in count_dtype(order^n): uint32, or uint64
    from 2^32 values on."""

    counts: np.ndarray
    order: int
    n: int

    @property
    def domain_size(self):
        return self.order**self.n

    def flags(self):
        """(is_permutation, is_regular, largest count), from the number of
        nonzero counts and the largest: every count is 1 when none is 0 and
        the largest is 1, and the nonzero counts are equal when as many
        counts equal the largest."""
        hit = np.count_nonzero(self.counts)
        top = int(self.counts.max(initial=0))
        regular = hit > 0 and np.count_nonzero(self.counts == top) == hit
        return hit == len(self.counts) and top == 1, regular, top

    @property
    def is_permutation(self):
        return self.flags()[0]

    @property
    def is_regular(self):
        return self.flags()[1]

    def count_of(self, value):
        """The preimage count of the packed value, in [0, order^n)."""
        if not 0 <= value < len(self.counts):
            raise SymbolOutOfRange(f"value {value} not in [0, {self.order}^{self.n})")
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


def _charge_scan(s, n, leaders, budget, what):
    """Charge a scan of Q^n under leaders preprocessing leaders: its s^n
    tuples, named by what, then one evaluation's (leaders + 2n) * n
    e-steps, which bound the scan where s^n does not, at order 1."""
    limit = resolve_budget(budget)
    charge_power(s, n, limit, what)
    charge_steps(leaders + 2 * n, n, limit)


def charge_search(method, s, n, leaders=0, budget=None, first_hit=False):
    """Refuse, from the output length n alone, what method ("brute",
    "attack-r1" or "attack-r2") refuses at order s before any work, so that
    a caller holding only n refuses before it builds an n-symbol string.

    brute charges its domain size under leaders preprocessing leaders, and
    attack-r2 its branch count, each with one evaluation's e-steps. A full
    attack-r1 search makes exactly s^ceil(n/3) guesses, charged unless
    first_hit, and attack-r1 takes outputs of at most MAX_R1_LENGTH symbols.
    """
    if method != "attack-r1":
        _charge_scan(s, n, leaders, budget,
                     "domain size" if method == "brute" else "branch count")
        return
    limit = resolve_budget(budget)
    g = -(-n // 3)
    if not first_hit and (over_by_exponent(s, g, limit) or s**g > limit):
        refuse("guess count", limit)
    if n > MAX_R1_LENGTH:
        raise QowsError(f"attack-r1 takes outputs of at most {MAX_R1_LENGTH} symbols, got {n}")


def _sweep(q, ids, b, first_hit, t0, notes=()):
    """The AttackTrace of b, of length n, under the family member whose
    preprocessing leaders have the token ids ids, by the column sweep over
    Q^n in packed order: the preimages, the tuples scanned as guesses, the
    table reads made as lookups, the time since t0, and the structure
    notes. first_hit stops after the first block holding a preimage,
    keeping one.
    """
    s, n = q.order, len(b)
    steps = tuple(family_steps(s, n, ids))
    m = stack_layers(s)
    groups = [steps[g:g + m] for g in range(0, len(steps), m)]
    stack = stack_tables(flat_table(q), s)
    found, scanned, lookups = [], 0, 0
    for lo, hi in blocks(s**n):
        inputs = digit_columns(lo, hi, s, n, stack.dtype)
        scanned += inputs.shape[1]
        # one row per group of m steps: its layers' leaders, then their
        # state after the last column stepped, packed (pack_layers); each
        # gather's bytes become the row. A tuple leaves the rows at its
        # first miss; alive, once a column has been stepped, holds the
        # block columns of the tuples left, and inputs stays whole
        rows = [pack_layers([t if t < s else inputs[t - s] for t in group], s)
                for group in groups]
        alive = None
        for j in range(n):
            # down a column, a group's last layer leads the next group
            a = inputs[j] if alive is None else inputs[j].take(alive)
            buf = index_buffer(stack, len(a))
            symbols = np.empty_like(a) if m > 1 else None
            for g, group in enumerate(groups):
                rows[g] = a = gather(stack, s, rows[g], a, buf)
                if m > 1:
                    a = layer_symbols(a, s, len(group), out=symbols)
            lookups += len(steps) * len(a)
            keep = np.flatnonzero(a == b[j])
            rows = [row.take(keep) for row in rows]
            alive = keep if alive is None else alive.take(keep)
        found += map(tuple, inputs[:, alive[:1 if first_hit else None]].T.tolist())
        if first_hit and found:
            break
    return AttackTrace(preimages=found, guesses=scanned, lookups=lookups,
                       elapsed=time.perf_counter() - t0, warnings=list(notes))


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
    charge_search("brute", s, n, len(spec.leaders), budget)
    return _sweep(spec.q, leader_ids(spec), b, first_hit, t0)


def count_dtype(domain):
    """The dtype of the counts and packed images of a histogram over a
    domain of that many values: uint32, or uint64 from 2^32 values on. A
    count is at most the domain size, and a packed image below it."""
    return np.dtype(np.uint32 if domain < 1 << 32 else np.uint64)


def _count_block(counts, stack, s, n, steps, lo, hi):
    """Add the images of inputs lo..hi-1 into counts, packed in their
    dtype, through stack, the table's stacked step. The block's digit
    rows, image and packed images are gone when it returns, before the
    next block is built."""
    image = family_columns(stack, s, steps, digit_columns(lo, hi, s, n, stack.dtype))
    # a typed one: with a Python int, narrow counts take a slow casting path
    np.add.at(counts, pack_columns(image, s, counts.dtype), counts.dtype.type(1))


def preimage_histogram(spec, budget=None):
    """Count preimages of every output value by full forward enumeration,
    in count_dtype(s^N), one block of inputs at a time."""
    s, n = spec.q.order, spec.n
    _charge_scan(s, n, len(spec.leaders), budget, "domain size")
    stack = stack_tables(flat_table(spec.q), s)
    steps = tuple(family_steps(s, n, leader_ids(spec)))
    counts = np.zeros(s**n, dtype=count_dtype(s**n))
    for lo, hi in blocks(s**n):
        _count_block(counts, stack, s, n, steps, lo, hi)
    return PreimageHistogram(counts=counts, order=s, n=n)


# The longest output attack_r1 takes (see the module docstring).
MAX_R1_LENGTH = 320

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

    A level (inherit, width, reads, program, out) works on the rows of
    an array of width rows, one cell each: the inherit cells the level
    needs from earlier levels, then its guessed cell, then the cells it
    sets. It makes reads table reads, in the steps (k, x, y, kind, c) of
    its program (_program), in order:
      k = 0    one read sets row c to the entry (row x, row y) of the
               multiplication, left- or right-division table by kind;
      k > 0    a closing check, the k-th read of the level, kills the
               branch unless x * y is row c;
      k = -1   several reads of one kind in one take, x and y arrays of
               rows: 4 sets or more of a wavefront, reads whose rows are
               all set before it, c the rows set; or, with kind _MUL and
               c None, the checks that cannot fail since the closing check
               before, read but not compared.
    out are the rows later levels need, in the order of the next level's
    inherited rows; after the last level, the input row. seeds are the
    output-row cells level 0 inherits.
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
        levels.append((len(inherit), len(at), len(ops), _program(ops, at),
                       np.array([at[c] for c in need], dtype=np.intp)))
        need = inherit
    # the shape attack_r1 counts on (see the module docstring): ceil(n/3)
    # guess levels, and no closing check before the last, levels[0] here
    assert len(levels) == 1 + -(-n // 3) and not any(
        step[0] > 0 for level in levels[1:] for step in level[3]), n
    return tuple(levels[::-1]), tuple(need)


def _program(ops, at):
    """The run program of one level (see _schedule) from its reads in
    order, each (kind, x, y, c, closing, front), on the rows at of its cells.

    The reads between two closing checks, and after the last, form a
    segment: its sets by wavefront and kind, a step a set where fewer than
    4 share both, then its checks that cannot fail in one step, then the
    closing check that ends it."""
    program, fronts, checks = [], {}, []
    # a closing sentinel ends the last segment
    for i, (kind, x, y, c, closing, front) in enumerate(ops + [(_MUL, 0, 0, 0, True, 0)]):
        if not closing:
            if kind == _CHECK:
                checks.append((at[x], at[y]))
            else:
                fronts.setdefault((front, kind), []).append((at[x], at[y], at[c]))
            continue
        for (_, how), sets in sorted(fronts.items()):
            # below 4 sets, three numpy calls a set beat one fancy take
            if len(sets) < 4:
                program += [(0, x, y, how, c) for x, y, c in sets]
            else:
                xs, ys, cs = (np.array(rows, dtype=np.intp) for rows in zip(*sets))
                program.append((-1, xs, ys, how, cs))
        if checks:
            xs, ys = (np.array(rows, dtype=np.intp) for rows in zip(*checks))
            program.append((-1, xs, ys, _MUL, None))
        if i < len(ops):
            program.append((i + 1, at[x], at[y], _MUL, at[c]))
        fronts, checks = {}, []
    return tuple(program)


def _r1_table(q):
    """q's multiplication, left- and right-division tables, each flattened
    (entry u * s + v) to symbol_dtype and laid end to end in that order:
    the table attack_r1 reads, that of op kind k at offset k * s * s."""
    return np.array((q.table, q._ldiv, q._rdiv), symbol_dtype(q.order)).ravel()


def _propagate(cols, level, s, table):
    """Run a level's program on the branches in the columns of cols: a step
    that reads one cell makes three numpy calls on rows of cols, one that
    reads several makes one take, or one per CHUNK_COLUMNS / 32 reads.

    Returns the live columns, the index of each among those given, and an
    array holding, for each dead column, the table reads it made up to and
    including the check that killed it (-1 for a live one).
    """
    part = tuple(table.reshape(3, s * s))
    keep = np.arange(cols.shape[1])
    # index arithmetic in intp: a uint8 row times order would wrap
    died, idx = np.full(keep.size, -1), np.empty(keep.size, np.intp)
    for k, x, y, kind, c in level[3]:
        if k < 0:
            # at most CHUNK_COLUMNS / 32 reads a take, so that its two intp
            # arrays hold no more bytes than a block may hold cells
            for lo, hi in blocks(len(x), 32 * cols.shape[1]):
                got = part[kind].take(np.multiply(cols[x[lo:hi]], s, dtype=np.intp)
                                      + cols[y[lo:hi]])
                if c is not None:
                    cols[c[lo:hi]] = got
            continue
        np.multiply(cols[x], s, out=idx, dtype=np.intp)
        idx += cols[y]
        if not k:
            # clip: the index is in range, and a take that may raise
            # buffers its out
            part[kind].take(idx, out=cols[c], mode="clip")
            continue
        ok = part[_MUL].take(idx) == cols[c]
        if ok.all():
            continue
        died[keep[~ok]] = k
        keep, cols, idx = keep[ok], cols[:, ok], idx[ok]
        if not keep.size:
            break
    return cols, keep, died


def _leaves(parents, levels, s, table, reach, j=1):
    """_propagate at the last level, per block of its branches in depth-first
    order, grown from the level-(j - 1) branches in the columns of parents:
    level j grows each parent by every guess, in lexicographic order, and
    passes its live columns, as their out rows, on to level j + 1.

    No level above the last can kill a branch (_schedule asserts it), so a
    level-(j - 1) parent heads s^(g - j + 1) leaves, g the last level. A
    level scans at most ceil(reach / s^(g - j + 1)) of its parents, which
    head at least reach leaves, as many as a search that stops within reach
    leaves gets to. Its blocks of parents are blocks(total, 2 * width * s),
    width that of level j, so that a block grown and the copy a check that
    kills some of it makes fit in CHUNK_COLUMNS cells. A block's columns
    hold level j's rows (see _schedule): its parents' out rows as the
    inherit rows, then the guess, then the rows its program sets.
    """
    inherit, width, *_, out = levels[j]
    total = min(parents.shape[1], -(-reach // s ** (len(levels) - j)))
    for lo, hi in blocks(total, 2 * width * s):
        cols = np.empty((width, (hi - lo) * s), parents.dtype)
        cols[:inherit].reshape(inherit, hi - lo, s)[...] = parents[:, lo:hi, None]
        cols[inherit].reshape(-1, s)[...] = np.arange(s, dtype=parents.dtype)
        cols, keep, died = _propagate(cols, levels[j], s, table)
        if j + 1 < len(levels):
            yield from _leaves(cols[out], levels, s, table, reach, j + 1)
        else:
            yield cols[out], keep, died


def _r1_eval(table, a):
    """r1 of a candidate of attack_r1, through the unchecked loop and not
    charged: the candidate is a string over the table's symbols."""
    return transforms._last(transforms._steps(table, a[::-1], a))


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
    An output longer than MAX_R1_LENGTH is refused with a QowsError before
    the schedule is compiled, first_hit or not.

    The propagation follows a schedule compiled once per output length
    (_schedule). Branches are grown a block at a time (_leaves), as
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
    s = q.order
    # refused before the O(s^3) structure probe and the schedule compile
    charge_search("attack-r1", s, n, budget=budget, first_hit=first_hit)
    notes = _hypothesis_warnings(q)
    limit = resolve_budget(budget)
    g = -(-n // 3)
    levels, seeds = _schedule(n)
    table = _r1_table(q)
    inherit, width, reads, *_, out = levels[0]
    root = np.empty((width, 1), table.dtype)
    root[:inherit, 0] = [b[c - n * n] for c in seeds]
    root, keep, _ = _propagate(root, levels[0], s, table)
    assert keep.size, "output row alone cannot contradict"
    found, leaves, leaf_reads = [], 0, 0
    for cols, keep, died in _leaves(root[out], levels, s, table, limit + 1):
        stop = died.size
        for i, cand in zip(keep.tolist(), map(tuple, cols.T.tolist())):
            if _r1_eval(q.table, cand) == b:
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
    charge_search("attack-r2", q.order, len(b), budget=budget)
    notes = _hypothesis_warnings(q)
    return _sweep(q, (), b, first_hit, t0, notes)
