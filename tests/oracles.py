"""Reference versions of the classification engines and of the attacks.

The package computes witnesses with a batched, vectorized search and
periods from the exact repeating unit. These are the direct definitions
they replace: one leader string at a time through the reference
transformations, and the minimal period of a width-symbol window.

The attack runs a propagation schedule, compiled once per output length,
on blocks of branches held as numpy columns. reference_attack_r1 is the
depth-first search it reproduces, one branch at a time on a grid of
(row, column) cells in a dict, with the same relation order, LIFO queue
and early return, so its counters must match exactly.

The double-reverse attack and brute force share a column sweep that drops
a tuple at the first output column it misses. reference_attack_r2 is the
scan it replaced, which peels the last N steps off the output for every
guess tuple and compares the middle row with the tuple's r1 image;
reference_preimages compares whole images of all of Q^N. Both enumerate
Q^N with itertools.product, not with the package's digit_columns, and
step images by 2-D gathers into the table, reading the Const and Index
leaders themselves, not through the package's family_columns and its
token ids.

The histogram adds each block's images into the counts in place;
reference_histogram counts r_n of every input one at a time. Its flags
come from one scan of the nonzero counts; reference_histogram_flags is
the pair of whole-array compares they replaced. The histogram record
writes its "<value> <count>" lines from one matrix of digits;
reference_histogram_text is the per-entry f-string loop it replaced.

The period engine steps m iterates at once through one stacked table;
reference_unit_profile is the loop it replaced, one iterate per pass.

The renderer sweeps anti-diagonals of tiles; reference_render is the
row-by-row loop it replaced. algebraic_probe compares whole (v, w) slices;
reference_algebraic_probe is the scalar scan it replaced.

random_latin places each row by augmenting paths over bitmasks;
reference_random_latin takes the first of itertools.permutations of the
row's shuffled symbol order that fits under the rows above.
"""
import itertools
import random

import numpy as np

from qows import (AlgebraicProfile, Const, FormatError, Index, OwfSpec,
                  PeriodPoint, minimal_period, pack_string, palette, r_n)
from qows import transforms
from qows.transforms import (e_row, periodic_row, r1, resolve_leaders,
                             symbol_dtype)


def reference_witness(q, n, max_len, include_indices=False):
    """First leader string in leader_strings order whose family member is
    injective on Q^n; each candidate is dropped at its first repeated output.
    The strings are its own itertools.product over its own tokens, not the
    package's token-id codec."""
    table = q.table
    inputs = list(itertools.product(range(q.order), repeat=n))
    tokens = [Const(v) for v in range(q.order)]
    tokens += [Index(j) for j in range(n)] if include_indices else []
    strings = (itertools.product(tokens, repeat=k) for k in range(max_len + 1))
    for leaders in itertools.chain.from_iterable(strings):
        spec = OwfSpec(q, n, leaders)
        seen = set()
        for a in inputs:
            b = a
            for l in resolve_leaders(spec, a):
                b = e_row(table, l, b)
            b = tuple(b)
            if b in seen:
                break
            seen.add(b)
        else:
            return leaders
    return None


def window_rows(q, leader, motif, width, iterations):
    """Iterates 1..iterations of the periodic extension of motif to width."""
    row = list(motif) * (width // len(motif))
    for _ in range(iterations):
        row = e_row(q.table, leader, row)
        yield row


def window_profile(q, leader, motif, width, iterations):
    """The period a width-symbol window shows at each iterate: its minimal
    period if at most width / 2, else the width, capped."""
    points = []
    for k, row in enumerate(window_rows(q, leader, motif, width, iterations), 1):
        p = minimal_period(row)
        points.append(PeriodPoint(k, p, False) if 2 * p <= width
                      else PeriodPoint(k, width, True))
    return tuple(points)


def reference_unit_profile(table, leader, unit, width, iterations):
    """The uncapped periods of period_profile one iterate at a time, the
    single-layer loop the stacked engine replaced: the next iterate's unit
    is c passes of the e-step over this one's, c the first pass count at
    whose end the state is the leader again, and the list ends at the
    first iterate whose period would pass width / 2."""
    periods = []
    for _ in range(iterations):
        nxt = e_row(table, leader, unit)
        while True:
            x = nxt[-1]
            least = len(nxt) if x == leader else len(nxt) + len(unit)
            if 2 * least > width:
                return periods
            if x == leader:
                break
            nxt += e_row(table, x, unit)
        unit = nxt
        periods.append(len(unit))
    return periods


class _ReferenceGrid:
    """Partial table of intermediate rows with fixpoint propagation.

    Cells are addressed (i, j): i = 0..rows-1 top to bottom, j = 0..n-1.
    Relations are triples of cells (x, y, z) constrained by x * y = z.
    """

    def __init__(self, q, n, rows, leader_of_step):
        self.q = q
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
        """Derive every forced cell reachable from the seeds; False on
        contradiction."""
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


def reference_attack_r1(q, b, first_hit=False):
    """(preimages, guesses, lookups) of the single-reverse attack on b."""
    b = tuple(b)
    n = len(b)
    grid = _ReferenceGrid(q, n, rows=n + 1, leader_of_step=lambda i: (0, n - i))
    trail = []
    for j in range(n):
        grid.assign((n, j), b[j], trail)
    assert grid.propagate([(n, j) for j in range(n)], trail)
    stats = {"guesses": 0}
    found = []

    def dfs():
        pos = next((j for j in range(n) if (0, j) not in grid.values), None)
        if pos is None:
            stats["guesses"] += 1
            cand = tuple(grid.values[(0, j)] for j in range(n))
            grid.lookups += n * n
            if r1(q, cand) == b:
                found.append(cand)
                if first_hit:
                    return True
            return False
        for v in range(q.order):
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
    return sorted(found), stats["guesses"], grid.lookups


def _e_inverse_columns(ldiv, order, leader, state):
    """e_inverse of every column of state, in place; leader is a symbol or
    one per column."""
    idx = np.empty(state.shape[1], dtype=np.intp)
    for j in range(state.shape[0] - 1, -1, -1):
        np.multiply(state[j - 1] if j else leader, order, out=idx, dtype=np.intp)
        idx += state[j]
        np.take(ldiv, idx, out=state[j])
    return state


def _strings(order, n, dtype, prefix=()):
    """The strings of Q^n that start with prefix, in packed order, as the
    columns of an array: itertools.product, not the package's enumerator."""
    tails = itertools.product(range(order), repeat=n - len(prefix))
    return np.array([prefix + t for t in tails], dtype=dtype).reshape(-1, n).T.copy()


def _images(q, leaders, strings, reverses):
    """The image of each column of strings (n, count) under the family
    member with the given Const and Index leaders, followed by the reversed
    string reverses times: one 2-D gather into the table per column and
    step, not the package's flat-table kernel."""
    table = np.array(q.table)
    n = len(strings)
    row = strings
    for t in tuple(leaders) + tuple(map(Index, range(n - 1, -1, -1))) * reverses:
        x = t.value if isinstance(t, Const) else strings[t.j]
        out = np.empty_like(row)
        for j in range(n):
            x = out[j] = table[x, row[j]]
        row = out
    return row


def reference_attack_r2(q, b, first_hit=False):
    """(preimages, guesses) of the peel-and-compare scan over all s^N guess
    tuples in packed order, chunked by prefix into blocks of a power of s."""
    b = tuple(b)
    n = len(b)
    s = q.order
    dtype = symbol_dtype(s)
    ldiv = np.array(q._ldiv, dtype=dtype).ravel()

    # prefix chunking keeps peak memory at chunk * n cells
    prefix_len = 0
    while s ** (n - prefix_len) > transforms.CHUNK_COLUMNS and prefix_len < n:
        prefix_len += 1
    chunk_size = s ** (n - prefix_len)
    found = []
    guesses = 0
    for prefix in itertools.product(range(s), repeat=prefix_len):
        mid = np.array(b, dtype=dtype)[:, None]
        for a in prefix:      # leaders a_0, a_1, ... peel the last steps
            _e_inverse_columns(ldiv, s, a, mid)
        for d in range(prefix_len, n):
            # guess a_d: column i*s + g extends column i, so the final
            # column index is the packed value of the guess tuple
            mid = np.repeat(mid, s, axis=1)
            guess = np.resize(np.arange(s, dtype=mid.dtype), mid.shape[1])
            _e_inverse_columns(ldiv, s, guess, mid)
        block = _strings(s, n, dtype, prefix)
        image = _images(q, (), block, reverses=1)
        guesses += chunk_size
        hits = block.T[(image == mid).all(axis=0)][:1 if first_hit else None]
        found += map(tuple, hits.tolist())
        if first_hit and found:
            break
    return sorted(found), guesses


def reference_preimages(spec, b):
    """Every preimage of b under spec, in packed order, from the images of
    all of Q^N evaluated in one block."""
    s, n = spec.q.order, spec.n
    inputs = _strings(s, n, symbol_dtype(s))
    image = _images(spec.q, spec.leaders, inputs, reverses=2)
    match = (image == np.array(b)[:, None]).all(axis=0)
    return [tuple(col) for col in inputs[:, match].T.tolist()]


def reference_render(q, leader, motif, width, iterations, text=False):
    """Portable pixmap of iterated transformations, one e_row per row and
    one palette entry per pixel."""
    rows = [periodic_row(q, motif, width)]
    q._check(leader)
    if iterations < 0:
        raise FormatError(f"iterations must be non-negative, got {iterations}")
    pal = palette(q.order)
    height = iterations + 1
    for _ in range(iterations):
        rows.append(e_row(q.table, leader, rows[-1]))
    if text:
        out = [f"P3\n{width} {height}\n255"]
        for r in rows:
            out.append(" ".join(" ".join(map(str, pal[v])) for v in r))
        return ("\n".join(out) + "\n").encode("ascii")
    body = bytearray()
    flat = [bytes(pal[v]) for v in range(q.order)]
    for r in rows:
        for v in r:
            body += flat[v]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + bytes(body)


def reference_algebraic_probe(q):
    """Commutativity and associativity with their lexicographically first
    counterexamples, by scalar scans."""
    s = q.order
    t = q.table
    comm_w = None
    for u in range(s):
        for v in range(u + 1, s):
            if t[u][v] != t[v][u]:
                comm_w = (u, v)
                break
        if comm_w:
            break
    assoc_w = None
    for u, v, w in itertools.product(range(s), repeat=3):
        if t[t[u][v]][w] != t[u][t[v][w]]:
            assoc_w = (u, v, w)
            break
    return AlgebraicProfile(
        commutative=comm_w is None,
        associative=assoc_w is None,
        commutativity_witness=comm_w,
        associativity_witness=assoc_w,
    )


def reference_histogram(spec):
    """Preimage counts in packed-value order, one r_n call per input."""
    s, n = spec.q.order, spec.n
    counts = np.zeros(s**n, dtype=np.int64)
    for a in itertools.product(range(s), repeat=n):
        counts[pack_string(r_n(spec, a), s)] += 1
    return counts


def reference_histogram_flags(counts):
    """(is_permutation, is_regular): every count is 1; the nonzero counts
    exist and are all equal."""
    nz = counts[counts > 0]
    return bool((counts == 1).all()), bool(nz.size > 0 and (nz == nz[0]).all())


def reference_histogram_text(hist):
    """The histogram record, one f-string per listed entry."""
    full = hist.domain_size <= 4096
    permutation, regular = reference_histogram_flags(hist.counts)
    lines = [
        f"domain {hist.domain_size}",
        f"permutation {'true' if permutation else 'false'}",
        f"regular {'true' if regular else 'false'}",
        f"entries {'all' if full else 'nonzero'}",
    ]
    for value, count in enumerate(hist.counts.tolist()):
        if full or count:
            lines.append(f"{value} {count}")
    return "\n".join(lines) + "\n"


def reference_random_latin(s, seed):
    """The rows of random_latin(s, seed): for each row, in a freshly
    shuffled symbol order, the first permutation of that order in which
    every symbol is new to its column."""
    rng = random.Random(seed)
    rows = []
    for _ in range(s):
        order = list(range(s))
        rng.shuffle(order)
        used = [{r[j] for r in rows} for j in range(s)]
        rows.append(next(p for p in itertools.permutations(order)
                         if not any(v in used[j] for j, v in enumerate(p))))
    return tuple(rows)
