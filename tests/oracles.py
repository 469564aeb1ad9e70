"""Reference versions of the classification engines and of the attacks.

The package computes witnesses with a batched, vectorized search and
periods from the exact repeating unit. These are the direct definitions
they replace: one leader string at a time through the reference
transformations, and the minimal period of a width-symbol window.

The attack runs on a grid of int cells; reference_attack_r1 is the same
search on a grid of (row, column) cells in a dict, with the same relation
order, LIFO queue and early return, so its counters must match exactly.

The double-reverse attack and brute force share a column sweep that drops
a tuple at the first output column it misses. reference_attack_r2 is the
scan it replaced, which peels the last N steps off the output for every
guess tuple and compares the middle row with the tuple's r1 image;
reference_preimages compares whole images of all of Q^N.
"""
import itertools

import numpy as np

from qows import OwfSpec, PeriodPoint, leader_strings, minimal_period
from qows import transforms
from qows.transforms import (digit_columns, e_row, family_columns, family_steps,
                             flat_table, leader_ids, r1, resolve_leaders,
                             symbol_dtype, unpack_string)


def reference_witness(q, n, max_len, include_indices=False):
    """First leader string in leader_strings order whose family member is
    injective on Q^n; each candidate is dropped at its first repeated output."""
    table = q.table
    inputs = list(itertools.product(range(q.order), repeat=n))
    for leaders in leader_strings(q.order, n, max_len, include_indices):
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


def reference_attack_r2(q, b, first_hit=False):
    """(preimages, guesses) of the peel-and-compare scan over all s^N guess
    tuples in packed order, chunked by prefix into blocks of a power of s."""
    b = tuple(b)
    n = len(b)
    s = q.order
    mul = flat_table(q)
    ldiv = np.array(q._ldiv, dtype=symbol_dtype(s)).ravel()

    # prefix chunking keeps peak memory at chunk * n cells
    prefix_len = 0
    while s ** (n - prefix_len) > transforms.CHUNK_COLUMNS and prefix_len < n:
        prefix_len += 1
    chunk_size = s ** (n - prefix_len)
    found = []
    guesses = 0
    for pstart in range(s**prefix_len):
        prefix = unpack_string(pstart, s, prefix_len)
        mid = np.array(b, dtype=mul.dtype)[:, None]
        for a in prefix:      # leaders a_0, a_1, ... peel the last steps
            _e_inverse_columns(ldiv, s, a, mid)
        for d in range(prefix_len, n):
            # guess a_d: column i*s + g extends column i, so the final
            # column index is the packed value of the guess tuple
            mid = np.repeat(mid, s, axis=1)
            guess = np.resize(np.arange(s, dtype=mid.dtype), mid.shape[1])
            _e_inverse_columns(ldiv, s, guess, mid)
        block = digit_columns(pstart * chunk_size, (pstart + 1) * chunk_size,
                              s, n, mul.dtype)
        image = family_columns(mul, s, family_steps(s, n, reverses=1), block)
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
    mul = flat_table(spec.q)
    inputs = digit_columns(0, s**n, s, n, mul.dtype)
    image = family_columns(mul, s, family_steps(s, n, leader_ids(spec)), inputs)
    match = (image == np.array(b, dtype=mul.dtype)[:, None]).all(axis=0)
    return [tuple(col) for col in inputs[:, match].T.tolist()]
