"""Pure-Python reference versions of the classification engines.

The package computes witnesses with a batched, vectorized search and
periods from the exact repeating unit. These are the direct definitions
they replace: one leader string at a time through the reference
transformations, and the minimal period of a width-symbol window.
"""
import itertools

from qows import OwfSpec, PeriodPoint, leader_strings, minimal_period
from qows.transforms import e_row, resolve_leaders


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
