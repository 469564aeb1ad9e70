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

The pure-Python reference compositions (e_transform, apply_leader_sequence,
transformation_rows, r1, r2, r_n) pass one entry check, _checked, and then
one loop, _steps, which runs e_row on q.table once per leader. The check
looks at the string once and at each leader once, and charges the
len(leaders) * N e-steps against the budget before any is taken. e_inverse
keeps its own loop behind the same check. What a symbol is, the string's,
a leader's or a constant leader's of an OwfSpec, is decided by q's one
symbol check, Quasigroup._check: an integer in the sense of operator.index
in [0, order). This module keeps no symbol test of its own but
pack_string's, which has a base and no quasigroup.

Besides the pure-Python reference steps, two vectorized forms run the same
step: e_columns over many independent strings, and e_iterates over the grid
of a string and its iterates with a constant leader, the renderer's input.
The bulk scans (family_columns, and the column sweep of inversion) step m =
stack_layers(order) e-steps per gather through one stacked step of at most
256 entries (stack_tables), whose states pack m symbols in a byte: 3 at
order 4, 1 from order 7 up, where the stacked step is the table. The
census's period engine cuts its rows from the same builder.
That grid is swept in b x b tiles, b = tile_side(order), the largest with
order^(2b) <= TILE_ENTRIES (3 at order 4, 1 from order 9 up): a tile
follows from the b symbols left of it and the b above it, so one table of
all tiles' (right, bottom) edges is built per call, and each anti-diagonal
of tiles is one add of the last one's edges into the new tiles' ids and
one take of their edges.
"""
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .budget import as_integer, charge_steps, resolve_budget
from .errors import (
    EmptyString,
    FormatError,
    IndexLeaderOutOfRange,
    LengthMismatch,
    OrderMismatch,
    OrderNotSupported,
    SymbolOutOfRange,
)


def check_string(q, a):
    """Raise EmptyString unless a is nonempty, then OrderMismatch at its
    first symbol that is not one of q's, by q's one symbol check,
    Quasigroup._check."""
    if len(a) == 0:
        raise EmptyString("transformations are defined for strings of length >= 1")
    q._check(*a, error=OrderMismatch)


def e_row(table, leader, a):
    """e_transform without checks, on q.table, returning a list."""
    out = []
    x = leader
    for sym in a:
        x = table[x][sym]
        out.append(x)
    return out


def _checked(q, leaders, a):
    """(leaders, a) as tuples after the one check of a composition: a must
    be a nonempty string over q's symbols, then each leader a symbol of q.
    leaders may be a function of the checked string, which gives them. The
    len(leaders) * len(a) e-steps are charged against the budget before
    any is taken."""
    a = tuple(a)
    check_string(q, a)
    leaders = tuple(leaders(a) if callable(leaders) else leaders)
    q._check(*leaders, what="leader")
    charge_steps(len(leaders), len(a), resolve_budget())
    return leaders, a


def _steps(table, leaders, a):
    """The rows of a composition, unchecked: a, then e_row of the row
    before under each leader in turn, first listed leader first."""
    yield a
    for l in leaders:
        a = e_row(table, l, a)
        yield a


def _last(rows):
    """The last of the rows, as a tuple."""
    for row in rows:
        pass
    return tuple(row)


def e_transform(q, leader, a):
    """Apply one elementary transformation with the given constant leader.

    Args:
        q: the quasigroup.
        leader: seed symbol; the first output is leader * a[0].
        a: nonempty input string over q's symbols.

    Returns the transformed string as a tuple, the same length as a.
    """
    return _last(_steps(q.table, *_checked(q, (leader,), a)))


def e_inverse(q, leader, b):
    """Invert e_transform for the same leader.

    Uniqueness of left division makes the step bijective for every fixed
    leader, so e_inverse(q, l, e_transform(q, l, a)) == a always holds.
    """
    leaders, b = _checked(q, (leader,), b)
    ldiv = q._ldiv
    # a_i = b_{i-1} \ b_i, with b_{-1} the leader
    return tuple(ldiv[prev][x] for prev, x in zip(leaders + b, b))


def symbol_dtype(order):
    """The narrowest unsigned dtype holding the symbols 0..order-1."""
    return np.uint8 if order <= 256 else np.uint16


def flat_table(q):
    """q.table flattened (entry u * s + v) to symbol_dtype."""
    return np.array(q.table, dtype=symbol_dtype(q.order)).ravel()


# A stacked step of m e-steps has order^(m+1) <= STACK_ENTRIES entries, so
# its states fit a byte and it gathers through the byte table; MAX_LAYERS
# bounds m at order 1, where every m qualifies.
STACK_ENTRIES = 256
MAX_LAYERS = 8


@functools.lru_cache(maxsize=256)
def stack_layers(order):
    """m, the e-steps one stacked step takes: the most with order^(m+1) <=
    STACK_ENTRIES, up to MAX_LAYERS. 3 at order 4, 4 at order 3, 7 at order
    2, 2 at orders 5 and 6, 1 from order 7 up. Kept for the 256 orders last
    asked, as the small scans of a witness search ask it once a row."""
    m = 1
    while m < MAX_LAYERS and order ** (m + 2) <= STACK_ENTRIES:
        m += 1
    return m


def stack_tables(mul, order):
    """The stacked step of each of the flat tables of that order laid end
    to end in mul, laid end to end the same way: in a table's step, entry
    state * order + a is the state after symbol a from state. A state
    packs the symbols of m = stack_layers(order) layers of e-steps in base
    order, the first layer most significant, and layer j steps x_j <- x_j *
    (the symbol layer j-1 just wrote, or a for the first). The steps are in
    mul's dtype, uint8 up to order 6; with m = 1, from order 7 up, they
    are a copy of mul.
    """
    m = stack_layers(order)
    # the narrowest dtype holding every entry and every index of mul
    dtype = np.min_scalar_type(max(len(mul), STACK_ENTRIES) - 1)
    cell = np.arange(order ** (m + 1), dtype=dtype)     # entry = state * s + a
    base = np.arange(0, len(mul), order * order, dtype=dtype)[:, None]
    prev, state = cell % order, 0
    for j in range(m):
        prev = mul[base + cell // order ** (m - j) % order * order + prev]
        state = state * order + prev
    return state.astype(mul.dtype, copy=False).ravel()


def pack_layers(leaders, order):
    """The state of a stacked step (stack_tables) whose first len(leaders)
    layers hold leaders, each a symbol or one per column, and whose other
    layers hold 0."""
    spare = [0] * (stack_layers(order) - len(leaders))
    return functools.reduce(lambda x, l: x * order + l, [*leaders, *spare])


def layer_symbols(x, order, k, out=None):
    """The symbol that layer k (1 for the first) of the stacked states x
    holds, into out: x // order^(m-k) % order, with the remainder taken as
    a difference, as numpy divides a uint8 by a scalar far faster than it
    takes one's remainder."""
    d = order ** (stack_layers(order) - k)
    x = x // d if d > 1 else x
    out = np.multiply(np.floor_divide(x, order, out=out), order, out=out)
    return np.subtract(x, out, out=out)


def index_buffer(mul, width):
    """The buffer that gather builds width indices into mul in: a bytearray
    for a table of at most 256 entries, else an array of the narrowest
    unsigned dtype holding len(mul) - 1, uint8 up to order 16 and for the
    stacked step of one table."""
    if len(mul) <= 256:
        return bytearray(width)
    return np.empty(width, np.min_scalar_type(len(mul) - 1))


def gather(mul, order, x, a, buf, offset=None):
    """mul[x * order + a (+ offset)] for every column, unchecked, as a new
    array: x and a are symbols or states, one per column (x may be one for
    all), and the index is built in buf, an index_buffer(mul) as wide as a.

    That is exact: x * order + a + offset is at most len(mul) - 1, so no
    partial sum passes it either; the casts of x and offset into buf's
    dtype are unsafe only by type.

    A table of at most 256 entries is gathered by bytearray.translate
    through its bytes padded to 256 with 255, and the result is an array
    over the translated bytes, not a copy. 255 is no state and no symbol
    of an order up to 16, so a 255 in the result is an index past the
    table and raises IndexError as np.take does. That spares take's
    widening of the index to intp: 6 rows of 2^18 columns take 1.0-1.7 ms
    against 3.9-4.5 ms at orders 4, 8 and 16 (2-core x86-64, numpy
    2.4.6). Wider tables gather with np.take.
    """
    idx = np.frombuffer(buf, np.uint8) if isinstance(buf, bytearray) else buf
    np.multiply(x, order, out=idx, dtype=idx.dtype, casting="unsafe")
    idx += a
    if offset is not None:
        np.add(idx, offset, out=idx, dtype=idx.dtype, casting="unsafe")
    if len(mul) > 256:
        return np.take(mul, idx)
    got = buf.translate(mul.tobytes().ljust(256, b"\xff"))
    if len(mul) < 256 and 255 in got:
        raise IndexError(f"index past the {len(mul)}-entry table")
    return np.frombuffer(got, np.uint8)


def e_columns(mul, order, leader, state, offset=None, layers=None):
    """e_transform of every column of the (n, count) state, in place and
    unchecked. leader is a symbol or one per column. mul is flat_table(q),
    or several tables laid end to end with offset the start of each
    column's; each row is one gather.

    With layers = k, mul is instead the stacked step of such tables
    (stack_tables), offset the start of each column's step, and leader the
    packed state of k layers (pack_layers): one gather a row steps all k,
    and the row becomes the symbol of layer k.
    """
    buf, x = index_buffer(mul, state.shape[1]), leader
    for row in state:
        x = gather(mul, order, x, row, buf, offset)
        if layers is not None and stack_layers(order) > 1:
            layer_symbols(x, order, layers, out=row)
        else:
            row[...] = x
    return state


# Entries of e_iterates' tile table: the tile side is the largest b with
# order^(2b) <= TILE_ENTRIES.
TILE_ENTRIES = 4096


def tile_side(order):
    """The side b of e_iterates' tiles: the largest b >= 1 with
    order^(2b) <= TILE_ENTRIES, so 3 at order 4 and 1 from order 9 up
    (1 at order 1, where every b qualifies)."""
    b = 1
    while order > 1 and order ** (2 * b + 2) <= TILE_ENTRIES:
        b += 1
    return b


def _tile_table(q, b, cells):
    """The table of e_iterates' b x b tiles, with each symbol written as
    the item cells[v]: (pairs, words) over the s^(2b) tile ids.

    A word is b symbols packed base s, the first most significant. Id i is
    the tile whose left word (the b symbols left of it, top to bottom) is
    i // s^b and whose top word (the b above it) is i % s^b; words[r *
    s^(2b) + i] is its row r, its b cells as one item, and pairs[i] its
    edges (right, bottom): its right edge's word times s^b and its bottom
    edge's word, so that a tile's id is its left neighbour's right plus
    the bottom of the tile above it. Row r is one e-step of the word above
    it led by the left word's symbol r, so each row is one take from the
    steps of all s^(b+1) (symbol, word) pairs; at b = 1 the one row is q's
    flat table, and the edges of cell value v are (v * s, v).
    """
    s = q.order
    span = s**b
    count = span * span
    dtype = np.min_scalar_type(count - 1)
    pairs = np.zeros((count, 2), dtype)
    if b == 1:
        rows = flat_table(q)[None]
        np.multiply(rows[0], s, out=pairs[:, 0], dtype=dtype)
    else:
        # steps[l * span + w]: word w after one e-step led by l
        digits = digit_columns(0, s * span, s, b + 1, symbol_dtype(s))
        lefts = np.repeat(np.multiply(digits[1:, :span], span, dtype=dtype), span, axis=1)
        steps = pack_columns(e_columns(flat_table(q), s, digits[0], digits[1:]), s).astype(dtype)
        rows = np.empty((b, count), dtype)
        above = np.tile(np.arange(span, dtype=dtype), span)
        for r in range(b):
            above = rows[r] = steps[lefts[r] + above]
            pairs[:, 0] = pairs[:, 0] * s + above % s * span
    pairs[:, 1] = rows[-1]
    # spelled[w]: the b cells of word w
    spelled = cells.take(np.arange(span)[:, None] // s ** np.arange(b - 1, -1, -1) % s)
    return pairs, spelled.view(f"V{b * cells.itemsize}")[:, 0].take(rows.ravel())


# Tile ids per band of e_iterates' expansion, which bounds its index and
# output temporaries whatever the grid's shape
EXPAND_IDS = 1 << 12


def e_iterates(q, leader, row, iterations, cells=None, out=None):
    """row and its first iterations iterates under e_transform with the
    constant leader, unchecked, symbol v written as the item cells[v]:
    into out, a C-contiguous (iterations + 1, len(row)) array of
    cells.dtype, which is returned read-only. By default cells are the
    symbols themselves in symbol_dtype and out is a new array; the
    renderer passes the palette's colours as 3-byte items and the body of
    its pixmap as out.

    Cell (k, j) is T[cell (k, j-1)][cell (k-1, j)], with the leader left
    of column 0. Rows 1..iterations are cut into b x b tiles, b =
    tile_side(order). A tile's cells depend only on the b symbols left of
    it and the b above it, so each tile is an id into one table built per
    call (_tile_table), which holds each tile's (right, bottom) edges as
    one item of twice the id's size: tile (i, j) is the right edge of tile
    (i, j-1) plus the bottom edge of tile (i-1, j). The leader is a
    virtual column of tiles left of column 0, and row 0 a virtual row
    above row 1; their edges are known before the sweep. One row of edge
    items, tile i of the last anti-diagonal in slot i, carries the sweep:
    each anti-diagonal is one add of that row's right and bottom edges
    into the new tiles' ids and one take of their edges back into the
    row, and then its virtual tiles' edges are set as scalars. At order 4
    (b = 3) a 600 x 600 grid takes 399 anti-diagonals of tiles instead of
    1199 of cells; at b = 1 the table is T and a tile is a cell.

    With R rows and C columns of tiles, the ids are stored skewed,
    anti-diagonal d as row d of a buffer of (R + C + 1) * (min(R, C) + 1)
    ids, and read back through a strided view; a grid with more rows of
    tiles than columns is swept as its transpose, with right and bottom
    swapped. Each anti-diagonal is swept as one whole row of that buffer,
    through views built once: its slots past the grid's end, or past the
    virtual column on the first min(R, C) anti-diagonals, get ids that no
    tile of the grid reads. The ids are then expanded with the tiles'
    rows, mapped through cells when the table is built, straight into
    out, one take per band of about EXPAND_IDS ids, so every temporary
    stays small; the padding below the last row is never expanded, and
    when b does not divide the width each band is cropped on its way into
    out.
    """
    s, width = q.order, len(row)
    dtype = symbol_dtype(s)
    cells = np.arange(s, dtype=dtype) if cells is None else cells
    out = np.empty((iterations + 1, width), cells.dtype) if out is None else out
    b = tile_side(s)
    pairs, words = _tile_table(q, b, cells)
    offsets = np.arange(0, len(words), len(pairs))[:, None]
    n, m = -(-iterations // b) + 1, -(-width // b) + 1
    padded = np.zeros((m - 1) * b, dtype)
    padded[:width] = row
    # the virtual tiles: word w above row 1, or the leader's left of
    # column 0, has the edges (w * s^b, w)
    item = f"u{2 * pairs.itemsize}"
    virtual = np.append(pack_columns(padded.reshape(m - 1, b).T, s),
                        sum(leader * s**i for i in range(b)))
    virtual = np.stack((virtual * s**b, virtual), 1).astype(pairs.dtype)
    virtual = virtual.view(item)[:, 0].tolist()
    top, left, fields = virtual[:-1], virtual[-1:] * (n - 1), (0, 1)
    tall = n > m
    if tall:
        top, left, n, m, fields = left, top, m, n, (1, 0)
    buf = np.empty((n + m - 1, n), pairs.dtype)
    edges = np.zeros((n, 2), pairs.dtype)
    items, pairs = edges.view(item)[:, 0], pairs.view(item)[:, 0]
    # slot i of the edges holds those of tile (i, d - i) of the last
    # anti-diagonal d swept, its left neighbour's for tile (i, d + 1 - i)
    # and its upper neighbour's for tile (i + 1, d - i); the add reads all
    # of them before the take overwrites them
    rights, bottoms, tail = edges[1:, fields[0]], edges[:-1, fields[1]], items[1:]
    for d, ids in enumerate(buf[1:, 1:], 1):
        # every slot but 0, a whole row: a slot past the grid's right end
        # (i < d - m + 1) or not yet in it (i >= d) is read by no tile of
        # the grid; indices are in range, and mode "raise" would buffer out
        np.add(rights, bottoms, out=ids)
        pairs.take(ids, out=tail, mode="clip")
        if d < m:
            items[0] = top[d - 1]
        if d < n:
            items[d] = left[d - 1]
    tiles = np.lib.stride_tricks.as_strided(
        buf, (n, m), ((n + 1) * buf.itemsize, n * buf.itemsize))
    tiles = (tiles.T if tall else tiles)[1:, 1:]
    band = max(1, EXPAND_IDS // (b * tiles.shape[1]))
    out[0] = cells[padded[:width]]
    for t in range(0, len(tiles), band):
        lo, hi = 1 + t * b, min(1 + (t + band) * b, iterations + 1)
        ids = (offsets + tiles[t:t + band, None]).reshape(-1, tiles.shape[1])[:hi - lo]
        if width % b:
            out[lo:hi] = words.take(ids, mode="clip").view(cells.dtype)[:, :width]
        else:
            words.take(ids, out=out[lo:hi].view(words.dtype), mode="clip")
    out.flags.writeable = False
    return out


# Columns per block in every bulk path.
CHUNK_COLUMNS = 1 << 18


def blocks(total, width=1):
    """The (lo, hi) ranges that tile range(total) in order, each of
    max(1, CHUNK_COLUMNS // width) items but the last, which ends at total:
    the blocks of a scan whose items take width columns each."""
    starts = range(0, total, max(1, CHUNK_COLUMNS // width))
    # each block ends where the next starts, the last at total
    return zip(starts, itertools.chain(starts[1:], [total]))


def family_steps(order, n, leaders):
    """An iterator over the token ids of the family member: leaders (which
    may be a generator of per-column steps), then the reversed input twice."""
    rev = range(order + n - 1, order - 1, -1)
    return itertools.chain(leaders, rev, rev)


def leader_ids(spec):
    """The token ids of spec's preprocessing leaders: id l < order is
    Const(l), id order + j is Index(j)."""
    s = spec.q.order
    return tuple(s + t.j if isinstance(t, Index) else t.value for t in spec.leaders)


def leader_tokens(ids, order):
    """Inverse of leader_ids: the leader tokens of the token ids."""
    return tuple(Const(t) if t < order else Index(t - order) for t in ids)


def digit_columns(lo, hi, base, n, dtype):
    """Strings lo..hi-1 of base^n in pack_string order, as the columns of
    an (n, hi - lo) array of dtype.

    Row j holds digit (t // run) % base of each t, run = base^(n-1-j):
    runs of run equal symbols counting up, repeating with period
    run * base. No division touches the block: the row's first
    min(period, width) cells are a short arange repeated run times,
    entered at the block's offset into the period, and the rest of the
    row copies them forward.
    """
    width = hi - lo
    out = np.empty((n, width), dtype=dtype)
    if not width:
        return out
    symbols = np.arange(base, dtype=dtype)
    cycle = np.concatenate((symbols, symbols))
    run = 1
    for row in out[::-1]:
        period = run * base
        first, into = divmod(lo % period, run)
        m = min(period, width)
        # the first run has run - into cells left; a run longer than m
        # shows at most one step, so repeat each symbol only r times and
        # enter where that step still falls run - into cells on (or past m)
        r = min(run, m)
        into = r - min(run - into, r)
        count = -(-(into + m) // r)
        row[:m] = cycle[first:first + count].repeat(r)[into:into + m]
        done = m
        while done < width:
            step = min(done, width - done)
            row[done:done + step] = row[:step]
            done += step
        run = period
    return out


def pack_columns(state, base, dtype=np.intp):
    """pack_string of every column of state, as dtype (which must hold
    base^n - 1 for the n rows of state)."""
    packed = np.zeros(state.shape[1], dtype=dtype)
    for row in state:
        packed *= base
        packed += row
    return packed


def family_columns(stack, order, steps, inputs, offset=None):
    """One e-step per step on a copy of inputs, unchecked, m =
    stack_layers(order) steps a gather: stack is the stacked step
    (stack_tables) of the table, or of several with offset the start of
    each column's. A step is a token id, or an array of one per column
    (resolved in place). Id l < order leads with the constant l, id
    order + j with each column's input symbol j.
    """
    state = inputs.copy()
    steps = iter(steps)
    while group := list(itertools.islice(steps, stack_layers(order))):
        for i, step in enumerate(group):
            if np.ndim(step):
                if step.max(initial=0) >= order:
                    cols = np.flatnonzero(step >= order)
                    step[cols] = inputs[step[cols] - order, cols]
            elif step >= order:
                group[i] = inputs[step - order]
        e_columns(stack, order, pack_layers(group, order), state, offset, len(group))
    return state


def check_periodic(q, motif, width):
    """Raise unless motif is a nonempty string over q's symbols whose
    periodic extension to width symbols is whole."""
    if not motif:
        raise FormatError("motif must be non-empty")
    if width < 1 or width % len(motif):
        raise FormatError(
            f"width {width} is not a positive multiple of motif length {len(motif)}")
    check_string(q, motif)


def periodic_row(q, motif, width):
    """The periodic extension of a motif over q's symbols to width symbols."""
    motif = tuple(motif)
    check_periodic(q, motif, width)
    return list(motif) * (width // len(motif))


def apply_leader_sequence(q, leaders, a):
    """Apply one e_transform per leader, first listed leader first.

    An empty leader sequence returns the input unchanged.
    """
    return _last(_steps(q.table, *_checked(q, leaders, a)))


def transformation_rows(q, leaders, a):
    """Return every row of the computation: the input, then one row per leader.

    Row k+1 is e_transform with leaders[k] applied to row k. Useful for
    reproducing worked tables.
    """
    return [tuple(row) for row in _steps(q.table, *_checked(q, leaders, a))]


def r1(q, a):
    """Single reverse transformation: leaders are the reversed input."""
    return _last(_steps(q.table, *_checked(q, lambda a: a[::-1], a)))


def r2(q, a):
    """Double reverse transformation: the reversed input applied twice."""
    return _last(_steps(q.table, *_checked(q, lambda a: a[::-1] * 2, a)))


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
        if as_integer(self.n, LengthMismatch, "N") < 1:
            raise LengthMismatch("N must be at least 1")
        for tok in self.leaders:
            if isinstance(tok, Const):
                self.q._check(tok.value, what="constant leader")
            elif isinstance(tok, Index):
                if not 0 <= as_integer(tok.j, IndexLeaderOutOfRange, "index leader") < self.n:
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
    leaders = functools.partial(resolve_leaders, spec)
    return _last(_steps(spec.q.table, *_checked(spec.q, leaders, a)))


def pack_string(a, s):
    """Encode a string as an integer, base s, first symbol most significant.

    For s = 4 this matches the two-bit-letter convention: (3, 0) -> 12.
    """
    as_integer(s, OrderNotSupported, "base")
    v = 0
    for x in a:
        if not 0 <= as_integer(x, SymbolOutOfRange, "symbol") < s:
            raise SymbolOutOfRange(f"symbol {x} not in [0, {s})")
        v = v * s + x
    return v


def unpack_string(value, s, n):
    """Decode pack_string: the length-n string whose base-s value is given."""
    as_integer(s, OrderNotSupported, "base")
    if as_integer(n, LengthMismatch, "string length") < 0:
        raise LengthMismatch(f"string length must be non-negative, got {n}")
    if not 0 <= as_integer(value, SymbolOutOfRange, "value") < s**n:
        raise SymbolOutOfRange(f"value {value} not in [0, {s}^{n})")
    out = [0] * n
    for j in range(n - 1, -1, -1):
        out[j] = value % s
        value //= s
    return tuple(out)
