"""Text formats for quasigroups, strings, leader strings, and reports, and
the portable-pixmap renderer for iterated transformations.

Conventions shared by the text formats: ASCII, newline-terminated, '#'
starts a comment line in files that accept comments. Serialization is
canonical (single spaces, no comments) so parse-serialize round trips are
idempotent.
"""
import functools
import json

import numpy as np

from .budget import charge, resolve_budget
from .classification import FRACTAL, NON_FRACTAL
from .core import Quasigroup
from .errors import FormatError, OrderNotSupported
from .transforms import Const, Index, blocks, e_iterates, periodic_row


def parse_quasigroup(text):
    """Parse the quasigroup text format: order line, then s rows of s
    entries. Comment lines start with '#'."""
    rows = []
    order = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if order is None:
            try:
                order = int(line)
            except ValueError:
                raise FormatError(f"expected order, got {line!r}", line=lineno)
            if order < 1:
                raise FormatError(f"order must be >= 1, got {order}", line=lineno)
            continue
        if len(rows) == order:
            raise FormatError("extra row after table", line=lineno)
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"non-integer entry in row {len(rows)}", line=lineno)
        if len(row) != order:
            raise FormatError(
                f"row {len(rows)} has {len(row)} entries, expected {order}",
                line=lineno)
        rows.append(row)
    if order is None:
        raise FormatError("empty input")
    if len(rows) != order:
        raise FormatError(f"expected {order} rows, got {len(rows)}")
    return Quasigroup(rows)


def serialize_quasigroup(q):
    lines = [str(q.order)]
    lines += [" ".join(str(v) for v in row) for row in q.table]
    return "\n".join(lines) + "\n"


def parse_string(text, order):
    """Parse a symbol string: whitespace-separated base-10 symbols, or for
    order <= 10 a single run of digits ("01230")."""
    toks = text.split()
    if not toks:
        raise FormatError("empty string")
    if len(toks) == 1 and len(toks[0]) > 1 and order <= 10:
        tok = toks[0]
        if not tok.isdigit():
            raise FormatError(f"bad compact string {tok!r}")
        values = tuple(int(c) for c in tok)
    else:
        try:
            values = tuple(int(t) for t in toks)
        except ValueError:
            raise FormatError(f"non-integer symbol in {text!r}")
    for v in values:
        if not 0 <= v < order:
            raise FormatError(f"symbol {v} out of range for order {order}")
    return values


def serialize_string(a, order):
    """Compact digit form when symbols are single digits, else spaced."""
    if order <= 10:
        return "".join(str(v) for v in a)
    return " ".join(str(v) for v in a)


def parse_leaders(text):
    """Parse a leader string like "3,3,i1,i0"; "" and "()" mean empty."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise FormatError(f"empty token in leader string {text!r}")
        if tok[0] in "iI":
            try:
                out.append(Index(int(tok[1:])))
            except ValueError:
                raise FormatError(f"bad index leader {tok!r}")
        else:
            try:
                out.append(Const(int(tok)))
            except ValueError:
                raise FormatError(f"bad leader token {tok!r}")
    return tuple(out)


def serialize_leaders(leaders):
    if not leaders:
        return "()"
    return ",".join(
        f"i{t.j}" if isinstance(t, Index) else str(t.value) for t in leaders)


def serialize_witness(witness):
    """A witness field: the leader string, or '-' when there is none."""
    return "-" if witness is None else serialize_leaders(witness)


def serialize_period(point):
    """A period field: the PeriodPoint's period, with '*' when capped."""
    return f"{point.period}{'*' if point.capped else ''}"


def palette(order):
    """Symbol colors: evenly spaced gray levels, 0 lightest. The order-4
    palette is the fixed reference one."""
    if order == 1:
        return ((255, 255, 255),)
    levels = [round(255 * (order - 1 - i) / (order - 1)) for i in range(order)]
    return tuple((v, v, v) for v in levels)


def render_iterations(q, leader, motif, width, iterations, text=False):
    """Portable pixmap of iterated transformations, one string per row.

    Row 0 is the periodic extension of motif to width; row k+1 is the
    transformation of row k with the constant leader. The
    width * (iterations + 1) cells are charged against the budget
    (QOWS_BUDGET or the default) before anything is allocated. Binary P6
    by default, returned as a bytearray: transforms.e_iterates sweeps the
    grid in b x b tiles (b = transforms.tile_side(order): 3 at order 4, 1
    from order 9 up) and expands the tile ids into pixels, each symbol's
    palette colour a 3-byte cell, straight into the buffer that already
    holds the header. Text P3 with text=True, as bytes, from the symbol
    grid. Output is byte-identical for identical inputs.
    """
    q._check(leader)
    if iterations < 0:
        raise FormatError(f"iterations must be non-negative, got {iterations}")
    charge(width * (iterations + 1), resolve_budget(),
           f"render width {width} times {iterations + 1} rows")
    row = periodic_row(q, motif, width)
    pal = palette(q.order)
    header = f"P{3 if text else 6}\n{width} {iterations + 1}\n255\n"
    if text:
        rgb = [" ".join(map(str, c)) for c in pal]
        grid = e_iterates(q, leader, row, iterations).tolist()
        lines = [" ".join(map(rgb.__getitem__, r)) for r in grid]
        return (header + "\n".join(lines) + "\n").encode("ascii")
    data = bytearray(len(header) + 3 * width * (iterations + 1))
    data[:len(header)] = header.encode("ascii")
    pixels = np.frombuffer(data, "V3", offset=len(header)).reshape(iterations + 1, width)
    e_iterates(q, leader, row, iterations, np.array(pal, np.uint8).view("V3")[:, 0], pixels)
    return data


def _pixmap_size(fields):
    """Width and height from the width, height and maxval fields of a
    pixmap header. The palette's levels are out of 255, the only maxval
    render_iterations writes, so any other is refused."""
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError:
        raise FormatError("malformed pixmap header: expected width, height and maxval")
    if width < 0 or height < 0:
        raise FormatError(f"negative pixmap size {width} x {height}")
    if maxval != 255:
        raise FormatError(f"pixmap maxval {maxval} is not 255")
    return width, height


def decode_image(data, order):
    """Inverse of render_iterations under the same palette: symbol rows.
    Above order 256 the palette repeats grey levels, so those orders are
    refused."""
    pal = {rgb: sym for sym, rgb in enumerate(palette(order))}
    if len(pal) < order:
        raise OrderNotSupported(f"the order-{order} palette repeats grey levels")
    if data.startswith(b"P6"):
        parts = data.split(b"\n", 3)
        if len(parts) < 4:
            raise FormatError("truncated pixmap")
        width, height = _pixmap_size(parts[1].split() + [parts[2]])
        vals = parts[3]
    elif data.startswith(b"P3"):
        toks = data.split()
        if len(toks) < 4:
            raise FormatError("truncated pixmap")
        width, height = _pixmap_size(toks[1:4])
        try:
            vals = [int(t) for t in toks[4:]]
        except ValueError:
            raise FormatError("malformed pixel value in text pixmap")
    else:
        raise FormatError("not a portable pixmap")
    if len(vals) != width * height * 3:
        raise FormatError("pixel payload size mismatch")
    it = iter(vals)
    pixels = list(zip(it, it, it))
    try:
        syms = [pal[p] for p in pixels]
    except KeyError as e:
        raise FormatError(f"pixel {e.args[0]} not in the order-{order} palette")
    return [tuple(syms[y * width:(y + 1) * width]) for y in range(height)]


def serialize_attack_trace(trace, order):
    """Line record: preimage count, guesses, lookups, elapsed ms, then one
    preimage per line."""
    lines = [
        f"preimages {len(trace.preimages)}",
        f"guesses {trace.guesses}",
        f"lookups {trace.lookups}",
        f"elapsed-ms {trace.elapsed * 1000:.3f}",
    ]
    lines += [serialize_string(p, order) for p in trace.preimages]
    return "\n".join(lines) + "\n"


@functools.cache
def _quads():
    """The numbers below 10^4 spelled in 4 ASCII bytes, right-aligned with
    NUL bytes for the leading zeros (0 is all NUL), as uint32 items; and the
    items "0000", which restores the zeros of a group after the first, and
    three NUL bytes then "0", which spells a lone 0. Built on first use."""
    n = np.arange(10**4)[:, None]
    places = 10 ** np.arange(3, -1, -1)
    cells = (n // places % 10 + ord("0")).astype(np.uint8)
    cells[n < places] = 0
    cells.flags.writeable = False     # one table serves every call
    return cells.view(np.uint32).ravel(), *np.frombuffer(b"0000" b"\0\0\0" b"0", np.uint32)


def _spell(x, cells):
    """Write the decimal digits of the non-negative integers x into the
    uint32 columns of cells, 4 digits a column, most significant first,
    with NUL bytes for the leading zeros."""
    quads, zeros, unit = _quads()
    for k in range(cells.shape[1] - 1, 0, -1):
        high = x // 10**4
        cell = quads.take(x - high * 10**4)
        # a group below a nonzero one keeps its zeros
        cell |= np.multiply(high > 0, zeros, dtype=np.uint32)
        cells[:, k] = cell
        x = high
    cells[:, 0] = quads.take(x)
    cells[:, -1] |= unit    # 0 is spelled "0"


def histogram_blocks(hist):
    """The histogram record as a generator of str pieces: the derived
    flags, then the counts in packed-value order. Domains above 4096 list
    only the nonzero entries.

    The "<value> <count>" lines are spelled a block of entries at a time
    (transforms.blocks), as a matrix of ASCII bytes with a row per line:
    each number takes a whole number of 4-byte cells spelled by one take
    from a table of the numbers below 10^4, its leading zeros NUL bytes,
    which one bytes.translate per block drops. Each block's lines are one
    piece, made when the previous one has been taken, so a consumer that
    writes each piece as it comes holds one block, never the record.
    """
    permutation, regular, top = hist.flags()
    full = hist.domain_size <= 4096
    lines = [
        f"domain {hist.domain_size}",
        f"permutation {'true' if permutation else 'false'}",
        f"regular {'true' if regular else 'false'}",
        f"entries {'all' if full else 'nonzero'}",
    ]
    yield "\n".join(lines) + "\n"
    counts = hist.counts
    # a line is the cells of the value, a space, those of the count, "\n"
    vcells, ccells = (-(-len(str(m)) // 4) for m in (len(counts) - 1, top))
    width = 4 * (vcells + ccells) + 2
    for lo, hi in blocks(len(counts), width):
        # every entry of a full domain, else the nonzero ones
        values = lo + np.flatnonzero((counts[lo:hi] != 0) | full)
        rows = np.empty((len(values), width), np.uint8)
        rows[:, 4 * vcells] = ord(" ")
        rows[:, -1] = ord("\n")
        _spell(values, rows[:, :4 * vcells].view(np.uint32))
        _spell(counts.take(values), rows[:, 4 * vcells + 1:-1].view(np.uint32))
        yield rows.tobytes().translate(None, b"\0").decode("ascii")


def serialize_histogram(hist):
    """The histogram record as one str: the pieces of histogram_blocks
    joined."""
    return "".join(histogram_blocks(hist))


def _census_rows(report):
    """(index, label, witness or None, PeriodPoint) of each square, by index."""
    fset = set(report.fractal)
    for idx in range(1, len(report.fractal) + len(report.non_fractal) + 1):
        label = FRACTAL if idx in fset else NON_FRACTAL
        yield idx, label, report.witnesses.get(idx), report.periods[idx]


def serialize_census_report(report):
    """Parameter header, then one line per quasigroup: 1-based index, label,
    witness leader string or '-', period at the final iterate ('*' marks a
    period above half the width, reported as the width)."""
    st = report.parameters
    lines = [
        "# census order 4",
        f"# N {st.n}",
        f"# max-leader-len {st.max_len}",
        f"# include-indices {'true' if st.include_indices else 'false'}",
        f"# alpha {st.alpha}",
        f"# iterations {st.iterations}",
        f"# width {st.width}",
        f"# motif {serialize_string(st.motif, 10)}",
        f"# threshold {st.threshold}",
        f"# fractal {len(report.fractal)}",
        f"# non-fractal {len(report.non_fractal)}",
        f"# published-diff missing {len(report.published_missing)}"
        f" extra {len(report.published_extra)}",
        f"# classifier-disagreements {len(report.disagreements)}",
    ]
    for miss in report.published_missing:
        lines.append(f"# published-only {miss}")
    for extra in report.published_extra:
        lines.append(f"# computed-only {extra}")
    for idx in report.disagreements:
        lines.append(f"# disagreement {idx}")
    for idx, label, witness, point in _census_rows(report):
        lines.append(f"{idx} {label} {serialize_witness(witness)} {serialize_period(point)}")
    return "\n".join(lines) + "\n"


def serialize_census_json(report):
    """Machine-readable census export mirroring the text report fields."""
    st = report.parameters
    doc = {
        "order": 4,
        "parameters": {
            "n": st.n, "maxLeaderLen": st.max_len,
            "includeIndices": st.include_indices, "alpha": st.alpha,
            "iterations": st.iterations, "width": st.width,
            "motif": list(st.motif), "threshold": st.threshold,
        },
        "fractal": list(report.fractal),
        "nonFractal": list(report.non_fractal),
        "publishedDiff": {
            "missing": list(report.published_missing),
            "extra": list(report.published_extra),
        },
        "disagreements": list(report.disagreements),
        "entries": [
            {
                "index": idx,
                "label": label,
                "witness": None if witness is None else serialize_leaders(witness),
                "period": point.period,
                "capped": point.capped,
            }
            for idx, label, witness, point in _census_rows(report)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
