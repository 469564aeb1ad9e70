"""Text formats for quasigroups, strings, leader strings, and reports, and
the portable-pixmap renderer for iterated transformations.

Conventions shared by the text formats: ASCII, newline-terminated, '#'
starts a comment line in files that accept comments. Serialization is
canonical (single spaces, no comments) so parse-serialize round trips are
idempotent.
"""
import json

import numpy as np

from .budget import charge, resolve_budget
from .classification import FRACTAL, NON_FRACTAL
from .core import Quasigroup
from .errors import FormatError
from .transforms import Const, Index, e_iterates, periodic_row

QG_EXT = ".qg"
STRING_EXT = ".qs"
IMAGE_EXT = ".ppm"
CENSUS_EXT = ".census.txt"


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
    transformation of row k with the constant leader. The rows come from
    transforms.e_iterates, which sweeps the grid in b x b tiles (b =
    transforms.tile_side(order): 3 at order 4, 1 from order 9 up), one
    vectorized step per anti-diagonal of tiles, and the
    width * (iterations + 1) cells are charged against the budget
    (QOWS_BUDGET or the default) before anything is allocated. Binary P6
    by default, one palette lookup for the whole body, written behind the
    header in the one buffer that becomes the bytes; text P3 with
    text=True. Output is byte-identical for identical inputs.
    """
    q._check(leader)
    if iterations < 0:
        raise FormatError(f"iterations must be non-negative, got {iterations}")
    charge(width * (iterations + 1), resolve_budget(),
           f"render width {width} times {iterations + 1} rows")
    grid = e_iterates(q, leader, periodic_row(q, motif, width), iterations)
    pal = palette(q.order)
    header = f"P{3 if text else 6}\n{width} {iterations + 1}\n255\n"
    if text:
        rgb = [" ".join(map(str, c)) for c in pal]
        lines = [" ".join(map(rgb.__getitem__, r)) for r in grid.tolist()]
        return (header + "\n".join(lines) + "\n").encode("ascii")
    head = header.encode("ascii")
    out = np.empty(len(head) + grid.size * 3, np.uint8)
    out[:len(head)] = np.frombuffer(head, np.uint8)
    # the grid's symbols index the palette; mode "raise" would buffer out
    np.array(pal, dtype=np.uint8).take(
        grid, axis=0, out=out[len(head):].reshape(grid.shape + (3,)), mode="clip")
    return out.tobytes()


def _pixmap_size(fields):
    """Width and height from the two header fields of a pixmap."""
    try:
        width, height = (int(t) for t in fields)
    except ValueError:
        raise FormatError("malformed pixmap header: expected width and height")
    if width < 0 or height < 0:
        raise FormatError(f"negative pixmap size {width} x {height}")
    return width, height


def decode_image(data, order):
    """Inverse of render_iterations under the same palette: symbol rows."""
    pal = {rgb: sym for sym, rgb in enumerate(palette(order))}
    if data.startswith(b"P6"):
        parts = data.split(b"\n", 3)
        if len(parts) < 4:
            raise FormatError("truncated pixmap")
        width, height = _pixmap_size(parts[1].split())
        vals = parts[3]
    elif data.startswith(b"P3"):
        toks = data.split()
        if len(toks) < 4:
            raise FormatError("truncated pixmap")
        width, height = _pixmap_size(toks[1:3])
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


def _decimal_rows(a):
    """The decimal digits of the non-negative integers a, most significant
    first, as the ASCII rows of a (width, len(a)) uint8 array, width the
    digit count of a.max(); and the mask of the digits shown, False on the
    leading zeros."""
    top = a.max()
    rest = a.astype(np.min_scalar_type(top))
    digits = np.empty((len(str(top)), len(a)), np.uint8)
    shown = np.empty(digits.shape, bool)
    for row, show in zip(digits[::-1], shown[::-1]):
        np.not_equal(rest, 0, out=show)
        quot = rest // 10
        np.subtract(rest, quot * 10, out=row, casting="unsafe")
        rest = quot
    shown[-1] = True
    digits += ord("0")
    return digits, shown


def serialize_histogram(hist):
    """Counts in packed-value order, preceded by the derived flags. Domains
    above 4096 list only the nonzero entries.

    The "<value> <count>" lines are written as one matrix of ASCII cells,
    a row per entry, both numbers zero-padded to a fixed width; one
    boolean mask drops the leading zeros, and the rest decodes at once.
    """
    full = hist.domain_size <= 4096
    values, permutation, regular = hist.support()
    lines = [
        f"domain {hist.domain_size}",
        f"permutation {'true' if permutation else 'false'}",
        f"regular {'true' if regular else 'false'}",
        f"entries {'all' if full else 'nonzero'}",
    ]
    head = "\n".join(lines) + "\n"
    counts = hist.counts
    if full:
        values = np.arange(len(counts))
    if not len(values):
        return head
    value_digits, value_shown = _decimal_rows(values)
    count_digits, count_shown = _decimal_rows(counts[values])
    split = len(value_digits)
    text = np.empty((split + len(count_digits) + 2, len(values)), np.uint8)
    shown = np.ones(text.shape, bool)
    text[:split], shown[:split] = value_digits, value_shown
    text[split] = ord(" ")
    text[split + 1:-1], shown[split + 1:-1] = count_digits, count_shown
    text[-1] = ord("\n")
    return head + text.T[shown.T].tobytes().decode("ascii")


def _period_field(point):
    return f"{point.period}{'*' if point.capped else ''}"


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
    total = len(report.fractal) + len(report.non_fractal)
    fset = set(report.fractal)
    for idx in range(1, total + 1):
        label = FRACTAL if idx in fset else NON_FRACTAL
        w = report.witnesses.get(idx)
        witness = "-" if w is None else serialize_leaders(w)
        lines.append(f"{idx} {label} {witness} {_period_field(report.periods[idx])}")
    return "\n".join(lines) + "\n"


def serialize_census_json(report):
    """Machine-readable census export mirroring the text report fields."""
    st = report.parameters
    fset = set(report.fractal)
    total = len(report.fractal) + len(report.non_fractal)
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
                "label": FRACTAL if idx in fset else NON_FRACTAL,
                "witness": None if report.witnesses.get(idx) is None
                else serialize_leaders(report.witnesses[idx]),
                "period": report.periods[idx].period,
                "capped": report.periods[idx].capped,
            }
            for idx in range(1, total + 1)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
