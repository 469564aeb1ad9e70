"""Command-line front end.

Exit codes: 0 success, 1 domain error (invalid table, out-of-range symbol,
budget exhaustion, malformed file), 2 usage error. Report-producing
subcommands echo their effective configuration as '#' header lines; plain
value-producing ones print the bare result.
"""
import argparse
import contextlib
import functools
import itertools
import sys
import warnings

from . import budget, classification, core, inversion, io_formats, transforms
from .errors import FormatError, LengthMismatch, QowsError


def _read(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}")


def _budget(text):
    """The --budget value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load_quasigroup(args):
    if args.index is not None:
        return core.from_index(args.index)
    return io_formats.parse_quasigroup(_read(args.quasigroup))


def _emit(args, pieces):
    """Write the pieces in order to --out, else to stdout's bytes, each as
    it comes, so the pieces of a generator are never held together. Bytes
    go out as they are; str goes out as ASCII, the formats' alphabet, with
    any other character (an echoed path's) backslash-escaped."""
    sys.stdout.flush()      # whatever the text layer holds goes first
    with (open(args.out, "wb") if args.out
          else contextlib.nullcontext(sys.stdout.buffer)) as fh:
        for piece in pieces:
            fh.write(piece.encode("ascii", "backslashreplace")
                     if isinstance(piece, str) else piece)
        fh.flush()          # a closed stdout fails here, as an error line


def _config_lines(title, pairs):
    lines = [f"# qows {title}"]
    lines += [f"# {k} {v}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _parse_output(args, q, parser, leaders):
    """The output string of invert; an --output-value is refused from N,
    under leaders preprocessing leaders, before its N symbols are built."""
    if args.output_value is not None:
        if args.n is None:
            parser.error("--output-value requires --N")
        if args.n < 1:
            raise LengthMismatch("N must be at least 1")
        budget.charge(args.n, budget.resolve_budget(args.budget),
                      f"output of {args.n} symbols")
        inversion.charge_search(args.method, q.order, args.n, leaders,
                                args.budget, args.first_hit)
        return transforms.unpack_string(args.output_value, q.order, args.n)
    b = io_formats.parse_string(args.output, q.order)
    if args.n is not None and args.n != len(b):
        parser.error(f"--N {args.n} does not match output length {len(b)}")
    return b


def _constant_leaders(text, parser, what):
    tokens = io_formats.parse_leaders(text)
    if not all(isinstance(tok, transforms.Const) for tok in tokens):
        parser.error(f"{what} takes constant leaders only")
    return tuple(tok.value for tok in tokens)


def _cmd_transform(args, parser):
    fn = "rN" if args.fn == "rn" else args.fn
    if args.leader is not None and fn != "e":
        parser.error("--leader applies to --fn e only")
    if args.leaders is not None and fn not in ("E", "rN"):
        parser.error("--leaders applies to --fn E and rN only")
    if fn == "e" and args.leader is None:
        parser.error("--fn e requires --leader")
    q = _load_quasigroup(args)
    a = io_formats.parse_string(args.input, q.order)
    if fn == "e":
        out = transforms.e_transform(q, args.leader, a)
    elif fn == "E":
        consts = _constant_leaders(args.leaders or "", parser, "--fn E")
        out = transforms.apply_leader_sequence(q, consts, a)
    elif fn == "r1":
        out = transforms.r1(q, a)
    elif fn == "r2":
        out = transforms.r2(q, a)
    else:
        leaders = io_formats.parse_leaders(args.leaders or "")
        out = transforms.r_n(transforms.OwfSpec(q, len(a), leaders), a)
    _emit(args, [io_formats.serialize_string(out, q.order) + "\n"])
    return 0


def _cmd_invert(args, parser):
    q = _load_quasigroup(args)
    if args.method != "brute" and args.leaders is not None:
        parser.error("--leaders applies to --method brute only")
    leaders = io_formats.parse_leaders(args.leaders or "")
    b = _parse_output(args, q, parser, len(leaders))
    header = [("quasigroup", args.quasigroup or f"#{args.index}"),
              ("method", args.method), ("n", len(b)),
              ("output", io_formats.serialize_string(b, q.order)),
              ("budget", budget.resolve_budget(args.budget))]
    if args.method == "brute":
        spec = transforms.OwfSpec(q, len(b), leaders)
        trace = inversion.brute_preimages(spec, b, budget=args.budget,
                                          first_hit=args.first_hit)
        header.insert(2, ("leaders", io_formats.serialize_leaders(leaders)))
    else:
        attack = inversion.attack_r1 if args.method == "attack-r1" else inversion.attack_r2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", inversion.AlgebraicStructureWarning)
            trace = attack(q, b, budget=args.budget, first_hit=args.first_hit)
    for note in trace.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _emit(args, [_config_lines("invert", header),
                 io_formats.serialize_attack_trace(trace, q.order)])
    return 0


def _cmd_histogram(args, parser):
    q = _load_quasigroup(args)
    leaders = io_formats.parse_leaders(args.leaders or "")
    spec = transforms.OwfSpec(q, args.n, leaders)
    hist = inversion.preimage_histogram(spec, budget=args.budget)
    header = _config_lines("histogram", [
        ("quasigroup", args.quasigroup or f"#{args.index}"),
        ("n", args.n),
        ("leaders", io_formats.serialize_leaders(leaders)),
        ("budget", budget.resolve_budget(args.budget))])
    # the record is megabytes: write it a block at a time, never whole
    _emit(args, itertools.chain([header], io_formats.histogram_blocks(hist)))
    return 0


def _cmd_search(args, parser):
    q = _load_quasigroup(args)
    witness = classification.permutation_search(
        q, args.n, args.max_leader_len, include_indices=args.include_indices,
        budget=args.budget)
    _emit(args, [io_formats.serialize_witness(witness) + "\n"])
    return 0


def _cmd_census(args, parser):
    report = classification.census_order4(settings=classification.ClassifySettings(
        n=args.n, max_len=args.max_leader_len, include_indices=args.include_indices))
    _emit(args, [io_formats.serialize_census_json(report)] if args.json else
          [_config_lines("census", []), io_formats.serialize_census_report(report)])
    return 0


def _cmd_classify(args, parser):
    q = _load_quasigroup(args)
    motif = io_formats.parse_string(args.motif, q.order)
    leaders = (None if args.leaders is None else
               _constant_leaders(args.leaders, parser, "--leaders"))
    settings = classification.ClassifySettings(
        alpha=args.alpha, iterations=args.iterations, width=args.width,
        motif=motif, leaders=leaders, n=args.n,
        max_len=args.max_leader_len, include_indices=args.include_indices)
    label = classification.classify(q, settings)
    lines = _config_lines("classify", [
        ("quasigroup", args.quasigroup or f"#{args.index}"),
        ("alpha", settings.alpha), ("iterations", settings.iterations),
        ("width", settings.width),
        ("motif", io_formats.serialize_string(motif, q.order)),
        ("leaders", ",".join(str(l) for l in settings.leaders_for(q))),
        ("threshold", settings.threshold),
        ("n", settings.n), ("max-leader-len", settings.max_len)])
    lines += f"label {label.label}\n"
    lines += f"witness {io_formats.serialize_witness(label.permutation_witness)}\n"
    lines += f"period-at-k {label.period_at_k}\n"
    for point in label.period_profile:
        lines += f"period {point.k} {io_formats.serialize_period(point)}\n"
    _emit(args, [lines])
    return 0


def _cmd_render(args, parser):
    q = _load_quasigroup(args)
    motif = io_formats.parse_string(args.motif, q.order)
    data = io_formats.render_iterations(q, args.leader, motif, args.width,
                                        args.iterations, text=args.text)
    _emit(args, [data])
    return 0


def _cmd_gen(args, parser):
    q = core.random_latin(args.order, args.seed)
    _emit(args, [io_formats.serialize_quasigroup(q)])
    return 0


def _add_common(sp, quasigroup=True):
    """--out, and with quasigroup the two ways to name a square,
    --quasigroup and --index, of which exactly one must be given."""
    if quasigroup:
        named = sp.add_mutually_exclusive_group(required=True)
        named.add_argument("--quasigroup", metavar="FILE",
                           help="quasigroup table file")
        named.add_argument("--index", type=int, metavar="K",
                           help="1-based lexicographic index of an order-4 square")
    sp.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


@functools.lru_cache(maxsize=1)
def build_parser():
    # parsing reads the parser and never changes it, so one serves every call
    p = argparse.ArgumentParser(
        prog="qows",
        description="Quasigroup string transformations, candidate one-way "
                    "functions, lookup-table inversion attacks, and the "
                    "order-4 census.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help, quasigroup=True):
        # the handler gets its own subparser, so that a usage error it
        # raises prints that command's usage and names it
        sp = sub.add_parser(name, help=help)
        _add_common(sp, quasigroup)
        sp.set_defaults(run=run, parser=sp)
        return sp

    sp = command("transform", _cmd_transform, "apply a transformation to a string")
    sp.add_argument("--fn", required=True,
                    choices=["e", "E", "r1", "r2", "rN", "rn"])
    sp.add_argument("--input", required=True, help="input string")
    sp.add_argument("--leader", type=int, help="constant leader for --fn e")
    sp.add_argument("--leaders", help="leader string for --fn E or rN, e.g. 3,3,i1,i0")

    sp = command("invert", _cmd_invert, "find preimages of an output string")
    sp.add_argument("--method", required=True,
                    choices=["brute", "attack-r1", "attack-r2"])
    given = sp.add_mutually_exclusive_group(required=True)
    given.add_argument("--output", help="output string B")
    given.add_argument("--output-value", type=int,
                       help="output as a packed base-s value (requires --N)")
    sp.add_argument("--N", dest="n", type=int, help="string length")
    sp.add_argument("--leaders", help="leader string for --method brute")
    sp.add_argument("--budget", type=_budget, help="evaluation/branch cap")
    sp.add_argument("--first-hit", action="store_true",
                    help="stop at the first preimage (benchmarking)")

    sp = command("histogram", _cmd_histogram, "preimage histogram of a family member")
    sp.add_argument("--N", dest="n", type=int, required=True)
    sp.add_argument("--leaders", help="leader string")
    sp.add_argument("--budget", type=_budget)

    sp = command("search", _cmd_search, "bounded search for a permutation witness")
    sp.add_argument("--N", dest="n", type=int, required=True)
    sp.add_argument("--max-leader-len", type=int, default=4)
    sp.add_argument("--include-indices", action="store_true",
                    help="allow index leaders in the search alphabet")
    sp.add_argument("--budget", type=_budget)

    sp = command("census", _cmd_census, "classify all 576 order-4 quasigroups", quasigroup=False)
    sp.add_argument("--N", dest="n", type=int, default=2)
    sp.add_argument("--max-leader-len", type=int, default=4)
    sp.add_argument("--include-indices", action="store_true")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable export")

    sp = command("classify", _cmd_classify, "period-growth classification")
    sp.add_argument("--alpha", type=int, default=4)
    sp.add_argument("--iterations", type=int, default=32)
    sp.add_argument("--width", type=int, default=4096)
    sp.add_argument("--motif", default="0123")
    sp.add_argument("--leaders", help="comma-separated constant leaders (default: all)")
    sp.add_argument("--N", dest="n", type=int, default=2)
    sp.add_argument("--max-leader-len", type=int, default=4)
    sp.add_argument("--include-indices", action="store_true")

    sp = command("render", _cmd_render, "render iterated transformations as a pixmap")
    sp.add_argument("--leader", type=int, default=0)
    sp.add_argument("--motif", default="0123")
    sp.add_argument("--width", type=int, default=600)
    sp.add_argument("--iterations", type=int, default=599)
    sp.add_argument("--text", action="store_true", help="text pixmap (P3)")

    sp = command("gen", _cmd_gen, "generate a random quasigroup table", quasigroup=False)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, args.parser)
    except (QowsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
