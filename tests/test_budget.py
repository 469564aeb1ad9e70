"""Every budget refusal, and the domain refusals no other test reaches,
pinned to their exact type and message; and the import layering that keeps
the budget at the bottom of the package."""
import ast
import pathlib

import pytest

import qows
from qows import (BudgetExceeded, ClassifySettings, FormatError, LengthMismatch,
                  OrderNotSupported, OwfSpec, QowsError, Quasigroup, SymbolOutOfRange, attack_r1,
                  attack_r2, brute_preimages, decode_image, from_index, pack_string,
                  parse_quasigroup, parse_string, period_profile, permutation_search,
                  preimage_histogram, r2, random_latin, render_iterations, unpack_string)
from qows.budget import DEFAULT_BUDGET
from qows.cli import main

SRC = pathlib.Path(qows.__file__).resolve().parent

# At order 1 the domain is one tuple, so the e-steps of its one evaluation
# are what the scans charge last.
ORDER_1 = Quasigroup([[0]])

# (QOWS_BUDGET, the refused call on the reference square, its exact message,
# or the error it raises where that is not BudgetExceeded)
REFUSALS = {
    "domain-size-power": (
        3, lambda q: brute_preimages(OwfSpec(q, 5, ()), (0,) * 5),
        "domain size 4^5 exceeds budget 3"),
    "domain-size-value": (
        1000, lambda q: preimage_histogram(OwfSpec(q, 5, ())),
        "domain size 1024 exceeds budget 1000"),
    "branch-count": (
        1000, lambda q: attack_r2(q, (0,) * 5),
        "branch count 1024 exceeds budget 1000"),
    "guess-count-up-front": (
        3, lambda q: attack_r1(q, (0,) * 3),
        "guess count exceeds budget 3"),
    "guess-count-running": (
        0, lambda q: attack_r1(q, (0,) * 3, first_hit=True),
        "guess count exceeds budget 0"),
    "witness-search": (
        100, lambda q: permutation_search(q, 5, 1),
        "4^5 inputs times the leader strings up to length 1 exceeds budget 100"),
    "witness-search-power": (
        1000, lambda q: permutation_search(q, 40, 2, include_indices=True),
        "4^40 inputs times the leader strings up to length 2 exceeds budget 1000"),
    "period-profile": (
        1000, lambda q: period_profile(q, 0, (0, 1, 2, 3), 4096, 32),
        "width 4096 times 32 iterations exceeds budget 1000"),
    "render": (
        1000, lambda q: render_iterations(q, 0, (0, 1, 2, 3), 600, 599),
        "render width 600 times 600 rows exceeds budget 1000"),
    "random-latin-up-front": (
        63, lambda q: random_latin(8, 1),
        "order-8 square: placed symbols exceed budget 63"),
    "random-latin-running": (
        3000, lambda q: random_latin(40, 0),
        "order-40 square: placed symbols exceed budget 3000"),
    "composition": (
        1000, lambda q: r2(q, (0,) * 30),
        "60 leaders times 30 symbols exceeds budget 1000"),
    "brute-order-1": (
        100, lambda q: brute_preimages(OwfSpec(ORDER_1, 10, ()), (0,) * 10),
        "20 leaders times 10 symbols exceeds budget 100"),
    "attack-r2-order-1": (
        100, lambda q: attack_r2(ORDER_1, (0,) * 10),
        "20 leaders times 10 symbols exceeds budget 100"),
    "histogram-order-1": (
        100, lambda q: preimage_histogram(OwfSpec(ORDER_1, 10, ())),
        "20 leaders times 10 symbols exceeds budget 100"),
    "witness-search-order-1": (
        100, lambda q: permutation_search(ORDER_1, 10, 1),
        "21 leaders times 10 symbols exceeds budget 100"),
    "random-latin-order-0": (
        DEFAULT_BUDGET, lambda q: random_latin(0, 1),
        OrderNotSupported("order must be at least 1")),
    "brute-output-length": (
        DEFAULT_BUDGET, lambda q: brute_preimages(OwfSpec(q, 3, ()), (0, 1)),
        LengthMismatch("output length 2 != N = 3")),
    "spec-n-0": (
        DEFAULT_BUDGET, lambda q: OwfSpec(q, 0, ()),
        LengthMismatch("N must be at least 1")),
    "pack-symbol": (
        DEFAULT_BUDGET, lambda q: pack_string((1, 4), 4),
        SymbolOutOfRange("symbol 4 not in [0, 4)")),
    "unpack-value": (
        DEFAULT_BUDGET, lambda q: unpack_string(16, 4, 2),
        SymbolOutOfRange("value 16 not in [0, 4^2)")),
    "parse-order-not-integer": (
        DEFAULT_BUDGET, lambda q: parse_quasigroup("# order\nfour\n"),
        FormatError("expected order, got 'four'", line=2)),
    "parse-order-0": (
        DEFAULT_BUDGET, lambda q: parse_quasigroup("0\n"),
        FormatError("order must be >= 1, got 0", line=1)),
    "parse-compact-string": (
        DEFAULT_BUDGET, lambda q: parse_string("01x3", 4),
        FormatError("bad compact string '01x3'")),
    "parse-spaced-string": (
        DEFAULT_BUDGET, lambda q: parse_string("0 1.5", 4),
        FormatError("non-integer symbol in '0 1.5'")),
    "decode-negative-size": (
        DEFAULT_BUDGET, lambda q: decode_image(b"P6\n-1 1\n255\n", 4),
        FormatError("negative pixmap size -1 x 1")),
    "decode-truncated-p6": (
        DEFAULT_BUDGET, lambda q: decode_image(b"P6\n1 1\n", 4),
        FormatError("truncated pixmap")),
    "decode-not-a-pixmap": (
        DEFAULT_BUDGET, lambda q: decode_image(b"GIF89a", 4),
        FormatError("not a portable pixmap")),
    # a count that is no integer is refused before any work, where it
    # ended in a TypeError or, as a base, gave a float
    "random-latin-order-not-integer": (
        DEFAULT_BUDGET, lambda q: random_latin(2.5, 0),
        OrderNotSupported("order must be an integer, got 2.5")),
    "from-index-not-integer": (
        DEFAULT_BUDGET, lambda q: from_index(1.5),
        OrderNotSupported("index must be an integer, got 1.5")),
    "witness-search-n-not-integer": (
        DEFAULT_BUDGET, lambda q: permutation_search(q, 2.5, 1),
        LengthMismatch("N must be an integer, got 2.5")),
    "unpack-base-not-integer": (
        DEFAULT_BUDGET, lambda q: unpack_string(3, 4.0, 2),
        OrderNotSupported("base must be an integer, got 4.0")),
    "pack-base-not-integer": (
        DEFAULT_BUDGET, lambda q: pack_string((1, 2), 4.5),
        OrderNotSupported("base must be an integer, got 4.5")),
    "settings-iterations-not-integer": (
        DEFAULT_BUDGET, lambda q: ClassifySettings(iterations=2.5),
        FormatError("iterations must be an integer, got 2.5")),
    "settings-width-not-integer": (
        DEFAULT_BUDGET, lambda q: ClassifySettings(width=8.0),
        FormatError("width must be an integer, got 8.0")),
    # alpha, n and max_len are refused with the settings too, where an
    # alpha of 2.5 gave a threshold of 320.0 and an n or max_len that is
    # no integer was refused only after every leader had been profiled
    "settings-alpha-not-integer": (
        DEFAULT_BUDGET, lambda q: ClassifySettings(alpha=2.5),
        FormatError("alpha must be an integer, got 2.5")),
    "settings-n-not-integer": (
        DEFAULT_BUDGET, lambda q: ClassifySettings(n=2.5),
        FormatError("n must be an integer, got 2.5")),
    "settings-max-len-not-integer": (
        DEFAULT_BUDGET, lambda q: ClassifySettings(max_len=1.5),
        FormatError("max_len must be an integer, got 1.5")),
    "period-profile-iterations-not-integer": (
        DEFAULT_BUDGET, lambda q: period_profile(q, 0, (0, 1, 2, 3), 4096, 2.5),
        FormatError("iterations must be an integer, got 2.5")),
    "period-profile-width-not-integer": (
        DEFAULT_BUDGET, lambda q: period_profile(q, 0, (0, 1, 2, 3), 8.0, 2),
        FormatError("width must be an integer, got 8.0")),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_message_is_pinned(case, ref_square, monkeypatch):
    budget, call, expected = REFUSALS[case]
    if isinstance(expected, str):
        expected = BudgetExceeded(expected)
    monkeypatch.setenv("QOWS_BUDGET", str(budget))
    with pytest.raises(QowsError) as refused:
        call(ref_square)
    assert (type(refused.value), str(refused.value)) == (type(expected), str(expected))


def test_cli_refusal_is_one_error_line(capsys):
    code = main(["invert", "--index", "5", "--method", "attack-r2",
                 "--output", "00000", "--budget", "1000"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: branch count 1024 exceeds budget 1000\n")


def test_output_value_refusal_is_one_error_line(capsys):
    # the N output symbols are charged before the string is built
    code = main(["invert", "--index", "5", "--method", "attack-r2",
                 "--output-value", "3", "--N", "1001", "--budget", "1000"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: output of 1001 symbols exceeds budget 1000\n")


# each module imports only from modules of a lower rank
LAYERS = {"errors": 0, "budget": 1, "transforms": 2, "core": 2, "inversion": 3,
          "classification": 4, "io_formats": 5, "cli": 6, "__init__": 7}


def _package_imports(tree):
    """(node, module imported) for each import from the package in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            yield from ((node, name.split(".")[0]) for name in names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qows":
            yield node, node.module.partition(".")[2] or "__init__"
        elif isinstance(node, ast.Import):
            yield from ((node, a.name.partition(".")[2] or "__init__")
                        for a in node.names if a.name.split(".")[0] == "qows")


def test_imports_point_down_the_layers():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS)
    for path in SRC.glob("*.py"):
        for node, target in _package_imports(ast.parse(path.read_text())):
            assert LAYERS[target] < LAYERS[path.stem], \
                f"{path.name}:{node.lineno} imports {target}, not a lower layer"


def test_no_function_imports_from_the_package():
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node, target in _package_imports(tree):
            assert node in tree.body, f"{path.name}:{node.lineno} imports {target} in a body"
