"""Every budget refusal, pinned to its exact message, and the import layering
that keeps the budget at the bottom of the package."""
import ast
import pathlib

import pytest

import qows
from qows import (BudgetExceeded, OwfSpec, attack_r1, attack_r2, brute_preimages,
                  period_profile, permutation_search, preimage_histogram, random_latin,
                  render_iterations)
from qows.cli import main

SRC = pathlib.Path(qows.__file__).resolve().parent

# (QOWS_BUDGET, the refused call on the reference square, its exact message)
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
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_message_is_pinned(case, ref_square, monkeypatch):
    budget, call, message = REFUSALS[case]
    monkeypatch.setenv("QOWS_BUDGET", str(budget))
    with pytest.raises(BudgetExceeded) as refused:
        call(ref_square)
    assert str(refused.value) == message


def test_cli_refusal_is_one_error_line(capsys):
    code = main(["invert", "--index", "5", "--method", "attack-r2",
                 "--output", "00000", "--budget", "1000"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: branch count 1024 exceeds budget 1000\n")


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
