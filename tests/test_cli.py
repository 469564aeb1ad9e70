import hashlib
import importlib.util
import io
import json
import pathlib
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

import qows
from qows import ClassifySettings, budget, classification, inversion, transforms
from qows import (OwfSpec, from_index, parse_leaders, parse_quasigroup, preimage_histogram,
                  random_latin, render_iterations, serialize_histogram, serialize_quasigroup)
from qows.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTransform:
    def test_r2_example(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "transform", "--quasigroup", ref_square_file,
                               "--fn", "r2", "--input", "01230")
        assert code == 0
        assert out == "03202\n"

    def test_r1(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "transform", "--quasigroup", ref_square_file,
                               "--fn", "r1", "--input", "01230")
        assert (code, out) == (0, "00103\n")

    def test_single_e(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "transform", "--quasigroup", ref_square_file,
                               "--fn", "e", "--leader", "0", "--input", "01230")
        assert (code, out) == (0, "22313\n")

    def test_leader_sequence(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "transform", "--quasigroup", ref_square_file,
                               "--fn", "E", "--leaders", "0,3,2,1,0",
                               "--input", "01230")
        assert (code, out) == (0, "00103\n")

    def test_family_member(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "transform", "--quasigroup", ref_square_file,
                               "--fn", "rN", "--leaders", "3,3,i1,i0",
                               "--input", "01")
        assert (code, out) == (0, "30\n")

    def test_index_instead_of_file(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--index", "355",
                               "--fn", "r2", "--input", "01230")
        assert (code, out) == (0, "03202\n")

    def test_missing_leader_is_usage_error(self, capsys, ref_square_file):
        with pytest.raises(SystemExit) as ei:
            run_cli(capsys, "transform", "--quasigroup", ref_square_file,
                    "--fn", "e", "--input", "01230")
        assert ei.value.code == 2

    @pytest.mark.parametrize("fn, option, message", [
        ("r1", ["--leader", "2"], "--leader applies to --fn e only"),
        ("E", ["--leader", "2", "--leaders", "1,2"], "--leader applies to --fn e only"),
        ("rN", ["--leader", "2"], "--leader applies to --fn e only"),
        ("e", ["--leader", "2", "--leaders", "1,2"], "--leaders applies to --fn E and rN only"),
        ("r1", ["--leaders", "1,2"], "--leaders applies to --fn E and rN only"),
        ("r2", ["--leaders", "1,2"], "--leaders applies to --fn E and rN only"),
    ])
    def test_stray_leader_option_is_usage_error(self, capsys, fn, option, message):
        # an option the function does not read would otherwise be ignored
        with pytest.raises(SystemExit) as ei:
            run_cli(capsys, "transform", "--index", "355", "--fn", fn,
                    "--input", "0123", *option)
        assert ei.value.code == 2
        # the usage and the error name the command, as argparse's own do
        err = capsys.readouterr().err
        assert err.startswith("usage: qows transform [-h]"), err
        assert f"\nqows transform: error: {message}\n" in err

    def test_bad_symbol_is_domain_error(self, capsys, ref_square_file):
        code, _, err = run_cli(capsys, "transform", "--quasigroup", ref_square_file,
                               "--fn", "e", "--leader", "9", "--input", "01230")
        assert code == 1
        assert "leader 9" in err


class TestInvert:
    def test_brute_by_packed_value(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "invert", "--method", "brute",
                               "--quasigroup", ref_square_file, "--N", "2",
                               "--leaders", "3,3,i0,i1", "--output-value", "11")
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "preimages 2"
        assert body[-2:] == ["03", "10"]  # packed values 3 and 4

    def test_attack_r1(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "invert", "--method", "attack-r1",
                               "--quasigroup", ref_square_file, "--output", "00103")
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "preimages 4"
        assert body[1] == "guesses 16"
        assert "01230" in body

    @pytest.mark.parametrize("method", ["brute", "attack-r1", "attack-r2"])
    @pytest.mark.parametrize("square, value, n, extra", [
        ("5", 3, 5, ["--budget", "1023"]),
        ("5", 3, 6, ["--budget", "15"]),
        ("5", 1, 6, ["--budget", "16", "--first-hit"]),
        ("5", 3, 321, []),
        ("5", 3, 321, ["--first-hit"]),
        ("{order1}", 0, 3000, []),
        ("{order1}", 0, 2896, ["--leaders", "0,0,0"]),
    ])
    def test_output_value_is_refused_as_its_string_is(self, capsys, tmp_path, method,
                                                      square, value, n, extra):
        # --output-value is refused from N before the string is built; the
        # outcome must be that of the built string passed as --output
        order1 = tmp_path / "order1.qg"
        order1.write_text("1\n0\n")
        named = (["--quasigroup", str(order1)] if square == "{order1}"
                 else ["--index", square])
        string = transforms.unpack_string(value, 1 if square == "{order1}" else 4, n)
        outcomes = []
        for given in (["--output-value", str(value), "--N", str(n)],
                      ["--output", "".join(map(str, string))]):
            try:
                code, out, err = run_cli(capsys, "invert", *named, "--method", method,
                                         *given, *extra)
            except SystemExit as e:
                code, out, err = e.code, "", capsys.readouterr().err
            lines = [l for l in out.splitlines() if not l.startswith("elapsed-ms")]
            outcomes.append((code, lines, err))
        assert outcomes[0] == outcomes[1]

    def test_attack_r1_budget(self, capsys):
        # square 355 needs 16 guesses for 0320
        argv = ["invert", "--method", "attack-r1", "--index", "355", "--output", "0320"]
        code, out, _ = run_cli(capsys, *argv, "--budget", "16")
        assert code == 0 and "guesses 16" in out.splitlines()
        code, out, err = run_cli(capsys, *argv, "--budget", "15")
        assert code == 1 and out == "" and "budget 15" in err

    def test_attack_r1_refuses_a_long_first_hit_search(self, capsys):
        # a first_hit search is not refused by its guess count, and the
        # schedule of 8000 symbols would take gigabytes to compile
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "invert", "--method", "attack-r1", "--index", "355",
                                 "--first-hit", "--output", "0" * 8000)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (1, "")
        assert err == "error: attack-r1 takes outputs of at most 320 symbols, got 8000\n"

    def test_attack_r2(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "invert", "--method", "attack-r2",
                               "--quasigroup", ref_square_file, "--output", "03202")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "preimages 2"
        assert body[1] == "guesses 1024"
        assert body[-2:] == ["01230", "21200"]

    def test_config_echo(self, capsys, ref_square_file):
        _, out, _ = run_cli(capsys, "invert", "--method", "attack-r2",
                            "--quasigroup", ref_square_file, "--output", "03202")
        header = [l for l in out.splitlines() if l.startswith("#")]
        assert "# qows invert" in header
        assert "# method attack-r2" in header
        assert any(l.startswith("# budget ") for l in header)

    def test_budget_flag_trips(self, capsys, ref_square_file):
        code, _, err = run_cli(capsys, "invert", "--method", "attack-r2",
                               "--quasigroup", ref_square_file, "--output", "03202",
                               "--budget", "100")
        assert code == 1
        assert "budget" in err

    def test_budget_env(self, capsys, ref_square_file, monkeypatch):
        monkeypatch.setenv("QOWS_BUDGET", "100")
        code, _, err = run_cli(capsys, "invert", "--method", "attack-r2",
                               "--quasigroup", ref_square_file, "--output", "03202")
        assert code == 1 and "budget" in err

    def test_leaders_rejected_for_attacks(self, capsys, ref_square_file):
        with pytest.raises(SystemExit) as ei:
            run_cli(capsys, "invert", "--method", "attack-r1",
                    "--quasigroup", ref_square_file, "--output", "00103",
                    "--leaders", "0")
        assert ei.value.code == 2

    def test_first_hit(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "invert", "--method", "attack-r1",
                               "--quasigroup", ref_square_file, "--output", "00103",
                               "--first-hit")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert code == 0 and body[0] == "preimages 1"


    def test_brute_first_hit(self, capsys):
        # 00000 has two preimages, 03131 and 23101
        code, out, _ = run_cli(capsys, "invert", "--index", "355", "--method", "brute",
                               "--output", "00000", "--first-hit")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert code == 0 and body[0] == "preimages 1"
        assert body[4:] == ["03131"]

    def test_structure_warnings_one_line_each(self, capsys):
        # square 5 is commutative and associative; repeated calls warn again
        argv = ["invert", "--index", "5", "--method", "attack-r2", "--output", "012"]
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, *argv)
            assert caught == []
            assert code == 0 and out.splitlines()[6:8] == ["preimages 0", "guesses 64"]
            assert err == (
                "warning: quasigroup is commutative; attack cost guarantees assume it is not\n"
                "warning: quasigroup is associative; attack cost guarantees assume it is not\n")


class TestReportCommands:
    def test_histogram(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "histogram", "--quasigroup", ref_square_file,
                               "--N", "2", "--leaders", "3,3,i1,i0")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert code == 0
        assert "permutation true" in body

    @pytest.mark.parametrize("n, entries", [(5, "all"), (7, "nonzero")])
    def test_histogram_written_a_block_at_a_time(self, n, entries, tmp_path, monkeypatch):
        # blocks of a few entries, across the 4096-entry listing rule: both
        # destinations get the header and the record exactly, and stdout
        # gets the record in pieces of a block, whose lines fill at most
        # CHUNK_COLUMNS bytes
        columns = 96
        monkeypatch.delenv("QOWS_BUDGET", raising=False)
        monkeypatch.setattr(transforms, "CHUNK_COLUMNS", columns)
        hist = preimage_histogram(OwfSpec(from_index(355), n, parse_leaders("3,i1")))
        record = serialize_histogram(hist)
        assert f"entries {entries}\n" in record
        want = (f"# qows histogram\n# quasigroup #355\n# n {n}\n"
                f"# leaders 3,i1\n# budget {budget.DEFAULT_BUDGET}\n") + record
        argv = ["histogram", "--index", "355", "--N", str(n), "--leaders", "3,i1"]
        out = tmp_path / "h"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("ascii")

        sizes = []

        class Pieces(io.BytesIO):
            def write(self, piece):
                sizes.append(len(piece))
                return super().write(piece)
        pieces = Pieces()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(pieces, encoding="ascii"))
        assert main(argv) == 0
        assert pieces.getvalue() == want.encode("ascii")
        # after the header and the flag lines
        assert len(sizes) > 20 and max(sizes[2:]) <= columns

    def test_histogram_holds_no_copy_of_the_record(self, tmp_path, monkeypatch):
        # 16^5: 8.4 MB of counts and a 5.9 MB record. Writing it holds the
        # counts and one block of lines; the whole call, whose scan holds
        # the counts and a block of columns, stays below the counts and the
        # record. Holding the record whole, as text or bytes, breaks both.
        monkeypatch.delenv("QOWS_BUDGET", raising=False)
        q = random_latin(16, 12345)
        hist = preimage_histogram(OwfSpec(q, 5, parse_leaders("3,i1")))
        counts, record = hist.counts.nbytes, len(serialize_histogram(hist))
        path = tmp_path / "q16"
        path.write_text(serialize_quasigroup(q))
        argv = ["histogram", "--quasigroup", str(path), "--N", "5",
                "--leaders", "3,i1", "--out", str(tmp_path / "h")]
        assert main(argv) == 0

        def peak():
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak() < counts + record
        scan = inversion.preimage_histogram

        def scan_then_reset(*args, **kwargs):
            hist = scan(*args, **kwargs)
            tracemalloc.reset_peak()    # from here on, the writing
            return hist
        monkeypatch.setattr(inversion, "preimage_histogram", scan_then_reset)
        assert peak() < counts + record // 2

    def test_search_witness(self, capsys, ref_square_file):
        code, out, _ = run_cli(capsys, "search", "--quasigroup", ref_square_file, "--N", "2")
        assert (code, out) == (0, "0\n")

    def test_search_no_witness(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--index", "6", "--N", "2")
        assert (code, out) == (0, "-\n")

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--index", "47")
        assert code == 0
        lines = out.splitlines()
        assert "label NonFractal" in lines
        assert "witness -" in lines
        assert "period-at-k 4096" in lines

    def test_classify_fractal(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--index", "46")
        lines = out.splitlines()
        assert "label Fractal" in lines
        assert "witness 0" in lines


class TestRenderAndGen:
    def test_render_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "img.ppm"
        code, out, _ = run_cli(capsys, "render", "--index", "46", "--leader", "0",
                               "--width", "16", "--iterations", "3",
                               "--out", str(out_path))
        assert code == 0 and out == ""
        expected = render_iterations(from_index(46), 0, (0, 1, 2, 3), 16, 3)
        assert out_path.read_bytes() == expected

    def test_render_over_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QOWS_BUDGET", "1000")
        out_path = tmp_path / "img.ppm"
        code, out, err = run_cli(capsys, "render", "--index", "46", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: render width 600 times 600 rows exceeds budget 1000\n"
        assert not out_path.exists()

    def test_gen_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "gen", "--order", "6", "--seed", "11")
        assert code == 0
        _, out2, _ = run_cli(capsys, "gen", "--order", "6", "--seed", "11")
        assert out1 == out2
        assert parse_quasigroup(out1).order == 6

    def test_gen_seed_changes_output(self, capsys):
        _, a, _ = run_cli(capsys, "gen", "--order", "4", "--seed", "0")
        _, b, _ = run_cli(capsys, "gen", "--order", "4", "--seed", "1")
        assert a != b

    def test_gen_wide_order_within_default_budget(self, capsys, monkeypatch):
        monkeypatch.delenv("QOWS_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "gen", "--order", "64", "--seed", "0")
        assert (code, err) == (0, "")
        assert parse_quasigroup(out).order == 64

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--quasigroup",
                               "/nonexistent/q.qg", "--fn", "r1",
                               "--input", "01")
        assert code == 1 and err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.qg"
        bad.write_text("4\n2 1 0 3\n")
        code, _, err = run_cli(capsys, "transform", "--quasigroup", str(bad),
                               "--fn", "r1", "--input", "01")
        assert code == 1
        assert "rows" in err


class TestCensusCommand:
    def test_census_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "census")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["# qows census", "# census order 4"]
        assert "# fractal 192" in lines
        assert "# non-fractal 384" in lines
        assert "# published-diff missing 0 extra 0" in lines
        assert "# classifier-disagreements 0" in lines
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 576
        assert body[354].startswith("355 Fractal 0 ")
        assert body[46].split()[:3] == ["47", "NonFractal", "-"]

    def test_census_json(self, capsys, tmp_path):
        out_path = tmp_path / "census.json"
        code, out, _ = run_cli(capsys, "census", "--json", "--out", str(out_path))
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert len(doc["fractal"]) == 192
        assert doc["publishedDiff"] == {"missing": [], "extra": []}


@pytest.fixture(scope="module")
def census_reports(census_default):
    """Census reports by settings, the default one shared with the session."""
    return {ClassifySettings(): census_default[0]}


@pytest.mark.parametrize("argv, digest", [
    ([], "f01775c65e5ee6c740f053fbf4f7720eb89660ab03c4a766b339fd5fb329dc21"),
    (["--include-indices"], "d60b45542f33d9adbf6820f17cca83a831f5c09cf38fd35e318a85d6c705610a"),
    (["--json"], "02e57599e9ad27707e52206f4fdea6ba2f63ab1274d3247aab301cc1f4f98f8d"),
    (["--json", "--include-indices"],
     "def51e7cad07a94dd8e5b0c095e7ac27b0175f4ba27cbaa8ed7410b5c3c3d631"),
], ids=["text", "text-indices", "json", "json-indices"])
def test_census_output_is_pinned(argv, digest, census_reports, tmp_path, monkeypatch):
    # the text and JSON outputs of one settings serialize one report
    census = classification.census_order4

    def shared(settings=None):
        if settings not in census_reports:
            census_reports[settings] = census(settings)
        return census_reports[settings]

    monkeypatch.setattr(classification, "census_order4", shared)
    out = tmp_path / "census.out"
    assert main(["census", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["classify", "--index", "5", "--width", "4095"],
    ["classify", "--index", "5", "--leaders", "x"],
    ["classify", "--index", "5", "--leaders", "9"],
    ["classify", "--index", "5", "--leaders", ""],
    ["classify", "--index", "5", "--iterations", "0"],
    ["classify", "--quasigroup", "{dir}"],
    ["classify", "--quasigroup", "{non_ascii}"],
    ["render", "--index", "5", "--iterations", "-5"],
    ["render", "--index", "5", "--width", "-4"],
    ["render", "--index", "5", "--leader", "7"],
    ["census", "--workers", "-3"],
    ["census", "--workers", "0"],
    ["invert", "--index", "5", "--method", "brute", "--output", "01", "--out", "{dir}"],
    ["census", "--seed", "0"],
    ["census", "--max-leader-len", "-1"],
    ["classify", "--index", "5", "--alpha", "-1"],
    ["classify", "--index", "5", "--N", "0"],
    ["QOWS_BUDGET=abc", "invert", "--index", "5", "--method", "brute", "--output", "01"],
    ["census", "--workers", "2"],
    ["histogram", "--index", "5", "--N", "8000"],
    ["invert", "--index", "5", "--method", "attack-r2", "--output", "{long}"],
    ["invert", "--index", "5", "--method", "brute", "--output", "{long}"],
    ["invert", "--index", "5", "--method", "attack-r1", "--output", "{long}"],
    ["classify", "--index", "47", "--width", "400000000000"],
    ["render", "--index", "5", "--width", "4" * 3000, "--iterations", "4" * 3000],
    ["QOWS_BUDGET=3000", "gen", "--order", "40"],
    ["invert", "--index", "5", "--method", "attack-r1", "--output", "01", "--budget", "-1"],
    ["QOWS_BUDGET=-5", "invert", "--index", "5", "--method", "brute", "--output", "01"],
    ["gen", "--order", "100000"],
    ["invert", "--index", "5", "--method", "attack-r1", "--N", "0", "--output-value", "0"],
    ["invert", "--index", "5", "--method", "attack-r1", "--N", "0", "--output-value", "3"],
    ["invert", "--index", "5", "--method", "attack-r1", "--N", "-2", "--output-value", "0"],
    ["invert", "--index", "5", "--method", "attack-r1", "--N", "-2", "--output-value", "3"],
    ["transform", "--quasigroup", "{non_ascii}", "--index", "5", "--fn", "r1", "--input", "0123"],
    ["transform", "--index", "5", "--fn", "r2", "--input", "{long}"],
    ["invert", "--index", "5", "--method", "brute", "--output-value", "3", "--N", "100000000"],
    ["invert", "--index", "5", "--method", "attack-r1", "--output-value", "3", "--N", "100000000"],
    ["invert", "--index", "5", "--method", "attack-r2", "--output-value", "3", "--N", "100000000"],
    ["invert", "--quasigroup", "{order1}", "--method", "brute", "--output", "{zeros}"],
    ["invert", "--quasigroup", "{order1}", "--method", "attack-r2", "--output", "{zeros}"],
    ["histogram", "--quasigroup", "{order1}", "--N", "3000"],
    ["search", "--quasigroup", "{order1}", "--N", "3000"],
    ["invert", "--index", "5", "--method", "brute", "--output-value", "3", "--N", "10000000"],
    ["invert", "--index", "5", "--method", "attack-r1", "--output-value", "3", "--N", "10000000"],
    ["invert", "--index", "5", "--method", "attack-r2", "--output-value", "3", "--N", "10000000"],
])
def test_bad_input_exits_without_traceback(argv, tmp_path, capsys, monkeypatch):
    non_ascii = tmp_path / "table.qg"
    non_ascii.write_bytes("4\n0 1 2 3\n1 2 3 \u00e9\n".encode("utf-8"))
    order1 = tmp_path / "order1.qg"
    order1.write_text("1\n0\n")
    # refused before their N-symbol string, or the N^2 e-steps of order 1,
    # which took seconds or ran out of memory; at N = 10^7 the string is
    # within the budget, and the method's own charge refuses it from N
    quick = "{order1}" in argv or "100000000" in argv or "10000000" in argv
    argv = [a.format(dir=tmp_path, non_ascii=non_ascii, long="0" * 8000, order1=order1,
                     zeros="0" * 3000) for a in argv]
    while "=" in argv[0]:       # leading NAME=value items set the environment
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert err and "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    if "--output-value" in argv and int(argv[argv.index("--N") + 1]) < 1:
        # a length below 1 is named, not reported as a value out of a range
        assert (code, err) == (1, "error: N must be at least 1\n")
    if quick:
        assert code == 1 and elapsed < 1, (code, elapsed)


@pytest.mark.parametrize("command", [
    "transform", "invert", "histogram", "search", "classify", "render"])
def test_quasigroup_and_index_together_are_a_usage_error(command, tmp_path, capsys):
    # the table file would otherwise be ignored in favour of the index
    table = tmp_path / "table.qg"
    table.write_text("1\n0\n")
    with pytest.raises(SystemExit) as e:
        main([command, "--quasigroup", str(table), "--index", "5"])
    assert e.value.code == 2
    assert "not allowed with argument --quasigroup" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["invert", "--method", "attack-r1", "--output", "0123", "--N", "3"],
     "--N 3 does not match output length 4"),
    (["invert", "--method", "attack-r1", "--output", "0123", "--leaders", "0"],
     "--leaders applies to --method brute only"),
    (["invert", "--method", "brute", "--output-value", "5"], "--output-value requires --N"),
    (["classify", "--leaders", "i1"], "--leaders takes constant leaders only"),
    (["invert", "--method", "attack-r1", "--output", "01", "--budget", "x"],
     "argument --budget: invalid integer 'x'"),
])
def test_handler_usage_error_names_the_command(argv, message, capsys):
    # a usage error raised by a command's handler, after parsing, prints
    # that command's usage line, not the top-level one, as one raised by
    # an option's parser does
    with pytest.raises(SystemExit) as e:
        main(argv[:1] + ["--index", "355"] + argv[1:])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qows {argv[0]} [-h]"), err
    assert f"\nqows {argv[0]}: error: {message}\n" in err


def test_invert_output_and_output_value_together_are_a_usage_error(capsys):
    # one of the two would otherwise be ignored in favour of the other
    with pytest.raises(SystemExit) as e:
        main(["invert", "--index", "355", "--method", "attack-r2",
              "--output", "0123", "--output-value", "5", "--N", "2"])
    assert e.value.code == 2
    assert "not allowed with argument --output" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["invert", "--method", "attack-r2", "--output", "0123"],
    ["histogram", "--N", "2"],
])
@pytest.mark.parametrize("to", ["out", "stdout"])
def test_non_ascii_path_is_echoed_escaped(argv, to, tmp_path, monkeypatch):
    # the records are ASCII: a path they echo is escaped, never a traceback
    # or an empty file, whether to --out or to an ASCII-only stdout
    table = tmp_path / "sq_\u00f1.qg"
    table.write_text(serialize_quasigroup(from_index(355)))
    argv = [argv[0], "--quasigroup", str(table), *argv[1:]]
    if to == "out":
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        record = (tmp_path / "out").read_bytes()
    else:
        stdout = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(stdout, encoding="ascii"))
        assert main(argv) == 0
        record = stdout.getvalue()
    assert record.isascii()
    escaped = str(table).replace("\u00f1", "\\xf1")
    assert f"# quasigroup {escaped}\n".encode("ascii") in record


def test_benchmark_tracer_finds_the_names_it_rebinds(capsys):
    # perfbench/tracing.py wraps program attributes by name (including some
    # the program itself no longer calls); deleting one must fail here
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(qows)
        code = qows.cli.main(["classify", "--index", "46"])
    finally:
        tracer.uninstall()
    assert code == 0 and "label Fractal" in capsys.readouterr().out
    assert qows.cli.main is main
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and "classification.classify" in names


def test_successive_calls_do_not_share_options(capsys, ref_square_file):
    # one parser serves every main() call; no option value may carry over
    _, out, _ = run_cli(capsys, "classify", "--index", "46", "--alpha", "1")
    assert "# alpha 1" in out.splitlines()
    _, out, _ = run_cli(capsys, "classify", "--index", "46")
    assert "# alpha 4" in out.splitlines()
    invert = ["invert", "--method", "attack-r1", "--quasigroup", ref_square_file,
              "--output", "00103"]
    _, out, _ = run_cli(capsys, *invert, "--first-hit")
    assert "preimages 1" in out.splitlines()
    _, out, _ = run_cli(capsys, *invert)
    assert "preimages 4" in out.splitlines()


def test_console_script_entry_point(ref_square_file):
    # the installed executable, end to end
    proc = subprocess.run(
        [sys.executable, "-m", "qows.cli", "transform", "--quasigroup", ref_square_file,
         "--fn", "r2", "--input", "01230"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "03202\n"


@pytest.mark.parametrize("argv", [
    ["invert", "--index", "5", "--method", "attack-r1", "--output", "01"],
    ["histogram", "--index", "5", "--N", "2"],
    ["search", "--index", "5", "--N", "2"],
])
def test_negative_budget_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--budget", "-1"])
    assert e.value.code == 2
    assert "--budget: must be non-negative" in capsys.readouterr().err


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "qows.cli", "badcmd"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def _readme_commands():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qows ")]
    assert commands, "README's command-line block lists no qows commands"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_run(argv, tmp_path, capsys):
    # every documented command line works; --out lands in tmp_path
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0, capsys.readouterr().err
