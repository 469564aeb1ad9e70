import json
import subprocess
import sys
import warnings

import pytest

from qows import parse_quasigroup, render_iterations, from_index
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

    def test_attack_r1_budget(self, capsys):
        # square 355 needs 16 guesses for 0320
        argv = ["invert", "--method", "attack-r1", "--index", "355", "--output", "0320"]
        code, out, _ = run_cli(capsys, *argv, "--budget", "16")
        assert code == 0 and "guesses 16" in out.splitlines()
        code, out, err = run_cli(capsys, *argv, "--budget", "15")
        assert code == 1 and out == "" and "budget 15" in err

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
])
def test_bad_input_exits_without_traceback(argv, tmp_path, capsys, monkeypatch):
    non_ascii = tmp_path / "table.qg"
    non_ascii.write_bytes("4\n0 1 2 3\n1 2 3 \u00e9\n".encode("utf-8"))
    argv = [a.format(dir=tmp_path, non_ascii=non_ascii) for a in argv]
    while "=" in argv[0]:       # leading NAME=value items set the environment
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert err and "Traceback" not in err


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


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "qows.cli", "badcmd"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
