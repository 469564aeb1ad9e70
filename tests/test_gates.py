"""The CI gates that run under the tests: the text of two demos, the two
images the render demo writes, a histogram record and a set of attack
records, each run as a user runs it, in a fresh interpreter, and compared
byte for byte with the output pinned by its SHA-256; a 4^11 histogram
record, which must be the same written to --out and to stdout, within a
bound on peak RSS; two commands that must end within a time bound, an
order-128 gen and a witness search too large for the budget; two that
must end within both a time and a peak-RSS bound, a hostile output value
and a one-shot long attack; the records of a table whose path is not
ASCII; and the e-steps one census takes, counted in process.

Each command runs as sys.executable -m qows.cli, and each demo as
sys.executable -bb on its file (a copy, for the demo that writes files
next to itself), with this checkout's src first on the child's PYTHONPATH.
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from qows import census_order4, classification, parse_quasigroup
from test_acceptance import RENDER_SHA256

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _env():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _run(*argv, timeout=None):
    """The stdout of argv run from the checkout's root; its stderr (the
    structure warnings) is dropped, and it must exit 0 within timeout
    seconds."""
    return subprocess.run(argv, cwd=ROOT, env=_env(), check=True, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout


def _qows(*args, timeout=None):
    return _run(sys.executable, "-m", "qows.cli", *args, timeout=timeout)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# these two demos print deterministic text through e_transform, e_inverse,
# r1, r2, r_n and the histogram flags; the digests are those of the text
# before the compositions shared one checked loop
DEMO_TEXT = {
    "transform_walkthrough": "ee146f40ad74b708e3e7ddeaceead84a941e716a15cf0891c701e075585b66ae",
    "one_way_functions": "a96458707fb683d5c1f2ee6c6afd27096fb282e8ae6c6f463d0df632e845ac08",
}


@pytest.mark.parametrize("demo", DEMO_TEXT)
def test_demo_text_unchanged(demo):
    assert _sha256(_run(sys.executable, "-bb", f"demos/{demo}.py")) == DEMO_TEXT[demo]


def test_demo_renders_unchanged(tmp_path):
    # the demo writes its 600 x 600 renders of squares 46 and 47 next to
    # itself, so it runs from a copy; the digests are those of the
    # row-by-row renderer
    demo = tmp_path / "fractal_images.py"
    shutil.copyfile(ROOT / "demos" / "fractal_images.py", demo)
    _run(sys.executable, "-bb", str(demo))
    for idx, digest in RENDER_SHA256.items():
        assert _sha256((tmp_path / f"square{idx}.ppm").read_bytes()) == digest


def test_histogram_record_unchanged():
    # a 4^10 domain, so many blocks of lines and values past 10^6; the
    # digest is that of the record as written before it was built in blocks
    record = _qows("histogram", "--index", "355", "--N", "10", "--leaders", "3,i1")
    assert _sha256(record) == "22bd9d92e4820de93f242d122e7446be72f6998d01be71e5bb0f401497c5892f"


# the 20 MB record of a 4^11 domain is written a block of lines at a time
# and counted in uint32, one block of inputs at a time, so the command peaks
# at about 53 MiB RSS: 69-71 MiB with int64 counts, and 106 MiB when it
# held the record whole
HISTOGRAM_RSS_MIB = 64


def _peak_rss_mib(*args, timeout=None):
    """(peak RSS in MiB, exit code, stderr) of the qows command args, run
    from a fresh wrapper interpreter whose only child it is, so that no
    other process the tests ran counts; its stdout is dropped. The wrapper
    kills it after timeout seconds, and then fails the test."""
    wrapper = ("import resource, subprocess, sys\n"
               "run = subprocess.run(sys.argv[2:], timeout=float(sys.argv[1]) or None,\n"
               "                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)\n"
               "sys.stderr.buffer.write(run.stderr)\n"
               "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", wrapper, str(timeout or 0),
                           sys.executable, "-m", "qows.cli", *args],
                          cwd=ROOT, env=_env(), check=True, capture_output=True, text=True)
    code, rss = map(int, done.stdout.split())
    return rss / 1024, code, done.stderr


def test_histogram_record_streamed(tmp_path):
    # --out must hold what stdout gets, and the --out run stays under the
    # bound
    histogram = ["histogram", "--index", "355", "--N", "11", "--leaders", "3,i1"]
    out = tmp_path / "h11"
    rss, code, err = _peak_rss_mib(*histogram, "--out", str(out))
    assert code == 0, err
    assert _sha256(out.read_bytes()) == _sha256(_qows(*histogram))
    assert rss < HISTOGRAM_RSS_MIB


@pytest.mark.parametrize("method", ["brute", "attack-r1", "attack-r2"])
def test_hostile_output_value_is_refused_from_n(method):
    # N = 10^7 symbols is within the budget as an output, but each
    # method's own charge refuses it from N alone, so --output-value must
    # end in one error line before the string is built (it took 3.6 s and
    # 807 MiB when the string came first)
    rss, code, err = _peak_rss_mib("invert", "--index", "5", "--method", method,
                                   "--output-value", "3", "--N", "10000000", timeout=10)
    lines = err.splitlines()
    assert code == 1 and len(lines) == 1, err
    assert "exceeds budget" in lines[0] or "at most 320 symbols" in lines[0], err
    assert rss < 100


@pytest.mark.parametrize("n", [240, 320])
def test_one_shot_long_attack(n):
    # uncached 240- and 320-symbol --first-hit searches, whose schedule
    # compiles the benchmark's repeated output lengths hide; 320 is
    # MAX_R1_LENGTH, the longest compile and the deepest search tree, 107
    # nested generators. Each must end in exit 0 (a preimage) or 1 (over
    # budget), never in a traceback, under 150 MiB RSS (77 and 113 MiB
    # with each level's run program; 84 and 124 MiB when levels ran as
    # wavefronts)
    rss, code, err = _peak_rss_mib("invert", "--index", "355", "--method", "attack-r1",
                                   "--first-hit", "--budget", "1000", "--output", "0" * n,
                                   timeout=60)
    assert code in (0, 1) and "Traceback" not in err, err
    assert rss < 150


@pytest.mark.parametrize("argv", [["classify"], ["invert", "--method", "attack-r2", "--output",
                                                 "0123"], ["histogram", "--N", "2"]],
                         ids=["classify", "invert", "histogram"])
def test_non_ascii_table_path(tmp_path, argv):
    # the records are ASCII: a table path echoed in a header is
    # backslash-escaped, both to --out and to an ASCII-only stdout, where
    # it used to end in a UnicodeEncodeError traceback (and, to --out, an
    # empty file)
    table, out = tmp_path / "sq_\u00f1.qg", tmp_path / "record"
    _qows("gen", "--order", "4", "--seed", "3", "--out", str(table))
    header = f"# quasigroup {table}\n".encode("ascii", "backslashreplace")
    cmd = [sys.executable, "-m", "qows.cli", argv[0], "--quasigroup", str(table), *argv[1:]]
    to_file = subprocess.run(cmd + ["--out", str(out)], cwd=ROOT, env=_env(),
                             capture_output=True, timeout=60)
    to_stdout = subprocess.run(cmd, cwd=ROOT, env=dict(_env(), PYTHONIOENCODING="ascii"),
                               capture_output=True, timeout=60)
    for proc, record in ((to_file, out.read_bytes()), (to_stdout, to_stdout.stdout)):
        assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr
        assert record.isascii() and header in record


def test_attack_records_unchanged(tmp_path):
    # attack-r1 records at orders 4, 16 and 300: full searches over planted
    # and arbitrary targets and one --first-hit, holding 4, 1, 0, 3 and 3
    # preimages from 256, 18, 256, 4096 and 300 guesses (51 lines); the
    # digest is that of the records when each level ran as wavefronts,
    # before it ran as one program
    q16, q300 = tmp_path / "q16.qg", tmp_path / "q300.qg"
    q16.write_bytes(_qows("gen", "--order", "16", "--seed", "1"))
    q300.write_bytes(_qows("gen", "--order", "300", "--seed", "0"))

    def image(square, a):
        return _qows("transform", *square, "--fn", "r1", "--input", a).decode().rstrip("\n")

    def invert(square, b, *extra):
        return _qows("invert", *square, "--method", "attack-r1", "--output", b, *extra)

    at355 = ["--index", "355"]
    b = image(at355, "012301230123")
    records = [invert(at355, b), invert(at355, b, "--first-hit"), invert(at355, "012301230123")]
    for path, a in ((q16, "1 2 3 4 5 6 7 8"), (q300, "299 0 150")):
        square = ["--quasigroup", str(path)]
        records.append(invert(square, image(square, a)))
    # the echoed table path and the timing vary from run to run
    lines = [line for record in records for line in record.splitlines(keepends=True)
             if not line.startswith((b"# quasigroup", b"elapsed-ms"))]
    assert len(lines) == 51
    assert _sha256(b"".join(lines)) == \
        "1e367e83dd0c802f26eeaeffdc4e0c3cdc50cd98f6d03ac0623afc2e61d9dae2"


def test_wide_gen_within_a_minute():
    # an order-128 square under the default budget, by augmenting paths
    table = _qows("gen", "--order", "128", "--seed", "0", timeout=60)
    assert parse_quasigroup(table.decode()).order == 128


def test_hostile_witness_search_is_refused_up_front():
    # N = 10^9 with index leaders: the public enumerator yields its first
    # strings without building a billion index leaders, and the budget
    # refuses the search from the token count alone, in one error line
    first = _run(sys.executable, "-c", "import itertools, qows; print(len(list("
                 "itertools.islice(qows.leader_strings(4, 10**9, 1, True), 10))))", timeout=20)
    assert first == b"10\n"
    search = subprocess.run([sys.executable, "-m", "qows.cli", "search", "--index", "5",
                             "--N", "1000000000", "--include-indices"],
                            cwd=ROOT, env=_env(), timeout=20, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    lines = search.stderr.splitlines()
    assert search.returncode == 1, search.stderr
    assert len(lines) == 1 and "exceeds budget" in lines[0], search.stderr


def test_census_steps_a_fixed_number_of_symbols(monkeypatch):
    # the period engine's work per census, three layers a pass, each
    # square stopped at its first capped leader (the witness search takes
    # no e_row): a change that steps more symbols or calls more often fails
    stepped = [0, 0]        # calls, symbols
    e_row = classification.e_row

    def counted(table, leader, a):
        stepped[0] += 1
        stepped[1] += len(a)
        return e_row(table, leader, a)
    monkeypatch.setattr(classification, "e_row", counted)
    census_order4()
    assert stepped == [23_539, 1_537_572]
