"""The CI gates that run under the tests: the text of two demos, the two
images the render demo writes, a histogram record and a set of attack
records, each run as a user runs it, in a fresh interpreter, and compared
byte for byte with the output pinned by its SHA-256; a 4^11 histogram
record, which must be the same written to --out and to stdout, within a
bound on peak RSS; and two commands that must end within a time bound, an
order-128 gen and a witness search too large for the budget.

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

from qows import parse_quasigroup
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


def _peak_rss_mib(*argv):
    """The peak RSS in MiB of argv, run to exit 0 from a fresh wrapper
    interpreter whose only child it is, so that no other process the
    tests ran counts; its stdout is dropped."""
    wrapper = ("import resource, subprocess, sys\n"
               "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    return int(_run(sys.executable, "-c", wrapper, *argv)) / 1024


def test_histogram_record_streamed(tmp_path):
    # --out must hold what stdout gets, and the --out run stays under the
    # bound
    histogram = ["histogram", "--index", "355", "--N", "11", "--leaders", "3,i1"]
    out = tmp_path / "h11"
    rss = _peak_rss_mib(sys.executable, "-m", "qows.cli", *histogram, "--out", str(out))
    assert _sha256(out.read_bytes()) == _sha256(_qows(*histogram))
    assert rss < HISTOGRAM_RSS_MIB


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
