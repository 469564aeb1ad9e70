"""Outputs pinned at the seed commit, used by the output checks.

  pins/census_order4.txt   body of `qows census` from its `# census order 4`
                           line on (the `# workers` and `# seed` lines are
                           left out); its digest is CENSUS_SHA256
  pins/render_sha256.txt   per square K: the first 16 hex digits of the
                           SHA-256 of `qows render --index K --leader l`
                           (600x600 P6) for l = 0, 1, 2, 3

Rebuild them from a checkout with `python3 perfbench/pins.py --write`
(the census takes about 15 s, the 2304 renders about 100 s), then set
CENSUS_SHA256 to the digest it prints.
"""
import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CENSUS_PATH = os.path.join(HERE, "pins", "census_order4.txt")
RENDER_PATH = os.path.join(HERE, "pins", "render_sha256.txt")
CENSUS_SHA256 = "38d1d6f9c5b57aa190d541acfc2d7fbbd11cb9bb54cffa0d8be6dd56238909f6"


def render_digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def census_entries():
    """index -> (label, witness, period field) from the pinned report,
    after checking the file against CENSUS_SHA256."""
    with open(CENSUS_PATH, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != CENSUS_SHA256:
        raise ValueError(f"{CENSUS_PATH} does not match its pinned digest")
    out = {}
    for line in raw.decode("ascii").splitlines():
        if not line.startswith("#"):
            idx, label, witness, period = line.split()
            out[int(idx)] = (label, witness, period)
    return out


def render_digests():
    """index -> tuple of digests for leaders 0..3."""
    with open(RENDER_PATH, "r", encoding="ascii") as fh:
        rows = [line.split() for line in fh]
    return {int(row[0]): tuple(row[1:]) for row in rows}


def write(root):
    """Regenerate both pin files with the program in root/src."""
    sys.path.insert(0, os.path.join(root, "src"))
    from qows import cli
    from reference import census_body

    def run(argv):
        if cli.main(argv + ["--out", out]) != 0:
            raise SystemExit(f"qows {' '.join(argv)} failed")

    os.makedirs(os.path.dirname(CENSUS_PATH), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        out = os.path.join(work, "out")
        run(["census"])
        with open(out, encoding="ascii") as fh:
            body = census_body(fh.read())
        with open(CENSUS_PATH, "w", encoding="ascii") as fh:
            fh.write(body)
        lines = []
        for k in range(1, 577):
            digests = []
            for leader in range(4):
                run(["render", "--index", str(k), "--leader", str(leader)])
                with open(out, "rb") as fh:
                    digests.append(render_digest(fh.read()))
            lines.append(f"{k} {' '.join(digests)}\n")
        with open(RENDER_PATH, "w", encoding="ascii") as fh:
            fh.writelines(lines)
    print("census sha256", hashlib.sha256(body.encode("ascii")).hexdigest())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/pins.py --write")
    write(os.path.dirname(HERE))
