"""Pure-Python reference e-step and the output checks built on it.

Everything here is independent of the `qows` package: tables are parsed
from the files the program reads, and every preimage or image is recomputed
with the loop below, so a rewritten kernel in the program cannot certify
its own output.
"""
import hashlib


def e_step(table, leader, a):
    """b_0 = leader * a_0, b_i = b_{i-1} * a_i."""
    out = []
    x = leader
    for v in a:
        x = table[x][v]
        out.append(x)
    return out


def apply_leaders(table, leaders, a):
    for leader in leaders:
        a = e_step(table, leader, a)
    return tuple(a)


def r1(table, a):
    return apply_leaders(table, a[::-1], a)


def r2(table, a):
    rev = tuple(a[::-1])
    return apply_leaders(table, rev + rev, a)


def parse_leader_tokens(text):
    """"3,i1" -> [("c", 3), ("i", 1)]; "" and "()" are empty."""
    text = text.strip()
    if text in ("", "()"):
        return []
    return [("i", int(t[1:])) if t.startswith("i") else ("c", int(t))
            for t in text.split(",")]


def r_n(table, tokens, a):
    a = tuple(a)
    rev = a[::-1]
    resolved = tuple(a[v] if kind == "i" else v for kind, v in tokens)
    return apply_leaders(table, resolved + rev + rev, a)


def pack(a, s):
    v = 0
    for x in a:
        v = v * s + x
    return v


def parse_table(text):
    """Order line, then one row per line; '#' lines are comments. The table
    must be a Latin square, so a broken serializer cannot slip through."""
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    s = int(lines[0][0])
    table = [[int(v) for v in row] for row in lines[1:]]
    full = list(range(s))
    if len(table) != s or any(sorted(row) != full for row in table):
        raise ValueError("table rows are not permutations of 0..s-1")
    if any(sorted(row[j] for row in table) != full for j in range(s)):
        raise ValueError("table columns are not permutations of 0..s-1")
    return table


def format_string(a, s):
    """The CLI's string format: compact digits up to order 10, else spaced."""
    return "".join(map(str, a)) if s <= 10 else " ".join(map(str, a))


def parse_string(text, s):
    text = text.strip()
    if s <= 10 and " " not in text:
        return tuple(int(c) for c in text)
    return tuple(int(t) for t in text.split())


def _record(text):
    """Non-comment lines of a report."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def check_preimages(text, s, image_of, planted):
    """An `invert` record: every listed preimage maps to the target under
    the reference function, the planted input is among them, and the
    count line matches the list. Returns (guesses, lookups, preimages)."""
    lines = _record(text)
    fields = dict(ln.split(" ", 1) for ln in lines[:4])
    found = [parse_string(ln, s) for ln in lines[4:]]
    if int(fields["preimages"]) != len(found) or len(set(found)) != len(found):
        raise ValueError("preimage count line disagrees with the list")
    target = image_of(planted)
    for p in found:
        if image_of(p) != target:
            raise ValueError(f"listed preimage {p} does not map to the target")
    if tuple(planted) not in found:
        raise ValueError("planted input missing from the preimages")
    return int(fields["guesses"]), int(fields["lookups"]), len(found)


def check_histogram(path, s, n, probe_values):
    """A `histogram` record, streamed so the check adds little memory.

    Counts must total s^N with strictly increasing in-range values, the
    permutation and regular flags must agree with the counts, and every
    probe value (the reference image of a seeded input) must have a
    nonzero count. Returns the number of entries listed.
    """
    domain = s ** n
    head = {}
    total = entries = ones = 0
    last = -1
    counts_seen = set()
    probes = set(probe_values)
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            a, b = line.split()
            if len(head) < 4:
                head[a] = b
                continue
            value, count = int(a), int(b)
            if not last < value < domain or count < 0:
                raise ValueError(f"bad histogram entry {line.strip()!r}")
            last = value
            total += count
            if count:
                entries += 1
                ones += count == 1
                counts_seen.add(count)
                probes.discard(value)
    if int(head["domain"]) != domain or total != domain:
        raise ValueError(f"histogram total {total} != s^N = {domain}")
    permutation = entries == domain and ones == domain
    if head["permutation"] != ("true" if permutation else "false"):
        raise ValueError("permutation flag disagrees with the counts")
    if head["regular"] != ("true" if len(counts_seen) == 1 else "false"):
        raise ValueError("regular flag disagrees with the counts")
    if probes:
        raise ValueError(f"reference images {sorted(probes)} have count 0")
    return entries


def census_body(text):
    """The report from its `# census order 4` line on; the CLI's own
    `# workers` and `# seed` header lines are excluded."""
    start = text.index("# census order 4\n")
    return text[start:]


def check_census(text, body_sha256):
    body = census_body(text)
    heads = {ln[2:].rsplit(" ", 1)[0]: ln.rsplit(" ", 1)[1]
             for ln in body.splitlines() if ln.startswith("# ")}
    want = {"fractal": "192", "non-fractal": "384",
            "published-diff missing 0 extra": "0",
            "classifier-disagreements": "0"}
    for key, value in want.items():
        if heads.get(key) != value:
            raise ValueError(f"census header {key!r} is {heads.get(key)!r}, want {value}")
    if hashlib.sha256(body.encode("ascii")).hexdigest() != body_sha256:
        raise ValueError("census report body differs from the pinned digest")


def check_classify(text, entry):
    """`classify` output agrees with the pinned census entry for the same
    square: label, witness and period at the final iterate."""
    fields = {}
    periods = 0
    for ln in _record(text):
        key, value = ln.split(" ", 1)
        if key == "period":
            periods += 1
        else:
            fields[key] = value
    label, witness, period = entry
    got = (fields["label"], fields["witness"], fields["period-at-k"])
    if got != (label, witness, period.rstrip("*")) or periods != 32:
        raise ValueError(f"classify gave {got}, census entry is {entry}")
