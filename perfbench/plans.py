"""Workload job lists, made from the workload seed.

A plan names the squares to build during set-up and the jobs to run. The
structure of each list is fixed (which commands, at which orders and
lengths, how many); the seed picks the squares, planted inputs, leader
strings and indices. Keeping the structure fixed keeps the cost of a list
nearly the same from seed to seed, so a second seed measures the same
work, while the outputs to check differ.

Left out of the timed set, with the reason:
  census --workers   wall-clock scaling on a shared 2-core machine is
                     noise, and the process pool may be removed
  orders >= 128      the int8 numpy paths raise OverflowError
  gen at order >= 32 the sampler runs for minutes, and order 40 hits a
                     RecursionError
Fixing these adds work to a timed workload and would read as a
regression, so a wide-order workload waits until they are fixed.
"""
import random

import pins

WORKLOADS = ("census", "attack-r1", "domain-scan", "iterate")

# (order, N, jobs). The single-reverse attack's cost tracks s^(N/3): about
# 256 guesses in the large cheap cells, 4096 in the rest. The counts put
# the job-latency median inside the (16, 6) / (4, 12) / (8, 9) block and
# the 90th percentile inside the (8, 10) / (16, 8) block, away from cost
# steps. The list takes a few seconds, so a run repeats it several times.
ATTACK_R1_CELLS = (
    (16, 6, 14), (4, 12, 26), (8, 9, 30), (16, 7, 8), (4, 13, 8),
    (4, 14, 5), (4, 15, 5), (8, 10, 10), (16, 8, 9),
    (8, 11, 1), (8, 12, 1), (4, 16, 1), (4, 17, 1), (4, 18, 1),
)

# (command, order, N, leader kind). Every job scans all s^N inputs, so its
# cost is set by the cell; leader strings have two tokens, with or without
# an i<k> index token. Histograms use random squares of order 8 and 16:
# they hit (1 - 1/e) s^N distinct images on every seed, while order-4
# squares hit anything from s^N / 8 to all s^N, which made the histogram's
# output, and the run's peak RSS, depend on the seed. No job takes much
# longer than the two 1 s attack-r2 jobs at the top, on which the 90th
# percentile falls, so a run repeats the list about three times.
DOMAIN_SCAN_JOBS = (
    ("attack-r2", 4, 9, None), ("attack-r2", 4, 10, None),
    ("attack-r2", 8, 6, None), ("attack-r2", 8, 7, None),
    ("attack-r2", 16, 5, None),
    ("brute", 4, 9, "const"), ("brute", 4, 9, "index"),
    ("brute", 8, 6, "index"), ("brute", 16, 5, "const"),
    ("histogram", 8, 6, "index"), ("histogram", 8, 6, "const"),
    ("histogram", 16, 5, "const"), ("histogram", 16, 5, "index"),
)

# Each classify is followed by two renders of the same square, so the
# latency median falls among renders and the 90th percentile among
# classify jobs instead of on the step between them. 34 squares make 102
# jobs, a few seconds' work, so a run repeats the list several times.
ITERATE_SQUARES = 34

HISTOGRAM_PROBES = 8


def _square(rng, order):
    if order == 4:
        return {"kind": "index", "k": rng.randint(1, 576)}
    return {"kind": "random", "order": order, "seed": rng.randrange(1 << 31)}


def _leaders(rng, order, n, kind):
    first = str(rng.randrange(order))
    second = f"i{rng.randrange(n)}" if kind == "index" else str(rng.randrange(order))
    return f"{first},{second}"


def _word(rng, order, n):
    return [rng.randrange(order) for _ in range(n)]


def make(workload, seed):
    """The plan for one workload: {"squares": [...], "jobs": [...]}."""
    rng = random.Random(f"{workload}:{seed}")
    squares, jobs = [], []

    def add_square(order):
        squares.append(_square(rng, order))
        return len(squares) - 1

    if workload == "census":
        jobs.append({"cmd": "census"})
    elif workload == "attack-r1":
        for order, n, count in ATTACK_R1_CELLS:
            for _ in range(count):
                jobs.append({"cmd": "attack-r1", "square": add_square(order),
                             "order": order, "n": n, "input": _word(rng, order, n)})
        rng.shuffle(jobs)
    elif workload == "domain-scan":
        for cmd, order, n, kind in DOMAIN_SCAN_JOBS:
            job = {"cmd": cmd, "square": add_square(order), "order": order, "n": n}
            if kind is not None:
                job["leaders"] = _leaders(rng, order, n, kind)
            if cmd == "histogram":
                job["probes"] = [_word(rng, order, n) for _ in range(HISTOGRAM_PROBES)]
            else:
                job["input"] = _word(rng, order, n)
            jobs.append(job)
    elif workload == "iterate":
        entries = pins.census_entries()
        fractal = sorted(k for k, e in entries.items() if e[0] == "Fractal")
        non_fractal = sorted(k for k, e in entries.items() if e[0] != "Fractal")
        ks = (rng.sample(fractal, ITERATE_SQUARES // 2)
              + rng.sample(non_fractal, ITERATE_SQUARES - ITERATE_SQUARES // 2))
        rng.shuffle(ks)
        for k in ks:
            jobs.append({"cmd": "classify", "k": k, "order": 4})
            for leader in rng.sample(range(4), 2):
                jobs.append({"cmd": "render", "k": k, "order": 4, "leader": leader})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "squares": squares, "jobs": jobs}


def describe(job):
    """One line naming a job by command, order, N and leader string."""
    parts = [job["cmd"]]
    if "k" in job:
        parts.append(f"K={job['k']}")
    if "order" in job:
        parts.append(f"order={job['order']}")
    if "n" in job:
        parts.append(f"N={job['n']}")
    if "leaders" in job:
        parts.append(f"leaders={job['leaders']}")
    if "leader" in job:
        parts.append(f"leader={job['leader']}")
    return " ".join(parts)
