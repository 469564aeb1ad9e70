"""Benchmark for the qows command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. The
seed makes the job list (see plans.py); the program sees only the table
files and argv built from it. Each workload runs in fresh interpreters
with one BLAS/OpenMP thread:

  * SETUP_RUNS interpreters only set up (import, order-4 enumeration,
    building and writing the squares), for the median `setup_s`;
  * one more sets up the same way and then repeats the job list until S
    seconds have passed, checking every output against the pure-Python
    reference in reference.py and the pins in pins/.

Times are calibrated against a fixed pure-Python loop sampled while they
run (see `calibrated`), so they read as seconds at a fixed interpreter
speed. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
metrics, the tracing overhead and the span table. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import bisect
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile

import plans
from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 4
# A run must end within 180 s: four set-ups of about a second each, then the jobs.
SETUP_TIMEOUT_S = 5
RUN_TIMEOUT_S = 140
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Job times are calibrated: seconds at the speed where
# worker.calibration_loop takes CALIBRATION_REF_S, about its time on the
# baseline machine. Other tenants of the host change its speed by up to a
# third over minutes; the ratio of a job's time to the time of the loop
# sampled during it, and up to CALIBRATION_MARGIN_S either side, stays
# within a few percent.
CALIBRATION_REF_S = 0.001
CALIBRATION_MARGIN_S = 0.25


def _child(args, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench: worker {args[2]} exited {proc.returncode}")
    with open(args[1], encoding="ascii") as fh:
        return json.load(fh)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _counts_digest(counts):
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]


def at_reference_speed(t, samples):
    """t measured seconds times CALIBRATION_REF_S over the mean time of
    the calibration samples (start, seconds) taken around them; t itself
    if there are none."""
    if not samples:
        return t
    return t * CALIBRATION_REF_S * len(samples) / sum(d for _, d in samples)


def calibrated(rep):
    """A repetition's job times at the reference speed, each scaled by the
    calibration samples taken during the job or within
    CALIBRATION_MARGIN_S of it (all of the repetition's samples if there
    are none)."""
    samples = rep["calibration"]
    starts = [t for t, _ in samples]
    out = []
    for start, t in zip(rep["job_start"], rep["job_s"]):
        lo = bisect.bisect_left(starts, start - CALIBRATION_MARGIN_S)
        hi = bisect.bisect_right(starts, start + t + CALIBRATION_MARGIN_S)
        out.append(at_reference_speed(t, samples[lo:hi] or samples))
    return out


def setup_s(result):
    """An interpreter's set-up time at the reference speed."""
    return at_reference_speed(result["setup_s"], result["setup_calibration"])


def job_times(reps):
    """Each job's median calibrated time over the untraced repetitions."""
    return [statistics.median(times) for times in zip(*map(calibrated, reps))]


def end_to_end(result, setups):
    reps = [r for r in result["reps"] if not r["traced"]]
    job_s = job_times(reps)
    basis = f"{len(job_s)} jobs, each the median of {len(reps)} calibrated repetitions"
    return {
        "wall_s": (sum(job_s), basis),
        "job_p50_s": (percentile(job_s, 0.5), basis),
        "job_p90_s": (percentile(job_s, 0.9), basis),
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} interpreters, calibrated"),
        "peak_rss_mib": (result["peak_rss_mib"], "ru_maxrss of the run"),
    }


def _layer_rep(rep):
    """Per-layer values of one traced repetition."""
    spans = rep["spans"]
    own = self_times(spans)
    busy, self_s, calls = {}, {}, {}
    for (name, start, end, _, _), o in zip(spans, own):
        busy[name] = busy.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + o
        calls[name] = calls.get(name, 0) + 1
    c = rep["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    b = lambda name: busy.get(name, 0.0)
    r1, r2 = "inversion.attack_r1", "inversion.attack_r2"
    return {
        "classification.period.self_s": self_s.get("classification.census", 0.0),
        "classification.census.busy_s": b("classification.census"),
        "classification.witness.busy_s": b("classification.witness"),
        "classification.witness.leader_strings": c.get("classification.witness.leader_strings", 0),
        "classification.witness.hit_ratio": ratio(c.get("classification.witness.hits", 0),
                                                  c.get("classification.witness.searches", 0)),
        "classification.classify.busy_s": b("classification.classify"),
        "classification.period_profile.busy_s": b("classification.period_profile"),
        "transforms.e_transform.calls": c.get("transforms.e_transform.calls", 0),
        "transforms.symbols_stepped": c.get("transforms.symbols_stepped", 0),
        "transforms.r1.calls": c.get("transforms.r1.calls", 0),
        "transforms.r_n.calls": c.get("transforms.r_n.calls", 0),
        r1 + ".busy_s": b(r1),
        r1 + ".guesses": c.get(r1 + ".guesses", 0),
        r1 + ".lookups": c.get(r1 + ".lookups", 0),
        r1 + ".lookups_per_s": ratio(c.get(r1 + ".lookups", 0), b(r1)),
        r1 + ".hit_ratio": ratio(c.get(r1 + ".preimages", 0), c.get(r1 + ".guesses", 0)),
        r2 + ".busy_s": b(r2),
        r2 + ".guesses": c.get(r2 + ".guesses", 0),
        r2 + ".lookups": c.get(r2 + ".lookups", 0),
        r2 + ".lookups_per_s": ratio(c.get(r2 + ".lookups", 0), b(r2)),
        "inversion.brute.busy_s": b("inversion.brute"),
        "inversion.brute.tuples": c.get("inversion.brute.tuples", 0),
        "inversion.brute.tuples_per_s": ratio(c.get("inversion.brute.tuples", 0),
                                              b("inversion.brute")),
        "inversion.histogram.busy_s": b("inversion.histogram"),
        "inversion.histogram.tuples": c.get("inversion.histogram.tuples", 0),
        "inversion.histogram.tuples_per_s": ratio(c.get("inversion.histogram.tuples", 0),
                                                  b("inversion.histogram")),
        "io_formats.parse.busy_s": b("io_formats.parse"),
        "io_formats.serialize.busy_s": b("io_formats.serialize"),
        "io_formats.serialize.bytes": rep["serialized_bytes"],
        "io_formats.render.busy_s": b("io_formats.render"),
        "io_formats.render.pixels": c.get("io_formats.render.pixels", 0),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "trace.wall_s": rep["wall_s"],
        "trace.span_share": ratio(sum(own), rep["wall_s"]),
    }, busy, self_s, calls


def per_layer(result):
    traced = [r for r in result["reps"] if r["traced"]]
    untraced = [r for r in result["reps"] if not r["traced"]]
    layers = [_layer_rep(r) for r in traced]
    values = {k: statistics.median(l[0][k] for l in layers) for k in layers[0][0]}
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(r["wall_s"] for r in untraced))
    values["core.enumerate_order4.s"] = result["enumerate_s"]
    values["core.random_latin.busy_s"] = result["random_latin_s"]
    values["core.random_latin.calls"] = result["random_latin_calls"]
    return values, layers[0][1:]


def declared_metrics():
    """name -> unit for the end-to-end and the per-layer metrics, as
    BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the worker, and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "qows", "__init__.py")):
        sys.exit(f"perfbench: no program at {os.path.join(ROOT, 'src', 'qows')}")

    plan = dict(plans.make(args.workload, args.seed), root=ROOT)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="ascii") as fh:
            json.dump(plan, fh)
        result_path = os.path.join(work, "result.json")
        set_ups = [_child([plan_path, result_path, "setup"], SETUP_TIMEOUT_S)
                   for _ in range(SETUP_RUNS)]
        result = _child([plan_path, result_path, "run", str(args.seconds), str(args.trace)],
                        RUN_TIMEOUT_S)
    set_ups.append(result)
    setups = [setup_s(r) for r in set_ups]

    reps = result["reps"]
    attempted = sum(len(r["job_s"]) for r in reps)
    failures = [(n, i, msg) for n, r in enumerate(reps) for i, msg in r["failures"]]
    print(f"# perfbench workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    print(f"# env git {_git_sha()} src-sha256 {result['src_sha256'][:16]}"
          f" python {result['python']} numpy {result['numpy']} nproc {os.cpu_count()}"
          f" affinity {len(os.sched_getaffinity(0))}")
    for i, job in enumerate(plan["jobs"]):
        print(f"# job {i} {plans.describe(job)}")
    for n, i, msg in failures:
        print(f"FAILED repetition {n} job {i} ({plans.describe(plan['jobs'][i])}): {msg}")

    # Exact counts must repeat bit for bit across repetitions of one kind.
    correct = not failures
    print("exact counts per job list:")
    for traced in (False, True):
        digests = {_counts_digest(r["counts"]) for r in reps if r["traced"] == traced}
        if not digests:
            continue
        counts = next(r["counts"] for r in reps if r["traced"] == traced)
        kind = "traced" if traced else "untraced"
        for key in sorted(counts):
            print(f"  {kind} {key} {counts[key]}")
        print(f"  {kind} digest {' '.join(sorted(digests))}")
        if len(digests) > 1:
            print(f"FAILED exact counts differ across {kind} repetitions")
            correct = False

    untraced = [r for r in reps if not r["traced"]]
    walls = " ".join(f"{r['wall_s']:.4f}" for r in untraced)
    cal = [d for r in untraced for _, d in r["calibration"]]
    print(f"measured wall_s of each untraced repetition: {walls} s")
    print("measured setup_s of each interpreter: "
          + " ".join(f"{r['setup_s']:.4f}" for r in set_ups) + " s")
    print(f"calibration loop: median {statistics.median(cal) * 1e3:.4f} ms over {len(cal)} samples"
          f" (reference {CALIBRATION_REF_S * 1e3:g} ms)")

    units = declared_metrics()[args.trace]
    if args.trace:
        metrics, (busy, self_s, calls) = per_layer(result)
        print("spans of the first traced repetition: name calls busy_s self_s")
        for name in sorted(busy):
            print(f"  {name} {calls[name]} {busy[name]:.4f} {self_s[name]:.4f}")
        print(f"tracing overhead: traced {metrics['trace.wall_s']:.4f} s minus untraced"
              f" {metrics['trace.wall_s'] - metrics['trace.overhead_s']:.4f} s per job list"
              f" = {metrics['trace.overhead_s']:.4f} s (measured, not calibrated)")
        print(f"span self times cover {metrics['trace.span_share']:.4f} of traced wall_s")
        report = {k: (v, "") for k, v in metrics.items()}
    else:
        report = end_to_end(result, setups)
    if set(report) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(report) ^ set(units))}"
                         " disagree with BENCHMARK.json")
    # fail_ratio is 0 when all is well, so the JSON line carries it as
    # "failed" out of "attempted" rather than as a metric.
    print("metric value unit basis")
    for name, (value, basis) in report.items():
        print(f"  {name} {value:.6g} {units[name]} {basis}".rstrip())
    print(f"  fail_ratio {len(failures) / attempted:.6g} ratio {len(failures)}/{attempted} jobs")
    metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in report.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
