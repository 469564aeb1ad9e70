"""One workload in a fresh interpreter: set-up, then timed repetitions.

Run by run.py, never by hand:

    python3 perfbench/worker.py PLAN RESULT setup
    python3 perfbench/worker.py PLAN RESULT run SECONDS TRACE

`setup` imports the program, fills the order-4 enumeration cache, builds
the plan's squares and writes them as table files, then reports how long
that took, with calibration samples taken meanwhile. `run` does the same and then repeats the job list, each job one
`qows.cli.main(argv)` call, until SECONDS have passed. With TRACE=1 it
alternates untraced and traced repetitions. Untraced repetitions also time
a short fixed loop twenty times a second (see `Calibration`). Outputs are
checked after each repetition, outside the timed region. The result goes
to RESULT as JSON.
"""
import functools
import hashlib
import json
import os
import resource
import signal
import sys
import time

import pins
import reference
import tracing


def _build(plan, root, work):
    """The timed set-up, with calibration samples taken throughout.
    Returns (seconds, samples, details, qows, table paths)."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    clock = time.perf_counter
    with Calibration(enabled=True, period=SETUP_CALIBRATION_PERIOD_S) as calibration:
        t0 = clock()
        import qows
        import qows.cli
        from qows import core, io_formats

        if os.path.dirname(os.path.dirname(os.path.abspath(qows.__file__))) != src:
            raise SystemExit(f"qows was imported from {qows.__file__}, not {src}")
        spent, t = calibration.spent, clock()
        core.enumerate_order4()
        enumerate_s = clock() - t - (calibration.spent - spent)
        latin_s = 0.0
        latin_calls = 0
        paths = []
        for i, sq in enumerate(plan["squares"]):
            if sq["kind"] == "index":
                q = core.from_index(sq["k"])
            else:
                spent, t = calibration.spent, clock()
                q = core.random_latin(sq["order"], sq["seed"])
                latin_s += clock() - t - (calibration.spent - spent)
                latin_calls += 1
            path = os.path.join(work, f"q{i}.qg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(io_formats.serialize_quasigroup(q))
            paths.append(path)
        setup_s = clock() - t0 - calibration.spent
    details = {"enumerate_s": enumerate_s, "random_latin_s": latin_s,
               "random_latin_calls": latin_calls}
    return setup_s, calibration.samples, details, qows, paths


class Job:
    """A job's argv and the check of its output file. check() returns the
    exact counts read from the output, or raises ValueError."""

    def __init__(self, out, argv, check):
        self.out = out
        self.argv = argv
        self.check = check


def _jobs(plan, paths, work):
    tables = {}

    def table(i):
        if i not in tables:
            with open(paths[i], encoding="ascii") as fh:
                tables[i] = reference.parse_table(fh.read())
        return tables[i]

    def read(path):
        with open(path, encoding="ascii") as fh:
            return fh.read()

    census = None
    renders = None
    jobs = []
    for n_job, spec in enumerate(plan["jobs"]):
        out = os.path.join(work, f"out{n_job}")
        cmd = spec["cmd"]
        if cmd == "census":
            argv = ["census", "--out", out]

            def check(out=out):
                reference.check_census(read(out), pins.CENSUS_SHA256)
                return {}
        elif cmd == "classify":
            census = census or pins.census_entries()
            argv = ["classify", "--index", str(spec["k"]), "--out", out]

            def check(out=out, entry=census[spec["k"]]):
                reference.check_classify(read(out), entry)
                return {}
        elif cmd == "render":
            renders = renders or pins.render_digests()
            argv = ["render", "--index", str(spec["k"]),
                    "--leader", str(spec["leader"]), "--out", out]

            def check(out=out, want=renders[spec["k"]][spec["leader"]]):
                with open(out, "rb") as fh:
                    if pins.render_digest(fh.read()) != want:
                        raise ValueError("image differs from the pinned digest")
                return {}
        else:
            t = table(spec["square"])
            s, n = spec["order"], spec["n"]
            tokens = reference.parse_leader_tokens(spec.get("leaders", ""))
            if cmd == "attack-r1":
                image_of = functools.partial(reference.r1, t)
            elif cmd == "attack-r2":
                image_of = functools.partial(reference.r2, t)
            else:
                image_of = functools.partial(reference.r_n, t, tokens)
            qg = ["--quasigroup", paths[spec["square"]], "--out", out]
            if cmd == "histogram":
                argv = ["histogram", "--N", str(n), "--leaders", spec["leaders"]] + qg
                probes = [reference.pack(image_of(p), s) for p in spec["probes"]]

                def check(out=out, s=s, n=n, probes=probes):
                    return {"histogram_entries": reference.check_histogram(out, s, n, probes)}
            else:
                b = reference.format_string(image_of(spec["input"]), s)
                argv = ["invert", "--method", cmd, "--output", b] + qg
                if cmd == "brute":
                    argv += ["--leaders", spec["leaders"]]

                def check(out=out, s=s, image_of=image_of, planted=spec["input"]):
                    guesses, lookups, found = reference.check_preimages(
                        read(out), s, image_of, planted)
                    return {"guesses": guesses, "lookups": lookups, "preimages": found}
        jobs.append(Job(out, argv, check))
    return jobs


# Period of the calibration samples taken during untraced repetitions, and
# during set-up, which lasts only a fraction of a second.
CALIBRATION_PERIOD_S = 0.05
SETUP_CALIBRATION_PERIOD_S = 0.02


def calibration_loop():
    """Fixed pure-Python work: integer arithmetic and a small dict, about a
    millisecond. Timed every CALIBRATION_PERIOD_S while the jobs run, it
    gauges how fast the shared host runs this process at that moment."""
    d = {}
    x = 1
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFF
        d[x & 1023] = d.get(x & 1023, 0) + i
    return x


class Calibration:
    """Runs and times calibration_loop from a SIGALRM handler, so samples
    fall inside the jobs (between bytecodes of the main thread, or as soon
    as a numpy call returns). `spent` is the time the samples took, which
    the job times leave out. A disabled one takes no samples."""

    def __init__(self, enabled, period=CALIBRATION_PERIOD_S):
        self.enabled = enabled
        self.period = period
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t = time.perf_counter()
        calibration_loop()
        d = time.perf_counter() - t
        self.samples.append((t, d))
        self.spent += d

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _repetition(qows, jobs, tracer):
    """Run the job list once, then check every output. Timings cover the
    `cli.main` calls only. An untraced repetition takes calibration samples
    throughout; their time is left out of the job times and `wall_s`."""
    cli = qows.cli
    clock = time.perf_counter
    job_start, job_s, codes = [], [], []
    calibration = Calibration(enabled=tracer is None)
    if tracer is not None:
        tracer.install(qows)
    try:
        with calibration:
            t0 = clock()
            for i, job in enumerate(jobs):
                if tracer is not None:
                    tracer.job = i
                spent = calibration.spent
                t = clock()
                try:
                    code = cli.main(job.argv)
                except (Exception, SystemExit) as e:
                    code = f"{type(e).__name__}: {e}"
                job_s.append(clock() - t - (calibration.spent - spent))
                job_start.append(t)
                codes.append(code)
            wall_s = clock() - t0 - calibration.spent
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    counts = {}
    for i, (job, code) in enumerate(zip(jobs, codes)):
        try:
            if code != 0:
                raise ValueError(f"exit {code}")
            for key, value in job.check().items():
                counts[key] = counts.get(key, 0) + value
        except Exception as e:     # any malformed output is a failed job
            failures.append([i, f"{type(e).__name__}: {e}"])
        if os.path.exists(job.out):
            os.remove(job.out)
    rep = {"traced": tracer is not None, "wall_s": wall_s, "job_s": job_s,
           "job_start": job_start, "calibration": calibration.samples,
           "failures": failures, "counts": counts}
    if tracer is not None:
        counts.update(tracer.counts)
        rep["spans"] = tracer.spans
        rep["serialized_bytes"] = tracer.serialized_bytes
    return rep


def main(argv):
    plan_path, result_path, mode = argv[:3]
    with open(plan_path, encoding="ascii") as fh:
        plan = json.load(fh)
    work = os.path.dirname(plan_path)
    setup_s, setup_samples, details, qows, paths = _build(plan, plan["root"], work)
    result = {"setup_s": setup_s, "setup_calibration": setup_samples, **details}
    if mode == "run":
        seconds, trace = float(argv[3]), argv[4] == "1"
        import numpy

        jobs = _jobs(plan, paths, work)
        reps = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            reps.append(_repetition(qows, jobs, None))
            if trace:
                reps.append(_repetition(qows, jobs, tracing.Tracer()))
        result.update({
            "reps": reps,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "src_sha256": _tree_digest(os.path.join(plan["root"], "src", "qows")),
        })
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)


def _tree_digest(path):
    """SHA-256 over the program's .py files, to identify the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    main(sys.argv[1:])
