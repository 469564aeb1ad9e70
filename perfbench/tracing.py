"""Spans and counters recorded from outside the program.

A traced repetition rebinds the module attribute each caller looks up
(for example `qows.classification.permutation_search`) to a wrapper, and
restores the originals afterwards, so untraced repetitions run the program
unmodified. Coarse calls get spans; hot leaves get counters only, because a
span per `e_transform` call would cost more than the call.
"""
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, job]
        self.counts = Counter()     # exact: equal on every run of one job list
        self.serialized_bytes = 0   # not exact: attack records print elapsed-ms
        self.job = -1
        self._stack = []
        self._saved = []

    def _span(self, name, fn, account=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if account is not None:
                account(counts, args, result)
            return result
        return wrapper

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, qows):
        cli, classification = qows.cli, qows.classification
        transforms, inversion, io_formats = qows.transforms, qows.inversion, qows.io_formats
        counts = self.counts

        def span(module, attr, name, account=None):
            self._patch(module, attr, self._span(name, getattr(module, attr), account))

        def attack(prefix):
            def account(c, args, trace):
                c[prefix + ".guesses"] += trace.guesses
                c[prefix + ".lookups"] += trace.lookups
                c[prefix + ".preimages"] += len(trace.preimages)
            return account

        def witness(c, args, result):
            c["classification.witness.searches"] += 1
            c["classification.witness.hits"] += result is not None

        def serialized(c, args, text):
            self.serialized_bytes += len(text)

        def rendered(c, args, data):
            c["io_formats.render.pixels"] += args[3] * (args[4] + 1)

        span(cli, "main", "cli.main")
        span(classification, "census_order4", "classification.census")
        span(classification, "enumerate_order4", "core.enumerate_order4")
        span(classification, "permutation_search", "classification.witness", witness)
        span(classification, "classify", "classification.classify")
        span(classification, "period_profile", "classification.period_profile")
        span(inversion, "attack_r1", "inversion.attack_r1", attack("inversion.attack_r1"))
        span(inversion, "attack_r2", "inversion.attack_r2", attack("inversion.attack_r2"))
        span(inversion, "brute_preimages", "inversion.brute",
             lambda c, args, trace: c.update({"inversion.brute.tuples": trace.guesses}))
        span(inversion, "preimage_histogram", "inversion.histogram",
             lambda c, args, hist: c.update({"inversion.histogram.tuples": hist.domain_size}))
        for attr in ("parse_quasigroup", "parse_string", "parse_leaders"):
            span(io_formats, attr, "io_formats.parse")
        for attr in ("serialize_attack_trace", "serialize_histogram",
                     "serialize_census_report", "serialize_census_json"):
            span(io_formats, attr, "io_formats.serialize", serialized)
        span(io_formats, "render_iterations", "io_formats.render", rendered)

        e_transform = transforms.e_transform
        steps = [0, 0]      # calls, symbols

        def counted_e_transform(q, leader, a):
            steps[0] += 1
            steps[1] += len(a)
            return e_transform(q, leader, a)
        self._steps = steps
        self._patch(transforms, "e_transform", counted_e_transform)
        self._patch(classification, "e_transform", counted_e_transform)

        def counter(module, attr, name):
            fn = getattr(module, attr)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            self._patch(module, attr, counted)

        counter(classification, "r_n", "transforms.r_n.calls")
        counter(classification, "OwfSpec", "classification.witness.leader_strings")
        counter(inversion, "_r1_eval", "transforms.r1.calls")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self.counts["transforms.e_transform.calls"] += self._steps[0]
        self.counts["transforms.symbols_stepped"] += self._steps[1]


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
