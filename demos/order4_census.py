"""Census of all 576 order-4 quasigroups: fractal or not.

Two independent criteria are computed for every square. A permutation
witness (a leader string making the length-2 family member a bijection)
marks the square fractal; the period of iterated transformations of a
periodic motif growing linearly instead of exponentially marks the same
thing. The census checks they coincide everywhere and compares the
fractal list against the known 192-member class. The witness label is
constant on isomorphism classes, so the exhaustive witness search runs
once per class.
"""
import time

from qows import (census_order4, enumerate_order4, from_index, isomorphism_classes,
                  lex_index, serialize_census_report)


def main():
    t0 = time.perf_counter()
    report = census_order4()
    dt = time.perf_counter() - t0

    reps = set(isomorphism_classes(enumerate_order4()))
    witnessed = [r for r in reps if report.witnesses[r + 1] is not None]

    print(f"census of 576 squares in {dt:.1f} s")
    print(f"  isomorphism classes  {len(reps)}, with a witness {len(witnessed)}")
    print(f"  fractal      {len(report.fractal)}")
    print(f"  non-fractal  {len(report.non_fractal)}")
    print(f"  criteria disagreements  {len(report.disagreements)}")
    print(f"  diff vs known class: missing {len(report.published_missing)},",
          f"extra {len(report.published_extra)}")
    print()

    lines = serialize_census_report(report).splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    print("first entries (index, label, witness, period at k=32):")
    for ln in body[:6]:
        print("   ", ln)
    print("    ...")
    for ln in body[44:48]:
        print("   ", ln)
    print()

    q = from_index(46)
    print(f"squares {lex_index(q)} and 47 sit next to each other in the",
          "enumeration yet land on opposite sides; render both with")
    print("    qows render --index 46 --out fractal.ppm")
    print("    qows render --index 47 --out escalating.ppm")


if __name__ == "__main__":
    main()
