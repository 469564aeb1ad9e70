"""Lookup-table attacks against the reverse-leader functions.

Brute force costs s^N. The single-reverse function falls to a grid attack
whose guess counter stays near s^(N/3); the double-reverse variant resists
the same idea and degrades to full enumeration. The gap is visible at N=9
already.
"""
import time

from qows import OwfSpec, Quasigroup, attack_r1, attack_r2, brute_preimages, r1, r2

TABLE = [
    [2, 1, 0, 3],
    [3, 0, 1, 2],
    [1, 2, 3, 0],
    [0, 3, 2, 1],
]


def show(tag, trace):
    print(f"  {tag}: {len(trace.preimages)} preimage(s),",
          f"{trace.guesses} guesses, {trace.lookups} lookups,",
          f"{trace.elapsed * 1000:.1f} ms")
    for p in trace.preimages:
        print("     ", "".join(map(str, p)))


def main():
    q = Quasigroup(TABLE)

    a = (0, 1, 2, 1, 0, 3, 1, 2, 2)
    n = len(a)
    print(f"secret input A = {''.join(map(str, a))}  (N = {n})")
    print()

    b = r1(q, a)
    print("single reverse, B =", "".join(map(str, b)))
    show("grid attack", attack_r1(q, b))

    b2 = r2(q, a)
    print()
    print("double reverse, B =", "".join(map(str, b2)))
    show("column sweep", attack_r2(q, b2))

    print()
    print("brute force on the same output for comparison:")
    t0 = time.perf_counter()
    trace = brute_preimages(OwfSpec(q, n, ()), b2)
    print(f"  {trace.guesses} candidates tried",
          f"(= 4^{n}), {time.perf_counter() - t0:.2f} s")

    print()
    print("guess counters across lengths (single vs double reverse):")
    for m in (3, 6, 9):
        s = a[:m]
        g1 = attack_r1(q, r1(q, s)).guesses
        g2 = attack_r2(q, r2(q, s)).guesses
        print(f"  N={m:2d}  grid {g1:6d}   scan {g2:8d}   4^N {4**m:8d}")


if __name__ == "__main__":
    main()
