"""The three candidate one-way functions and what their graphs look like.

r1 transforms with the reversed input as leaders, r2 does that twice, and
r_n prepends a fixed leader string whose tokens may also index into the
input. For N=2 the full 16-point graph fits on a screen, so print it and
the preimage histogram that decides permutation vs many-to-one.
"""
from qows import (
    Const,
    Index,
    OwfSpec,
    Quasigroup,
    pack_string,
    preimage_histogram,
    r1,
    r2,
    r_n,
    unpack_string,
)

TABLE = [
    [2, 1, 0, 3],
    [3, 0, 1, 2],
    [1, 2, 3, 0],
    [0, 3, 2, 1],
]


def show_map(title, fn):
    print(title)
    for value in range(16):
        a = unpack_string(value, 4, 2)
        b = fn(a)
        print(f"    {value:2d} {a} -> {b} = {pack_string(b, 4)}")
    print()


def main():
    q = Quasigroup(TABLE)

    a = (0, 1, 2, 1, 0)
    print("input          ", a)
    print("single reverse ", r1(q, a))
    print("double reverse ", r2(q, a))
    print()

    left = OwfSpec(q, 2, (Const(3), Const(3), Index(1), Index(0)))
    right = OwfSpec(q, 2, (Const(3), Const(3), Index(0), Index(1)))

    show_map("leaders 3,3,a1,a0 (a permutation):",
             lambda s: r_n(left, s))
    show_map("leaders 3,3,a0,a1 (2-to-1, half the range unreachable):",
             lambda s: r_n(right, s))

    for name, spec in (("3,3,a1,a0", left), ("3,3,a0,a1", right)):
        h = preimage_histogram(spec)
        permutation, regular, top = h.flags()
        kind = ("permutation" if permutation
                else f"{top}-regular" if regular
                else "irregular")
        print(f"histogram for {name}: {kind},",
              f"{int((h.counts > 0).sum())} of {h.domain_size} values hit")


if __name__ == "__main__":
    main()
