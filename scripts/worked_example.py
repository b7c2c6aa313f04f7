#!/usr/bin/env python3
"""Walk the smallest end-to-end forgery by hand, printing every number.

Group: p = 11, g = 2 (a primitive root, so ord(g) = 10).
Dealer polynomial: P(x) = 3 + 4x over Z_11, threshold 2.

Usage: python scripts/worked_example.py
"""

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.poly import evaluate, interpolate
from vsslab.registry import get_params
from vsslab.vss import commit, verify_share


def main() -> None:
    params = get_params("small11")
    poly = (3, 4)  # coefficients a_0, a_1 of P over Z_11

    print(f"group: p={params.p} g={params.g} ord(g)={params.d}")
    print(f"dealer polynomial: P(x) = {poly[0]} + {poly[1]}x, secret a0 = {poly[0]}")

    commits = commit(poly, params)
    print(f"public commitments g^a_j: {commits.c}")

    at_1, honest = evaluate(poly, (1, 2), 11)
    print(f"\nhonest share for party 2: P(2) = {honest}")
    print(f"  verification: {verify_share(2, honest, commits, params)}")

    strategy = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, multiplier=1)
    forged = honest + strategy.shift(params)
    print(f"\nforged share for party 2: P(2) + (p-1) = {forged}")
    print(f"  verification: {verify_share(2, forged, commits, params)}  <- passes, same exponent class")
    print(f"  but {forged} mod p = {forged % 11}, while the honest value is {honest % 11}")

    points = [(1, at_1 % 11), (2, forged % 11)]
    xs, ys = zip(*points)
    recovered = interpolate(xs, ys, 11)[0]
    print(f"\nreconstruction from {{(1, {points[0][1]}), (2, {points[1][1]})}}: {recovered}")
    print(f"  true secret: {poly[0]}, recovered: {recovered}  <- corrupted")

    check = pow(params.g, recovered, params.p)
    print(f"\ncommitment check: g^{recovered} = {check} vs c_0 = {commits.c[0]}")
    if check == commits.c[0]:
        print("  check passed; corruption would go unnoticed")
    else:
        print("  check failed; the group notices, but only after the dealer withheld")

    # verify_row's row check in coefficient form: b_0 is the value above,
    # and the unit vectors interpolate to the basis polynomials, one per column
    basis = tuple(zip(*(interpolate(xs, unit, 11) for unit in ((1, 0), (0, 1)))))
    b = interpolate(xs, ys, 11)
    print(f"\nrow check: basis rows {basis} give coefficients b = {b}")
    print(f"  g^b_j = {tuple(pow(params.g, b_j, params.p) for b_j in b)} vs commitments {commits.c}")
    print("  no match, so each share is checked alone, and each passes")


if __name__ == "__main__":
    main()
