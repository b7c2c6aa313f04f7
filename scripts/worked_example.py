#!/usr/bin/env python3
"""Walk the smallest end-to-end forgery by hand, printing every number.

Group: p = 11, g = 2 (a primitive root, so ord(g) = 10).
Dealer polynomial: P(x) = 3 + 4x over Z_11, threshold 2.

Usage: python scripts/worked_example.py
"""

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.poly import SecretPolynomial, horner, lagrange_basis, lagrange_zero
from vsslab.registry import get_params
from vsslab.vss import Share, commit, verify_share


def main() -> None:
    params = get_params("small11")
    poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)

    print(f"group: p={params.p} g={params.g} ord(g)={params.d}")
    print(f"dealer polynomial: P(x) = {poly.coeffs[0]} + {poly.coeffs[1]}x, secret a0 = {poly.secret}")

    commits = commit(poly, params)
    print(f"public commitments g^a_j: {commits.c}")

    honest = Share(dealer=1, recipient=2, value=horner(poly.coeffs, 2))
    print(f"\nhonest share for party 2: P(2) = {honest.value}")
    print(f"  verification: {verify_share(honest, commits, params)}")

    strategy = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, multiplier=1)
    forged = Share(dealer=1, recipient=2, value=honest.value + strategy.shift(params))
    print(f"\nforged share for party 2: P(2) + (p-1) = {forged.value}")
    print(f"  verification: {verify_share(forged, commits, params)}  <- passes, same exponent class")
    print(f"  but {forged.value} mod p = {forged.value % 11}, while the honest value is {honest.value % 11}")

    points = [(1, horner(poly.coeffs, 1) % 11), (2, forged.value % 11)]
    recovered = lagrange_zero(points, 11)
    print(f"\nreconstruction from {{(1, {points[0][1]}), (2, {points[1][1]})}}: {recovered}")
    print(f"  true secret: {poly.secret}, recovered: {recovered}  <- corrupted")

    check = pow(params.g, recovered, params.p)
    print(f"\ncommitment check: g^{recovered} = {check} vs c_0 = {commits.c[0]}")
    if check == commits.c[0]:
        print("  check passed; corruption would go unnoticed")
    else:
        print("  check failed; the group notices, but only after the dealer withheld")

    # verify_row's row check in coefficient form: b_0 is the value above
    basis = lagrange_basis([x for x, _ in points], 11)
    b = tuple(sum(y * w for (_, y), w in zip(points, row)) % 11 for row in basis)
    print(f"\nrow check: basis rows {basis} give coefficients b = {b}")
    print(f"  g^b_j = {tuple(pow(params.g, b_j, params.p) for b_j in b)} vs commitments {commits.c}")
    print("  no match, so each share is checked alone, and each passes")


if __name__ == "__main__":
    main()
