"""Discrete-log commitments to polynomial coefficients and share verification.

The core identity: for commitments c_j = g**a_j mod p and a share value v
claimed to be P(k), verification accepts exactly when

    g**v == prod_j c_j ** (k**j)  (mod p)

g generates a cyclic group whose order d divides p - 1, so the share
exponent only matters mod d. Verification reduces it (sound, and keeps
huge honest integer shares cheap), which is why a value congruent to
P(k) mod d passes even though it is a different field element. That gap
is the whole vulnerability; the hardened mode closes it by forcing every
value below a prime order q. verify_share decides one share, and
verify_row a dealer's whole row with the same verdicts.
"""

import math

from .errors import TooLarge, VsslabError
from .numtheory import GroupParams
from .poly import evaluate, interpolate
from .record import record


@record
class CommitmentVector:
    """Public commitments c_j = g**a_j mod p, one per coefficient, that a
    dealer broadcasts for its row of shares; commitments[d - 1] is
    dealer d's."""

    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.c) < 1:
            raise VsslabError("commitment vector cannot be empty")


def check_values(values) -> tuple[int, ...]:
    """values as a tuple; VsslabError if one is negative. A share value is
    an exact P(k), maybe shifted, or its residue below q: never below 0."""
    values = tuple(values)
    if values and min(values) < 0:
        raise VsslabError("share values are non-negative")
    return values


def commit(coeffs, params: GroupParams) -> CommitmentVector:
    """Commit to every coefficient, constant term first, of a polynomial
    (poly.sample_polynomial) under params.

    This is the one check that the coefficients lie in the mode's field
    (Z_p for vulnerable, Z_q for hardened): one outside
    [0, params.field_modulus) raises VsslabError, and no coefficient
    at all leaves CommitmentVector's empty-vector refusal.
    """
    coeffs = tuple(coeffs)
    m = params.field_modulus
    if coeffs and (min(coeffs) < 0 or max(coeffs) >= m):
        raise VsslabError(f"coefficients {coeffs} do not all lie in Z_{m} "
                          f"of {params.mode.value} parameters")
    return CommitmentVector(params.g_pows(coeffs))


def verify_share(k: int, value: int, commits: CommitmentVector, params: GroupParams) -> bool:
    """Check g**value against the commitment product at party k's point.

    The left side is GroupParams.g_pow, which reduces the exponent mod
    d = ord(g) and so never changes g**value. The right side
    prod_j c_j**(k**j) is evaluated by Horner's rule in the exponent,
    with k as the only exponent, and is exact for any entries mod p,
    inside the subgroup of g or not. For commitments to a polynomial P,
    acceptance is therefore exactly the congruence value == P(k) (mod d).
    """
    check_values((value,))
    if not 0 < k < params.p:
        raise VsslabError(f"evaluation point {k} outside (0, p)")
    right = 1
    for c_j in reversed(commits.c):
        right = pow(right, k, params.p) * c_j % params.p
    return params.g_pow(value) == right


def commitment_in_group(commits: CommitmentVector, params: GroupParams) -> bool:
    """True when every entry lies in the order-d subgroup (c**d == 1 mod p)."""
    return all(pow(c_j, params.d, params.p) == 1 for c_j in commits.c)


def verify_row(values, commits: CommitmentVector, params: GroupParams) -> tuple[bool, ...]:
    """Acceptance of each value of one dealer's row, in order: values[k - 1]
    went to party k.

    With t = len(commits.c), a row shorter than t, a negative value
    (check_values) or a row that reaches the interpolation field's
    modulus (party ids are its nonzero elements) raises VsslabError, the
    last in poly.check_abscissas' words.

    Every entry equals the per-share verdict: commitment_in_group, then
    value < q, then verify_share in hardened mode; verify_share alone
    in vulnerable mode. The row check interpolates Q = sum_j b_j x**j
    over the field through the first t values and tests g**b_j == c_j
    for every j: one row of t powers of g (GroupParams.g_pows), which an
    honest row finds in the cache commit filled. When all t hold,
    prod_j c_j**(k**j) is g**Q(k), so a value passes verify_share
    exactly when it is Q(k) mod d, and commitment_in_group holds: the
    interpolation only proposes the b_j, the t commitment checks decide.
    Q is then evaluated at every party in the form its mode deals, by
    one poly.evaluate call whose row an honest dealing has cached. In
    hardened mode that is Q(k) mod q, and d = q, so a value passes
    exactly when it equals Q(k) mod q; in vulnerable mode it is Q(k)
    exactly, which an honest value equals and a passing one meets mod d.
    A row whose b_j miss its commitments (a forger's row) is checked
    share by share instead.
    """
    values = check_values(values)
    t = len(commits.c)
    if len(values) < t:
        raise VsslabError(f"a row of {len(values)} shares is shorter than the threshold {t}")
    m = params.field_modulus
    # the parties 1..len(values) are distinct and nonzero, so only the
    # last can reach the field's modulus
    if len(values) >= m:
        raise VsslabError(f"abscissa {len(values)} outside (0, {m})")
    q, d = params.q, params.d
    hardened = q is not None
    xs = range(1, len(values) + 1)
    b = interpolate(xs[:t], values[:t], m)
    if params.g_pows(b) == commits.c:
        return tuple(v == e or not hardened and (v - e) % d == 0
                     for v, e in zip(values, evaluate(b, xs, m, hardened)))
    in_group = not hardened or commitment_in_group(commits, params)
    return tuple(in_group and (not hardened or v < q) and verify_share(k, v, commits, params)
                 for k, v in zip(xs, values))


def aggregate_public_key(all_commits, params: GroupParams) -> int:
    """Product of the constant-term commitments: the group public key.

    Equals g ** (sum of dealer secrets) mod p, and is available to every
    party before any secret is reconstructed.
    """
    all_commits = tuple(all_commits)
    if not all_commits:
        raise VsslabError("no commitment vectors supplied")
    out = 1
    for cv in all_commits:
        out = out * cv.c[0] % params.p
    return out


# ---------------------------------------------------------------------------
# unreduced integer commitments (the storage-blowup mitigation, demo only)
# ---------------------------------------------------------------------------

# A single commitment may occupy at most 2**20 bits (128 KiB) before we
# refuse to build it. Hitting this guard is the point of the demo: the
# mitigation of committing to g**a without reduction is not storable at
# cryptographic sizes.
INTEGER_COMMITMENT_GUARD_BITS = 1 << 20

# Representative exponent magnitude for a 1024-bit prime field.
PROJECTION_EXPONENT_LOG2 = 1024


def projected_bit_length(g: int, a: int) -> int:
    """floor(a * log2(g)) + 1, the bit length g**a would have.

    The float log is taken as its exact ratio num/den and the floor is
    the integer division num * a // den, so for g a power of two (log2
    exact) the result is exact: bitlen(2**a) == a + 1.
    """
    if g < 2 or a < 0:
        raise VsslabError("need g >= 2 and a >= 0")
    num, den = math.log2(g).as_integer_ratio()
    return num * a // den + 1


def commit_integer(exponents, g: int) -> tuple[int, ...]:
    """Commitments g**a as exact unbounded integers, one per exponent.

    Refuses negative exponents, and (TooLarge) any exponent whose
    projected_bit_length exceeds the 2**20-bit guard. An exponent of the
    2**PROJECTION_EXPONENT_LOG2 scale of a 1024-bit prime field always
    breaks the guard, so its size is only ever given by
    projected_bit_length.
    """
    if g < 2:
        raise VsslabError(f"generator must be at least 2, got {g}")
    exponents = tuple(exponents)
    for a in exponents:
        if a < 0:
            raise VsslabError(f"exponent {a} is negative")
        bits = projected_bit_length(g, a)
        if bits > INTEGER_COMMITMENT_GUARD_BITS:
            raise TooLarge(
                f"unreduced commitment for exponent {a} would need about "
                f"{bits} bits, over the {INTEGER_COMMITMENT_GUARD_BITS}-bit guard"
            )
    return tuple(g ** a for a in exponents)
