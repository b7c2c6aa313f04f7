"""Discrete-log commitments to polynomial coefficients and share verification.

The core identity: for commitments c_j = g**a_j mod p and a share value v
claimed to be P(k), verification accepts exactly when

    g**v == prod_j c_j ** (k**j)  (mod p)

g generates a cyclic group whose order d divides p - 1, so the share
exponent only matters mod d. Verification reduces it (sound, and keeps
huge honest integer shares cheap), which is why a value congruent to
P(k) mod d passes even though it is a different field element. That gap
is the whole vulnerability; the hardened mode closes it by forcing every
value below a prime order q.

The right side is evaluated by Horner's rule in the exponent,
((c_{t-1}**k * c_{t-2})**k ... )**k * c_0, so every exponent is a party
id and k**j is never formed. That is an identity in any commutative
group: it is the true product for every vector, in the subgroup or not.

verify_row decides a whole dealer's row with one row check: it
interpolates coefficients b_j from the first t shares and tests
g**b_j == c_j for each j, t powers of g from the group's table
(GroupParams.g_pow). When all hold, a share passes exactly when
value == Q(k) (mod d) for Q = sum_j b_j x**j, and every c_j is in the
subgroup. The interpolation, and the exact Q(k) at every share still
to be decided, are one packed big-integer product each
(poly.interpolate, poly.evaluate), not a loop per share. In hardened
mode the field modulus is d itself, so the t shares Q was
interpolated through satisfy that congruence by construction: only
the other shares are evaluated, and every share still takes its
range check. Only a row that fails the row check, a forger's, falls
back to verify_share one share at a time, so every verdict is the
per-share verdict. A row shorter than t cannot fix a polynomial, and
one whose recipients repeat or leave (0, field modulus) is no
polynomial's shares; verify_row refuses both with VsslabError, as
reconstruct_pool refuses such a pool.
"""

from __future__ import annotations

import math

from .errors import TooLarge, VsslabError
from .numtheory import GroupParams, Mode
from .poly import SecretPolynomial, check_abscissas, evaluate, interpolate
from .record import record


@record
class CommitmentVector:
    """Public commitments c_j = g**a_j mod p, one per coefficient. The dealer
    rule: a share is checked only against its own dealer's commitments, and
    check_dealer enforces it for every check that reads a share."""

    dealer: int
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.c) < 1:
            raise VsslabError("commitment vector cannot be empty")

    def check_dealer(self, shares) -> tuple[Share, ...]:
        """shares as a tuple; VsslabError if another dealer dealt one of them."""
        shares = tuple(shares)
        for s in shares:
            if s.dealer != self.dealer:
                raise VsslabError(
                    f"share from dealer {s.dealer} checked against commitments of {self.dealer}"
                )
        return shares


@record
class Share:
    """One dealt share.

    value is unbounded in vulnerable mode (the dealer sends the exact
    integer P(k)) and lies below q in hardened mode. Which shares a
    ceremony forged, and how, is in its ScenarioReport.forgery_attempts.
    """

    dealer: int
    recipient: int
    value: int

    def __post_init__(self):
        if self.recipient < 1:
            raise VsslabError("recipient ids start at 1")
        if self.value < 0:
            raise VsslabError("share values are non-negative")


def commit(poly: SecretPolynomial, params: GroupParams) -> CommitmentVector:
    """Commit to every coefficient of poly under params.

    Raises VsslabError when the polynomial's field does not match the
    mode (coefficients must be in Z_p for vulnerable, Z_q for hardened).
    """
    if poly.field_modulus != params.field_modulus:
        raise VsslabError(
            f"polynomial over Z_{poly.field_modulus} does not fit "
            f"{params.mode.value} parameters (expected Z_{params.field_modulus})"
        )
    return CommitmentVector(
        dealer=poly.dealer,
        c=tuple(params.g_pow(a) for a in poly.coeffs),
    )


def verify_share(share: Share, commits: CommitmentVector, params: GroupParams) -> bool:
    """Check g**value against the commitment product at the share's point.

    The left side is GroupParams.g_pow, which reduces the exponent mod
    d = ord(g) and so never changes g**value. The right side
    prod_j c_j**(k**j) is evaluated by Horner's rule in the exponent,
    with k as the only exponent, and is exact for any entries mod p,
    inside the subgroup of g or not. For commitments to a polynomial P,
    acceptance is therefore exactly the congruence value == P(k) (mod d).
    """
    commits.check_dealer((share,))
    k = share.recipient
    if not 0 < k < params.p:
        raise VsslabError(f"evaluation point {k} outside (0, p)")
    left = params.g_pow(share.value)
    right = 1
    for c_j in reversed(commits.c):
        right = pow(right, k, params.p) * c_j % params.p
    return left == right


def range_check(share: Share, params: GroupParams) -> bool:
    """Hardened-mode acceptance of the share's numeric range (value < q).

    Raises VsslabError on vulnerable parameters: exact integer shares are
    unbounded there, so no range test exists.
    """
    if params.mode is not Mode.HARDENED:
        raise VsslabError("range check only exists in hardened mode")
    return share.value < params.q


def commitment_in_group(commits: CommitmentVector, params: GroupParams) -> bool:
    """True when every entry lies in the order-d subgroup (c**d == 1 mod p)."""
    return all(pow(c_j, params.d, params.p) == 1 for c_j in commits.c)


def verify_row(shares, commits: CommitmentVector, params: GroupParams) -> tuple[bool, ...]:
    """Acceptance of each of one dealer's shares, in order.

    With t = len(commits.c), a row of fewer than t shares raises
    VsslabError, and so does one whose recipients repeat or fall outside
    (0, field_modulus), with the message reconstruct_pool gives for such
    a pool (poly.check_abscissas).

    Every entry equals the per-share verdict: commitment_in_group, then
    range_check, then verify_share in hardened mode; verify_share alone
    in vulnerable mode. The row check interpolates b_0..b_{t-1} over the
    field from the first t shares and tests g**b_j == c_j for every j:
    t powers of g from the group's table (GroupParams.g_pow) per row
    instead of about one full power per share. When all t hold,
    prod_j c_j**(k**j) is g**Q(k) for Q = sum_j b_j x**j, so a share
    passes verify_share exactly when value == Q(k) (mod d), and
    commitment_in_group holds because every c_j is a power of g. The
    interpolation only proposes the b_j; the t commitment checks decide.
    Q(x_i) == value_i (mod field_modulus) for the first t shares, so
    when field_modulus == d (hardened mode) their congruence holds by
    construction and Q is evaluated only at the others; in vulnerable
    mode it is evaluated at every share. Those exact values come from
    one poly.evaluate call. range_check still runs on every share. A
    row whose b_j misses its commitment (a forger's row) is checked
    share by share instead. The b_j come from poly.interpolate, whose
    basis cache lets rows at one abscissa set share it; evaluate's
    power table is shared the same way by rows with one set of
    recipients.
    """
    shares = commits.check_dealer(shares)
    t = len(commits.c)
    if len(shares) < t:
        raise VsslabError(f"a row of {len(shares)} shares is shorter than the threshold {t}")
    m = params.field_modulus
    xs = tuple(s.recipient for s in shares)
    check_abscissas(xs, m)
    hardened = params.mode is Mode.HARDENED
    b = interpolate(xs[:t], (s.value for s in shares[:t]), m)
    if all(params.g_pow(b_j) == c_j for b_j, c_j in zip(b, commits.c)):
        # Q passes through the first t values mod m, so when m == d their
        # congruence holds already; Q(k) exactly, reduced once, for the rest
        on_q = t if m == params.d else 0
        agree = (True,) * on_q + tuple((s.value - q_k) % params.d == 0 for s, q_k in
                                       zip(shares[on_q:], evaluate(b, xs[on_q:], m)))
        return tuple((not hardened or range_check(s, params)) and ok
                     for s, ok in zip(shares, agree))
    in_group = not hardened or commitment_in_group(commits, params)
    return tuple(
        in_group and (not hardened or range_check(s, params)) and verify_share(s, commits, params)
        for s in shares
    )


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

    Refuses negative exponents, and (TooLarge) any exponent where
    a * bitlen(g) exceeds the 2**20-bit guard. An exponent of the
    2**PROJECTION_EXPONENT_LOG2 scale of a 1024-bit prime field always
    breaks the guard, so its size is only ever given by
    projected_bit_length.
    """
    if g < 2:
        raise VsslabError(f"generator must be at least 2, got {g}")
    exponents = tuple(exponents)
    g_bits = g.bit_length()
    for a in exponents:
        if a < 0:
            raise VsslabError(f"exponent {a} is negative")
        if a * g_bits > INTEGER_COMMITMENT_GUARD_BITS:
            raise TooLarge(
                f"unreduced commitment for exponent {a} would need about "
                f"{a * (g_bits - 1)} bits, over the {INTEGER_COMMITMENT_GUARD_BITS}-bit guard"
            )
    return tuple(g ** a for a in exponents)
