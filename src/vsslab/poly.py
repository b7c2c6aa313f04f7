"""Secret polynomials, exact and modular evaluation, interpolation at zero."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DuplicateAbscissa, ModulusTooSmall, ZeroAbscissa
from .numtheory import is_prime, mod_inv
from .rng import SplitMix64


@dataclass(frozen=True)
class SecretPolynomial:
    """Dealer's polynomial; coeffs[0] is the secret being shared.

    Coefficients are canonical field elements below field_modulus
    (p for a vulnerable group, q for a hardened one).
    """

    dealer: int
    coeffs: tuple[int, ...]
    field_modulus: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.dealer < 0:
            raise ValueError("dealer id must be non-negative")
        if self.field_modulus < 2:
            raise ModulusTooSmall(f"field modulus must be at least 2, got {self.field_modulus}")
        if len(self.coeffs) < 1:
            raise ValueError("polynomial needs at least one coefficient")
        for c in self.coeffs:
            if not 0 <= c < self.field_modulus:
                raise ValueError(f"coefficient {c} outside [0, {self.field_modulus})")

    @property
    def secret(self) -> int:
        return self.coeffs[0]

    @property
    def threshold(self) -> int:
        """Number of evaluations needed to pin the polynomial down."""
        return len(self.coeffs)


def sample_polynomial(t: int, field_modulus: int, dealer: int, rng: SplitMix64) -> SecretPolynomial:
    """Uniform degree-(t-1) polynomial over Z_field_modulus.

    Each coefficient is drawn by rejection sampling, so the distribution
    is exactly uniform on [0, field_modulus).
    """
    if t < 1:
        raise ValueError(f"need at least one coefficient, got t={t}")
    if not is_prime(field_modulus):
        raise ValueError(f"field modulus {field_modulus} must be prime")
    return SecretPolynomial(
        dealer=dealer,
        coeffs=tuple(rng.randbelow(field_modulus) for _ in range(t)),
        field_modulus=field_modulus,
    )


def eval_integer(poly: SecretPolynomial, k: int) -> int:
    """Exact integer value of the polynomial at k; no reduction anywhere.

    Horner evaluation over unbounded ints. This is what a vulnerable-mode
    dealer actually transmits: the true value, not a residue.
    """
    if k < 1:
        raise ValueError(f"evaluation point must be positive, got {k}")
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * k + c
    return acc


def eval_mod(poly: SecretPolynomial, k: int, m: int) -> int:
    """Polynomial value at k reduced mod m (equals eval_integer(poly, k) % m)."""
    if m < 2:
        raise ModulusTooSmall(f"modulus must be at least 2, got {m}")
    if k < 1:
        raise ValueError(f"evaluation point must be positive, got {k}")
    acc = 0
    for c in reversed(poly.coeffs):
        acc = (acc * k + c) % m
    return acc


def _checked_abscissas(xs, m: int) -> tuple[int, ...]:
    xs = tuple(xs)
    if not xs:
        raise ValueError("need at least one abscissa")
    seen = set()
    for x in xs:
        if x == 0:
            raise ZeroAbscissa("abscissa 0 would address the secret itself")
        if not 0 < x < m:
            raise ValueError(f"abscissa {x} outside (0, {m})")
        if x in seen:
            raise DuplicateAbscissa(f"abscissa {x} appears twice")
        seen.add(x)
    return xs


def lagrange_weights(xs, m: int) -> tuple[int, ...]:
    """Lagrange weights at zero for the abscissas xs, mod m.

    weight_j = prod_{l != j} x_l * (x_l - x_j)^-1. For any polynomial of
    degree below len(xs), sum_j y_j * weight_j recovers its constant term;
    in particular the weights themselves always sum to 1 mod m.
    """
    xs = _checked_abscissas(xs, m)
    weights = []
    for j, xj in enumerate(xs):
        num = 1
        den = 1
        for l, xl in enumerate(xs):
            if l == j:
                continue
            num = num * xl % m
            den = den * (xl - xj) % m
        weights.append(num * mod_inv(den, m) % m)
    return tuple(weights)


def lagrange_zero(points, m: int) -> int:
    """Interpolate (x, y) points and return the value at x = 0, mod m.

    With at least threshold-many honest points of a secret polynomial
    this is the secret; with any forged point it is whatever the forgery
    arithmetic says it is.
    """
    points = tuple(points)
    if not points:
        raise ValueError("need at least one point")
    for _, y in points:
        if not 0 <= y < m:
            raise ValueError(f"ordinate {y} outside [0, {m})")
    weights = lagrange_weights((x for x, _ in points), m)
    return sum(y * w for (_, y), w in zip(points, weights)) % m


def subset_zeros(points, t: int, m: int):
    """lagrange_zero of every t-subset of points, in itertools.combinations order.

    Interpolation is linear in the ordinates, so no subset is
    interpolated on its own. Let Q be the polynomial through the first t
    points and e_k = y_k - Q(x_k) the residual of point k (zero for
    those first t). A t-subset S then lands on

        Q(0) + sum of e_j * w_j(S) over the j in S with e_j != 0,

    where w_j(S) is the product, over the other l in S, of
    ratio[j][l] = x_l * (x_l - x_j)^-1, its Lagrange weight in S. That
    table is built once, for the off-Q rows only, so no subset pays an
    inverse, and a pool that lies on one polynomial (every e_k zero)
    yields Q(0) for every subset without any field arithmetic.
    """
    points = tuple(points)
    if not 1 <= t <= len(points):
        raise ValueError(f"need 1 <= t <= {len(points)} points, got t={t}")
    xs = _checked_abscissas((x for x, _ in points), m)
    for _, y in points:
        if not 0 <= y < m:
            raise ValueError(f"ordinate {y} outside [0, {m})")
    base = points[:t]
    q0 = lagrange_zero(base, m)
    # Q(x_k) is the value at zero of Q shifted by x_k
    residuals = [0] * t + [
        (yk - lagrange_zero((((x - xk) % m, y) for x, y in base), m)) % m
        for xk, yk in points[t:]
    ]
    # ratio[j][j] = 1 lets the weight run over the whole subset
    ratio = {
        j: [xl * mod_inv(xl - xj, m) % m if l != j else 1 for l, xl in enumerate(xs)]
        for j, xj in enumerate(xs) if residuals[j]
    }
    for subset in itertools.combinations(range(len(points)), t):
        value = q0
        for j in subset:
            if residuals[j]:
                row = ratio[j]
                value += residuals[j] * math.prod(row[l] for l in subset)
        yield value % m
