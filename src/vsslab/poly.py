"""Secret polynomials, exact evaluation, interpolation at zero
and in coefficient form. A row's evaluation at many points and its
interpolation in coefficient form are each one packed big-integer
product (Kronecker substitution). Their tables are cached here, bounded
(see the note above lagrange_weights), as tuples no caller can change."""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import VsslabError
from .numtheory import mod_inv
from .record import record
from .rng import SplitMix64


@record
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
            raise VsslabError("dealer id must be non-negative")
        if self.field_modulus < 2:
            raise VsslabError(f"field modulus must be at least 2, got {self.field_modulus}")
        if len(self.coeffs) < 1:
            raise VsslabError("polynomial needs at least one coefficient")
        for c in self.coeffs:
            if not 0 <= c < self.field_modulus:
                raise VsslabError(f"coefficient {c} outside [0, {self.field_modulus})")

    @property
    def secret(self) -> int:
        return self.coeffs[0]


def sample_polynomial(t: int, field_modulus: int, dealer: int, rng: SplitMix64) -> SecretPolynomial:
    """Uniform degree-(t-1) polynomial over Z_field_modulus.

    Each coefficient is drawn by rejection sampling, so the distribution
    is exactly uniform on [0, field_modulus).
    """
    return SecretPolynomial(
        dealer=dealer,
        coeffs=tuple(rng.randbelow(field_modulus) for _ in range(t)),
        field_modulus=field_modulus,
    )


def horner(coeffs, x: int) -> int:
    """sum_j coeffs[j] * x**j exactly, by Horner's rule, with no reduction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def check_abscissas(xs: tuple[int, ...], m: int) -> None:
    """Raise unless xs are distinct nonzero elements of Z_m."""
    if not xs:
        raise VsslabError("need at least one abscissa")
    seen = set()
    for x in xs:
        if x == 0:
            raise VsslabError("abscissa 0 would address the secret itself")
        if not 0 < x < m:
            raise VsslabError(f"abscissa {x} outside (0, {m})")
        if x in seen:
            raise VsslabError(f"abscissa {x} appears twice")
        seen.add(x)


# A table is a pure function of its key, so caching one never changes a
# result. The caches are sized from a run's traffic: every row is dealt,
# and a vulnerable row verified, at parties 1..n (one power table), every
# row is interpolated at the same first t parties (one basis), hardened
# rows are evaluated at the other n - t (a second power table), and
# reconstruction asks for at most n first-subset weight tables. A
# vulnerable pool whose first subset fails asks for one more basis at
# that subset and, in place of the hardened one, one more power table at
# the pool's other recipients, to test whether the pool lies on one
# polynomial; the subsets an inconsistent pool enumerates never recur
# and pass through. Worst case at t = n = MAX_PARTIES = 64 over a 96-bit
# field, measured with tracemalloc: 64 weight tables of 3.2 KB, 4 packed
# bases of 0.11 MB (198-bit slots) and 2 power tables of 0.26 MB
# (475-bit slots), about 1.2 MB in all.


def lagrange_weights(xs, m: int) -> tuple[int, ...]:
    """Lagrange weights at zero for the abscissas xs, mod m.

    weight_j = prod_{l != j} x_l * (x_l - x_j)^-1. For any polynomial of
    degree below len(xs), sum_j y_j * weight_j recovers its constant term;
    in particular the weights themselves always sum to 1 mod m.
    """
    return _lagrange_weights(tuple(xs), m)


@lru_cache(maxsize=64)
def _lagrange_weights(xs: tuple[int, ...], m: int) -> tuple[int, ...]:
    check_abscissas(xs, m)
    # weight_j = (total / x_j) / dens[j], with total the product of all x_l
    # and dens[j] = prod_{l != j} (x_l - x_j), both exact integers first.
    # Montgomery's batch inversion inverts all of dens with one mod_inv:
    # with prefix[j] = dens[0] * ... * dens[j-1], the walk back keeps
    # inv = 1 / (dens[0] * ... * dens[j]).
    total = math.prod(xs)
    dens = []
    for xj in xs:
        den = 1
        for xl in xs:
            if xl != xj:
                den *= xl - xj
        dens.append(den % m)
    prefix = [1]
    for den in dens:
        prefix.append(prefix[-1] * den % m)
    inv = mod_inv(prefix[-1], m)
    weights = [0] * len(xs)
    for j in reversed(range(len(xs))):
        weights[j] = total // xs[j] * inv * prefix[j] % m
        inv = inv * dens[j] % m
    return tuple(weights)


def lagrange_zero(points, m: int) -> int:
    """Interpolate (x, y) points and return the value at x = 0, mod m.

    With at least threshold-many honest points of a secret polynomial
    this is the secret; with any forged point it is whatever the forgery
    arithmetic says it is. No ceremony calls it (reconstruct_pool sums
    the weights itself); it stays public as the interpolation of
    acceptance criterion 1 and of scripts/worked_example.py.
    """
    points = tuple(points)
    for _, y in points:
        if not 0 <= y < m:
            raise VsslabError(f"ordinate {y} outside [0, {m})")
    weights = lagrange_weights((x for x, _ in points), m)
    return sum(y * w for (_, y), w in zip(points, weights)) % m


def lagrange_basis(xs, m: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient form of interpolation through the abscissas xs, mod m.

    Row j holds the weights of coefficient j: the polynomial of degree
    below len(xs) through the points (x_i, y_i) has coefficient j equal
    to sum_i y_i * basis[j][i] mod m. Column i is the Lagrange basis
    polynomial L_i, with L_i(x_i) = 1 and L_i(x_l) = 0 for l != i, and
    row 0 is lagrange_weights(xs, m). The rows are read out of the
    packed columns interpolate uses, the only form the basis is cached in.
    """
    w, columns = _packed_basis(tuple(xs), m)
    return tuple(zip(*(tuple(_unpack(column, w, len(columns))) for column in columns)))


def interpolate(xs, ys, m: int) -> tuple[int, ...]:
    """Coefficients, constant term first, of the polynomial of degree
    below len(xs) through the points (xs[i], ys[i] mod m), mod m.

    One big-integer product does the dot products of the ys with every
    row of lagrange_basis(xs, m) (Kronecker substitution): column i is
    packed as sum_j L_i[j] << (w * j), so slot j of
    sum_i (y_i mod m) * column_i is sum_i (y_i mod m) * L_i[j] exactly,
    and w is the bit length of the largest value that sum can take.
    """
    w, columns = _packed_basis(tuple(xs), m)
    packed = sum(map(mul, (y % m for y in ys), columns))
    return tuple(c % m for c in _unpack(packed, w, len(columns)))


def evaluate(coeffs, xs, m: int) -> tuple[int, ...]:
    """sum_j coeffs[j] * x**j exactly, with no reduction, at every x in xs,
    for coefficients in [0, m) and positive xs.

    One big-integer product evaluates the polynomial at all of xs
    (Kronecker substitution): with K_j = sum_i x_i**j << (w * i), slot i
    of sum_j coeffs[j] * K_j is the value at x_i, and w is the bit
    length of the largest value a slot can take (every coefficient
    m - 1, at the largest x). horner gives the same value at one point.
    """
    coeffs = tuple(coeffs)
    xs = tuple(xs)
    w, powers = _packed_powers(xs, len(coeffs), m)
    return tuple(_unpack(sum(map(mul, coeffs, powers)), w, len(xs)))


def _pack(values, w: int) -> int:
    """sum_i values[i] << (w * i), for values in [0, 2**w)."""
    packed = 0
    for v in reversed(values):
        packed = packed << w | v
    return packed


def _unpack(packed: int, w: int, count: int):
    """The lowest count slots of width w of packed, lowest first."""
    mask = (1 << w) - 1
    return (packed >> (w * i) & mask for i in range(count))


@lru_cache(maxsize=4)
def _packed_basis(xs: tuple[int, ...], m: int) -> tuple[int, tuple[int, ...]]:
    """(w, the columns L_i of lagrange_basis each packed at slot width w).

    Each L_i is prod_l (x - x_l) divided by (x - x_i) and scaled to 1 at
    x_i: O(len(xs)**2) work and one inverse per abscissa.
    """
    check_abscissas(xs, m)
    # prod_l (x - x_l), constant term first
    master = [1]
    for x in xs:
        # times (x - x_l): coefficient j becomes master[j-1] - x_l * master[j]
        master = [(prev - x * c) % m for prev, c in zip([0] + master, master + [0])]
    columns = []
    for xi in xs:
        # synthetic division of master by (x - xi), highest coefficient first
        quotient = [1]
        for c in reversed(master[1:-1]):
            quotient.append((c + xi * quotient[-1]) % m)
        quotient.reverse()
        scale = 1
        for xl in xs:
            if xl != xi:
                scale = scale * (xi - xl) % m
        scale = mod_inv(scale, m)
        columns.append([c * scale % m for c in quotient])
    # slot j of interpolate's product is largest when every y_i is m - 1
    w = ((m - 1) * max(map(sum, zip(*columns)))).bit_length()
    return w, tuple(_pack(column, w) for column in columns)


@lru_cache(maxsize=2)
def _packed_powers(xs: tuple[int, ...], t: int, m: int) -> tuple[int, tuple[int, ...]]:
    """(w, K_0..K_{t-1}) with K_j = sum_i xs[i]**j << (w * i), for evaluate."""
    # slot i of evaluate's product is largest when every coefficient is
    # m - 1, and largest of all at the largest x
    top = max(xs, default=0)
    w = ((m - 1) * sum(top**j for j in range(t))).bit_length()
    powers = []
    x_to_j = [1] * len(xs)
    for _ in range(t):
        powers.append(_pack(x_to_j, w))
        x_to_j = list(map(mul, x_to_j, xs))
    return w, tuple(powers)
