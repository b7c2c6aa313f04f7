"""Polynomial sampling, evaluation (exact or in the field), Lagrange
weights at zero and interpolation in coefficient form. A polynomial is
the tuple of its coefficients, constant term (a dealer's secret) first.
A row's evaluation at many points and its interpolation are each one
packed big-integer product (Kronecker substitution). Their tables, and
rows, are cached here, bounded (see the note above lagrange_weights),
as tuples no caller can change."""

import math
from _operator import mul

from .errors import VsslabError
from .numtheory import MAX_PARTIES, mod_inv
from .record import lru_cache
from .rng import SplitMix64


def sample_polynomial(t: int, field_modulus: int, rng: SplitMix64) -> tuple[int, ...]:
    """Coefficients, constant term first, of a uniform degree-(t-1)
    polynomial over Z_field_modulus; its constant term is the secret.

    Each coefficient is drawn by rejection sampling, so the distribution
    is exactly uniform on [0, field_modulus); the t draws are one
    SplitMix64.randbelows call, which gives the values t randbelow calls
    would and leaves rng where they would. vss.commit is the check that
    coefficients lie in the field.
    """
    return rng.randbelows(field_modulus, t)


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


# A table is a pure function of its key, and a row of its ints, so
# caching one never changes a result. The caches are sized from a run's
# traffic: every row is dealt at parties 1..n (one power table, exact in
# vulnerable mode and in the field when hardened), every row is
# interpolated at the same first t parties (one basis), and
# reconstruction asks for at most n first-subset weight tables. Each
# dealt row is kept, a row per party as numtheory._g_row keeps powers,
# so the row checks, which ask for the rows again in the same order, all
# hit. A vulnerable pool whose first subset fails asks for one more
# basis at that subset and one more power table and row, in the field,
# at the pool's other recipients, to test whether the pool lies on one
# polynomial; the subsets an inconsistent pool enumerates never recur
# and pass through. Worst case at t = n = MAX_PARTIES over a 96-bit
# group, measured with tracemalloc: 64 weight tables, 0.24 MB with their
# keys; 4 packed bases, 0.44 MB (196-bit slots); 2 power tables, 0.26 MB
# exact (474-bit slots) and 0.11 MB in the field (196 bits); 64 rows,
# 0.41 MB exact or 0.21 MB in the field. That is about 1.5 MB in all.
# The rows are the dealt share rows themselves, which a run's report
# holds anyway: the peak of an honest 64/64 run moved by 10 KB or less
# in either mode.


def lagrange_weights(xs, m: int) -> tuple[int, ...]:
    """Lagrange weights at zero for the abscissas xs, mod m.

    weight_j = prod_{l != j} x_l * (x_l - x_j)^-1. For any polynomial of
    degree below len(xs), sum_j y_j * weight_j recovers its constant term;
    in particular the weights themselves always sum to 1 mod m.
    """
    return _lagrange_weights(tuple(xs), m)


@lru_cache(maxsize=MAX_PARTIES)
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


def interpolate(xs, ys, m: int) -> tuple[int, ...]:
    """Coefficients, constant term first, of the polynomial of degree
    below len(xs) through the points (xs[i], ys[i] mod m), mod m.
    Coefficient 0 is the value at zero, which lagrange_weights gives
    too. The ys of unit vector i give the coefficients of L_i, the
    Lagrange basis polynomial with L_i(x_i) = 1 and L_i(x_l) = 0 for
    l != i, and the result is sum_i (y_i mod m) * L_i.

    One big-integer product does that sum for every coefficient
    (Kronecker substitution): L_i is packed as
    column_i = sum_j L_i[j] << (w * j), so slot j of
    sum_i (y_i mod m) * column_i is sum_i (y_i mod m) * L_i[j] exactly,
    and w is the bit length of the largest value that sum can take.
    """
    w, columns = _packed_basis(tuple(xs), m)
    packed = sum(map(mul, (y % m for y in ys), columns))
    return tuple(c % m for c in _unpack(packed, w, len(columns)))


def evaluate(coeffs, xs, m: int, in_field: bool = False) -> tuple[int, ...]:
    """sum_j coeffs[j] * x**j at every x in xs, for coefficients in
    [0, m) and positive xs: exactly, with no reduction, or, in_field,
    reduced mod m.

    One big-integer product evaluates the polynomial at all of xs
    (Kronecker substitution): with K_j = sum_i x_i**j << (w * i), slot i
    of sum_j coeffs[j] * K_j is the value at x_i, and w is the bit
    length of the largest value a slot can take (every coefficient
    m - 1, at the x whose powers sum largest). In the field, K_j packs
    x_i**j mod m, so a slot needs about 2 * bits(m) + log2(len(coeffs))
    bits instead of bits(m) + (len(coeffs) - 1) * log2(max(xs)), and
    each is reduced once. A row is cached by its ints in either form
    (_row below), so a row asked for twice, as a dealer's is by its
    dealing and then by the row check of vss.verify_row, is computed
    once.
    """
    return _row(tuple(coeffs), tuple(xs), m, in_field)


@lru_cache(maxsize=MAX_PARTIES)
def _row(coeffs: tuple[int, ...], xs: tuple[int, ...], m: int,
         in_field: bool) -> tuple[int, ...]:
    w, powers = _packed_powers(xs, len(coeffs), m, in_field)
    values = _unpack(sum(map(mul, coeffs, powers)), w, len(xs))
    return tuple(v % m for v in values) if in_field else tuple(values)


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
    """(w, each basis polynomial L_i of interpolate packed at slot width w).

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
def _packed_powers(xs: tuple[int, ...], t: int, m: int,
                   in_field: bool) -> tuple[int, tuple[int, ...]]:
    """(w, K_0..K_{t-1}) with K_j = sum_i xs[i]**j << (w * i), or with
    xs[i]**j mod m in_field, for evaluate."""
    rows = []
    x_to_j = [1] * len(xs)
    for _ in range(t):
        rows.append(x_to_j)
        x_to_j = [v * x % m for v, x in zip(x_to_j, xs)] if in_field else list(
            map(mul, x_to_j, xs))
    # slot i of evaluate's product is largest when every coefficient is
    # m - 1, and largest of all at the x whose powers sum largest
    w = ((m - 1) * max(map(sum, zip(*rows)), default=0)).bit_length()
    return w, tuple(_pack(row, w) for row in rows)
