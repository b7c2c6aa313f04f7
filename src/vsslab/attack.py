"""Forged shares that verify, and exact prediction of the damage they do.

A vulnerable-mode verifier accepts any value congruent to the honest
evaluation mod d = ord(g). Adding a multiple of p - 1 (or of d itself,
strictly weaker when g is not a primitive root) therefore passes every
commitment check while changing the value mod p, which is where the
interpolation that rebuilds the secret actually happens. Reconstruction
from poisoned shares lands on a predictable wrong field element.

Hardened parameters kill the trick outright: values must sit below the
prime subgroup order q, and within [0, q) the congruence class mod q has
exactly one member, the honest share.
"""

from __future__ import annotations

from enum import Enum

from .errors import ConfigInvalid, ForgeryImpossible, ModeMismatch, UselessMultiplier
from .numtheory import GroupParams, Mode
from .poly import SecretPolynomial, eval_integer, lagrange_weights
from .record import record
from .vss import Share


class StrategyKind(str, Enum):
    # add m * (p - 1): passes because ord(g) divides p - 1
    ADD_P_MINUS_ONE = "add_p_minus_one"
    # add m * ord(g): the exact acceptance boundary
    ORDER_SHIFT = "order_shift"


@record
class ForgeryStrategy:
    kind: StrategyKind
    multiplier: int = 1

    def __post_init__(self):
        if self.multiplier < 1:
            raise ConfigInvalid("forgery multiplier must be at least 1")


def forge_share(
    poly: SecretPolynomial, k: int, params: GroupParams, strategy: ForgeryStrategy
) -> Share:
    """Build a share for point k that verifies but is not P(k).

    The forged value is eval_integer(poly, k) plus multiplier * (p - 1)
    or multiplier * d. Both offsets vanish mod d, so verification keeps
    accepting; neither vanishes mod p (given multiplier % p != 0), so
    any reconstruction using the share is corrupted.

    Raises ForgeryImpossible on hardened parameters: with values forced
    below q and acceptance meaning congruence mod q, the only accepted
    value is the honest one. Raises UselessMultiplier when the chosen
    multiplier is a multiple of p, which would leave the share honest
    mod p and corrupt nothing.
    """
    if params.mode is Mode.HARDENED:
        raise ForgeryImpossible(
            "in [0, q) each residue class mod q has a single member, the honest "
            "share; larger values fail the range check, so no forgery verifies"
        )
    if poly.field_modulus != params.p:
        raise ModeMismatch(
            f"polynomial over Z_{poly.field_modulus} does not belong to p = {params.p}"
        )
    if strategy.multiplier % params.p == 0:
        raise UselessMultiplier(
            f"multiplier {strategy.multiplier} is 0 mod p; the forged share would "
            f"equal the honest one in the reconstruction field"
        )
    if not 0 < k < params.p:
        raise ValueError(f"evaluation point {k} outside (0, p)")
    offset = (params.p - 1) if strategy.kind is StrategyKind.ADD_P_MINUS_ONE else params.d
    return Share(
        dealer=poly.dealer,
        recipient=k,
        value=eval_integer(poly, k) + strategy.multiplier * offset,
        provenance=strategy,
    )


def predict_corruption(points, m_uniform: int, p: int) -> int:
    """What lagrange_zero will return once the flagged points are forged.

    points is a sequence of (k, honest_value_mod_p, forged?) triples where
    every forged point used ADD_P_MINUS_ONE with the same multiplier
    m_uniform. Each such forgery shifts the point by -m mod p, so the
    reconstruction lands on

        a_0 - m * sum(weight_j for forged j)  (mod p)

    and in particular on a_0 - m when every point is forged (the weights
    sum to 1). No reconstruction is run here; this is the closed form
    the actual one is tested against.
    """
    points = tuple(points)
    if m_uniform < 0:
        raise ValueError("multiplier must be non-negative")
    weights = lagrange_weights((k for k, _, _ in points), p)
    honest_at_zero = sum(y * w for (_, y, _), w in zip(points, weights)) % p
    forged_weight = sum(w for (_, _, f), w in zip(points, weights) if f) % p
    return (honest_at_zero - m_uniform * forged_weight) % p
