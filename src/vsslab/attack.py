"""Forged shares that verify.

A vulnerable-mode verifier accepts any value congruent to the honest
evaluation mod d = ord(g). Adding a multiple of p - 1 (or of d itself,
strictly weaker when g is not a primitive root) therefore passes every
commitment check while changing the value mod p, which is where the
interpolation that rebuilds the secret actually happens. Reconstruction
from poisoned shares lands on a wrong field element; the closed form of
that element, a0 - m * (sum of the forged shares' Lagrange weights) for
a uniform shift, is tests/reference_model.py's predict_corruption.

Hardened parameters kill the trick outright: values must sit below the
prime subgroup order q, and within [0, q) the congruence class mod q has
exactly one member, the honest share.
"""

from __future__ import annotations

from enum import Enum

from .errors import ConfigInvalid, ForgeryImpossible, VsslabError
from .numtheory import GroupParams, Mode
from .poly import SecretPolynomial, eval_integer
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
        try:
            object.__setattr__(self, "kind", StrategyKind(self.kind))
        except ValueError:
            raise ConfigInvalid(f"unknown forgery strategy kind {self.kind!r}") from None
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
    value is the honest one. Raises VsslabError when the chosen
    multiplier is a multiple of p, which would leave the share honest
    mod p and corrupt nothing.
    """
    if params.mode is Mode.HARDENED:
        raise ForgeryImpossible(
            "in [0, q) each residue class mod q has a single member, the honest "
            "share; larger values fail the range check, so no forgery verifies"
        )
    if poly.field_modulus != params.p:
        raise VsslabError(
            f"polynomial over Z_{poly.field_modulus} does not belong to p = {params.p}"
        )
    if strategy.multiplier % params.p == 0:
        raise VsslabError(
            f"multiplier {strategy.multiplier} is 0 mod p; the forged share would "
            f"equal the honest one in the reconstruction field"
        )
    if not 0 < k < params.p:
        raise VsslabError(f"evaluation point {k} outside (0, p)")
    offset = (params.p - 1) if strategy.kind is StrategyKind.ADD_P_MINUS_ONE else params.d
    return Share(
        dealer=poly.dealer,
        recipient=k,
        value=eval_integer(poly, k) + strategy.multiplier * offset,
    )

