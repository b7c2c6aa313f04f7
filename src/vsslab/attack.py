"""Forged shares that verify: the honest share plus one shift.

A vulnerable-mode verifier accepts any value congruent to the honest
evaluation mod d = ord(g). Shifting it by a multiple of p - 1 (or of d
itself, strictly weaker when g is not a primitive root) therefore passes
every commitment check while changing the value mod p, which is where the
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
from .record import coerce_enum, record


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
        coerce_enum(self, "kind", StrategyKind, ConfigInvalid, "forgery strategy kind")
        if self.multiplier < 1:
            raise ConfigInvalid("forgery multiplier must be at least 1")

    def shift(self, params: GroupParams) -> int:
        """multiplier * (p - 1) or multiplier * d: what a forged share adds
        to the honest value.

        Raises ForgeryImpossible on hardened parameters, where no shift
        verifies, and VsslabError when the multiplier is a multiple of p,
        since the shift would then vanish in the reconstruction field and
        corrupt nothing.
        """
        if params.mode is Mode.HARDENED:
            raise ForgeryImpossible(
                "in [0, q) each residue class mod q has a single member, the honest "
                "share; larger values fail the range check, so no forgery verifies"
            )
        if self.multiplier % params.p == 0:
            raise VsslabError(
                f"multiplier {self.multiplier} is 0 mod p; the forged share would "
                f"equal the honest one in the reconstruction field"
            )
        offset = params.p - 1 if self.kind is StrategyKind.ADD_P_MINUS_ONE else params.d
        return self.multiplier * offset
