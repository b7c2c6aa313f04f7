"""Forged shares that verify: the honest share plus one shift.

A vulnerable-mode verifier accepts any value congruent to the honest
evaluation mod d = ord(g). Shifting it by a multiple of p - 1 (or of d
itself, strictly weaker when g is not a primitive root) therefore passes
every commitment check while changing the value mod p, which is where the
interpolation that rebuilds the secret actually happens. Reconstruction
from poisoned shares lands on a wrong field element; the closed form of
that element, a0 - m * (sum of the forged shares' Lagrange weights) for
a uniform shift, is tests/reference_model.py's predict_corruption.

One law covers both modes: with m the interpolation field's modulus, a
shift δ verifies exactly when d divides it and changes the rebuilt secret
exactly when m does not. Hardened parameters interpolate in Z_q with
d = q, so m = d = q: any shift that verifies is a multiple of q and
rebuilds the same secret. The range rule v < q adds that such a share is
a visible violation, which its recipient rejects.
"""

from .errors import ConfigInvalid, ForgeryImpossible, VsslabError
from .numtheory import GroupParams, Mode
from .record import Choice, check_int, coerce_enum, record


class StrategyKind(Choice):
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
        if check_int(self.multiplier, "forgery multiplier") < 1:
            raise ConfigInvalid("forgery multiplier must be at least 1")

    def shift(self, params: GroupParams) -> int:
        """multiplier * (p - 1) or multiplier * d: what a forged share adds
        to the honest value.

        Raises ForgeryImpossible on hardened parameters, where no shift
        both verifies and corrupts, and VsslabError when the multiplier
        is a multiple of p, since the shift would then vanish in the
        reconstruction field and corrupt nothing.
        """
        if params.mode is Mode.HARDENED:
            raise ForgeryImpossible(
                "hardened parameters have m = d = q, so a shift that verifies is a "
                "multiple of q and rebuilds the same secret, and the range rule v < q "
                "makes such a share a visible violation: no forgery corrupts the key"
            )
        if self.multiplier % params.p == 0:
            raise VsslabError(
                f"multiplier {self.multiplier} is 0 mod p; the forged share would "
                f"equal the honest one in the reconstruction field"
            )
        offset = params.p - 1 if self.kind is StrategyKind.ADD_P_MINUS_ONE else params.d
        return self.multiplier * offset
