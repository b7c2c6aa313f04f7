"""Exception types shared across the package."""


class VsslabError(Exception):
    """Base class for every error this library raises on purpose."""


class ModulusTooSmall(VsslabError, ValueError):
    """Modular arithmetic asked for with a modulus below 2."""


class NotInvertible(VsslabError, ValueError):
    """Inverse requested for an element that shares a factor with the modulus."""


class TooLarge(VsslabError, ValueError):
    """Input exceeds a documented guard on this desk-scale implementation."""


class GenerationFailed(VsslabError, RuntimeError):
    """Parameter generation exhausted its retry bound."""


class InvalidGroupParams(VsslabError, ValueError):
    """A GroupParams value violates one of its structural invariants."""


class ModeMismatch(VsslabError, ValueError):
    """Polynomial field does not match the group parameter mode."""


class DealerMismatch(VsslabError, ValueError):
    """Share and commitment vector come from different dealers."""


class WrongMode(VsslabError, ValueError):
    """Operation only defined for the other parameter mode."""


class EmptyInput(VsslabError, ValueError):
    """A non-empty collection was required."""


class DuplicateAbscissa(VsslabError, ValueError):
    """Two interpolation points share an x coordinate."""


class ZeroAbscissa(VsslabError, ValueError):
    """An interpolation point sits at x = 0, which would leak the secret slot."""


class ForgeryImpossible(VsslabError, ValueError):
    """No forged share can pass verification under these parameters."""


class UselessMultiplier(VsslabError, ValueError):
    """The forgery multiplier is a multiple of p and would not corrupt anything."""


class InsufficientShares(VsslabError, ValueError):
    """Fewer shares supplied than the reconstruction threshold."""


class ConfigInvalid(VsslabError, ValueError):
    """Scenario configuration violates a structural constraint."""


class UnknownParamSet(VsslabError, KeyError):
    """Requested name is not in the parameter registry."""

    def __str__(self):
        # KeyError's str() would quote the message
        return Exception.__str__(self)
