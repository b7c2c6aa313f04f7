"""The library's one error rule.

Every failure raised on purpose is a VsslabError, itself a ValueError, so
`except ValueError` callers keep working and the CLI prints any of them as
an `error:` line with exit 1. Most sites raise VsslabError itself; a
subclass exists only where a caller or the README tells it apart, or where
it must also be another builtin type. The few other raises in the package
are invariants (RuntimeError) and the record and CLI plumbing.
"""


class VsslabError(ValueError):
    """Every error this library raises on purpose."""


class TooLarge(VsslabError):
    """Input exceeds a documented guard on this desk-scale implementation."""


class GenerationFailed(VsslabError, RuntimeError):
    """Parameter generation exhausted its retry bound."""


class InvalidGroupParams(VsslabError):
    """A GroupParams value violates one of its structural invariants."""


class ForgeryImpossible(VsslabError):
    """No forged share can pass verification under these parameters."""


class ConfigInvalid(VsslabError):
    """Scenario configuration violates a structural constraint."""


class UnknownParamSet(VsslabError, KeyError):
    """Requested name is not in the parameter registry."""

    def __str__(self):
        # KeyError's str() would quote the message
        return Exception.__str__(self)
