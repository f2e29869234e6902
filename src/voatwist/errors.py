"""Exception hierarchy shared across the package.

Every library error derives from VoatwistError so callers (and the CLI)
can map failures to stable machine-readable codes.
"""


class VoatwistError(Exception):
    """Base class for all library errors."""


class DomainError(VoatwistError):
    """An operation left its mathematical domain (integrating x^-1, say)."""


class UnsupportedAlgebra(VoatwistError):
    """Requested Lie algebra family or rank is not implemented."""


class NeedsFieldExtension(VoatwistError):
    """A computation requires eigenvalues outside the rationals."""


class NotSemisimple(VoatwistError):
    """An element that must act semisimply does not."""


class InvalidSymmetry(VoatwistError):
    """A proposed generator permutation does not preserve the Cartan matrix."""


class NotUnipotent(VoatwistError):
    """A twist step declared nilpotent has a current with a semisimple part."""


class CriticalLevel(VoatwistError):
    """The level equals minus the dual Coxeter number, so no conformal vector."""


class Unsupported(VoatwistError):
    """The input is outside the supported fragment (a documented limitation)."""


class NotFixed(VoatwistError):
    """The twisting vector is not fixed by the automorphism already acting."""


class ConfigError(VoatwistError):
    """A run configuration is malformed or internally inconsistent."""
