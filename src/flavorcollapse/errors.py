"""Exception types shared across the package.

Every domain error raised anywhere in the package derives from
:class:`FlavorCollapseError`, so callers can catch one base class.  The
CLI maps configuration errors to exit code 1 and domain errors to exit
code 2.
"""


class FlavorCollapseError(Exception):
    """Base class for all package errors."""


class InvalidParams(FlavorCollapseError, ValueError):
    """A physical-parameter invariant is violated."""


class ZeroRate(FlavorCollapseError):
    """Collapse operator undefined because the effective rate is zero."""


class NegativeWidth(FlavorCollapseError):
    """Induced decay widths would be negative (beta < 1/2)."""


class NegativeTime(FlavorCollapseError, ValueError):
    """A probability was requested at t < 0."""


class SingularTime(FlavorCollapseError):
    """Algebraic QMUPL factor evaluated at or beyond its singular time."""


class DegenerateDenominator(FlavorCollapseError, ZeroDivisionError):
    """A ratio's denominator vanished (asymmetry or mass quadratic)."""


class NoRealRoot(FlavorCollapseError):
    """The mass quadratic has a negative discriminant."""


class SymmetricNoise(FlavorCollapseError):
    """beta = 1/2: symmetric noise induces no decay, no rate estimate."""


class DegenerateWidths(FlavorCollapseError):
    """gamma_L = gamma_H (or a width unusable for the chosen convention)."""


class DimensionMismatch(FlavorCollapseError, ValueError):
    """Operator/state dimensions disagree."""


class ZeroNorm(FlavorCollapseError):
    """State norm underflowed; normalized expectation values undefined."""


class UnsupportedEquation(FlavorCollapseError):
    """Stepping scheme does not apply to the selected equation."""


class ParseError(FlavorCollapseError, ValueError):
    """Run configuration file could not be parsed."""


class UnknownKey(FlavorCollapseError, ValueError):
    """Run configuration contains a key outside the published schema."""


class CatalogMiss(FlavorCollapseError, KeyError):
    """Requested meson is not in the bundled catalog."""


class ComparisonFailure(FlavorCollapseError):
    """Cross-route comparison exceeded its tolerance (CLI exit code 3)."""
