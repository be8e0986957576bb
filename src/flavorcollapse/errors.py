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


class NegativeTime(FlavorCollapseError, ValueError):
    """A probability was requested at t < 0."""


class SingularTime(FlavorCollapseError):
    """Algebraic QMUPL factor evaluated at or beyond its singular time."""


class DegenerateDenominator(FlavorCollapseError, ZeroDivisionError):
    """A ratio's denominator vanished (asymmetry or mass quadratic)."""


class UnphysicalProbability(FlavorCollapseError):
    """A route produced a probability that is not finite or outside [0, 1], a standard error that is not
    finite and nonnegative, or a state that is no density matrix."""


class NoRealRoot(FlavorCollapseError):
    """The mass quadratic has a negative discriminant."""


class DegenerateWidths(FlavorCollapseError):
    """gamma_L = gamma_H (or a width unusable for the chosen convention)."""


class DimensionMismatch(FlavorCollapseError, ValueError):
    """Operator/state dimensions disagree."""


class ZeroNorm(FlavorCollapseError):
    """State norm underflowed; normalized expectation values undefined."""


class UnsupportedEquation(FlavorCollapseError):
    """A stepping scheme or the master propagator does not apply to the selected equation."""


class ParseError(FlavorCollapseError, ValueError):
    """Run configuration file could not be parsed."""


class UnknownKey(FlavorCollapseError, ValueError):
    """Run configuration contains a key outside the published schema."""


class CatalogMiss(FlavorCollapseError, KeyError):
    """Requested meson is not in the bundled catalog."""
