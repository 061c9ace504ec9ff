"""Exception types shared across the package.

Every error raised on a physics or numerics contract violation derives from
KerrSteadyError so callers can catch the whole family at once.  The CLI maps
them to exit code 1; violations of command-line usage stay with argparse and
exit code 2.
"""


class KerrSteadyError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(KerrSteadyError):
    """Model parameters are out of the supported domain (e.g. gamma <= 0)."""


class UnsupportedModel(KerrSteadyError):
    """Parameter combination has no implemented solution route."""


class DenominatorPole(KerrSteadyError):
    """A Pochhammer denominator vanished or underflowed during a series."""


class NonConvergence(KerrSteadyError):
    """An adaptive series or cutoff loop hit its cap before converging."""


class CrossCheckFailure(KerrSteadyError):
    """Two independent evaluation paths disagreed beyond tolerance."""


class BasisMismatch(KerrSteadyError):
    """Operator or state passed in the wrong basis or with wrong cutoffs."""


class SingularSystem(KerrSteadyError):
    """The bordered steady-state linear system could not be factorized."""


class InvariantViolation(KerrSteadyError):
    """A computed object failed its own consistency checks."""


class CutoffTooSmall(KerrSteadyError):
    """Requested observable needs a larger Fock truncation than provided."""
