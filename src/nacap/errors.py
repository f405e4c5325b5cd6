"""Exception hierarchy.

Three families matter operationally: spec/input errors (CLI exit code 2),
precision exhaustion (exit code 3) and violated mathematical preconditions
(exit code 4).  Everything derives from NacapError so callers can catch the
whole library with one clause.  A violated internal invariant (maximum
principle, capacity monotonicity, superharmonic construction) is a bug, not
an input error: it stays an AssertionError, which the CLI reports with exit
code 5.
"""


class NacapError(Exception):
    pass


class SpecFileError(NacapError):
    """Malformed graph spec file or unknown rule/field name."""


class PrecisionError(NacapError):
    """The configured precision cannot certify the requested result."""


class IndeterminateComparisonError(PrecisionError):
    """A sign or ordering query on a quantity that vanishes within its
    guarantee but carries a finite guarantee.  Rerun with a larger window."""


class PrecisionExhaustedError(PrecisionError):
    """An algorithm (elimination pivot search, series summation) ran out of
    certified digits."""


class TermOverflowError(PrecisionError):
    """An explicitly constructed element exceeds the configured maximum term
    count.  Arithmetic never raises this: results are truncated and the
    guarantee exponent lowered instead."""


class FieldParseError(SpecFileError):
    """Syntax error in a field-element literal; position is 0-based."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PreconditionError(NacapError):
    """A documented mathematical precondition does not hold for the input."""


class NonpositiveWeightError(PreconditionError):
    pass


class DisconnectedSetError(PreconditionError):
    pass


class HorizonExhaustedError(PreconditionError):
    """The operation needs vertices beyond the materialized horizon and the
    graph has no generator to supply them."""


class PoleError(PreconditionError):
    pass


class IncompatibleProfileError(PreconditionError):
    pass


class HardyConstructionError(PreconditionError):
    """No certificate supports the requested Hardy weight (for instance the
    graph has null capacity, which admits none)."""


class ConvergenceNotCertifiedError(PreconditionError):
    """A Neumann-series identity check was refused because the restricted
    transition powers carry no decay certificate."""
