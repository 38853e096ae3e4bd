"""Exception hierarchy shared by all modules."""


class OstrowskiError(Exception):
    """Base class for all library errors."""


class IndexBeyondKnownPrefix(OstrowskiError):
    """A partial quotient beyond the explicit prefix of a non-periodic expansion was requested."""


class NotQuadratic(OstrowskiError):
    """An operation requiring an eventually periodic expansion was called without one."""


class CfMismatch(OstrowskiError):
    """Two words relative to different continued fractions were combined."""


class InputTooShort(OstrowskiError):
    """A digit word is too short for the requested pass."""


class DigitOutOfRange(OstrowskiError):
    """A digit exceeds the bound permitted by its position or alphabet."""


class ArityMismatch(OstrowskiError):
    """Automata or words with incompatible track counts / digit bounds were combined."""


class InternalInvariantError(OstrowskiError):
    """A run-time window invariant of the addition passes was violated."""


class UnboundVariable(OstrowskiError):
    """A formula refers to a variable outside the declared track order."""


class FreeVariablePresent(OstrowskiError):
    """A sentence-only operation received a formula with free variables."""


class FormulaSyntaxError(OstrowskiError):
    """Formula text could not be parsed; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FormulaTooDeep(OstrowskiError):
    """A formula is nested deeper than the recursive compiler can follow."""
