"""Exception types shared across the package; a LAPACK failure stays numpy's LinAlgError."""


class ParameterError(ValueError):
    """A parameter violates a documented precondition, a dimension below 1
    or an array of the wrong shape included."""


class DomainError(ValueError):
    """A scalar function was evaluated outside its domain (s <= 0, ln/sqrt
    of a non-positive argument, division by zero, 0 raised to a negative
    power), or at every sample of an oracle sweep, which skipped them all."""


class NonFiniteError(ArithmeticError):
    """Evaluation produced an overflow, NaN or infinity."""


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""


class ParseError(ValueError):
    """Syntax error in a function expression, an identifier other than
    ``s`` / ``ln`` / ``exp`` / ``sqrt`` included.

    ``offset`` is the byte offset into the source text where the error was
    detected.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
