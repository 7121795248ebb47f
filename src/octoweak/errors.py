"""Exception types shared across the package."""


class ZeroDivisor(ArithmeticError):
    """Raised when inverting an element whose quadratic norm vanishes."""


class NotInAssociativeSubalgebra(ValueError):
    """Raised when an exponential argument has components outside the quaternionic subalgebra."""


class DomainViolation(ValueError):
    """Raised when an argument fails a subspace membership precondition."""


class UnknownSuite(KeyError):
    """Raised when a verification suite id is not registered."""

    def __str__(self) -> str:
        # the message itself, where KeyError would give the repr of it
        return Exception.__str__(self)
