"""Shared exception types."""


class ParameterError(ValueError):
    """Inputs outside the stated validity range of a formula or counter."""


class DimensionError(ValueError):
    """A quotient that should be finite-dimensional is not (non-Artinian input)."""


class ClosureError(RuntimeError):
    """Internal invariant violation: an intermediate element left the
    monomial / pure-difference-binomial class."""
