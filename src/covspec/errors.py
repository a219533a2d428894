"""Exception types shared across the package."""

__all__ = ["ParameterError", "ShapeError", "DataError", "ConvergenceError"]


class ParameterError(ValueError):
    """A scalar or option argument is outside its admissible range."""


class ShapeError(ValueError):
    """Array dimensions or counts are structurally inconsistent."""


class DataError(ValueError):
    """Input data is malformed: non-finite entries, ragged rows, bad cells."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach tolerance where a result is required.

    Carries the partial solution object on the ``solution`` attribute when
    one is available.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution
