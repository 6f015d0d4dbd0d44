"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class DimensionMismatchError(ValueError):
    """A control vector has the wrong length for its problem."""

    def __init__(self, expected: int, actual: int, what: str = "control sequence"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected length {expected}, got {actual}")


class NotSpdError(ValueError):
    """A matrix that must be symmetric positive definite is not."""


class AllInfeasibleError(RuntimeError):
    """Every sample in a batch fell outside the feasible set."""

    def __init__(self, n_samples: int, iteration: int):
        self.n_samples = n_samples
        self.iteration = iteration
        super().__init__(
            f"all {n_samples} samples infeasible at iteration {iteration}"
        )


class InfeasibleProblemError(RuntimeError):
    """No point satisfies the constraint set to tolerance."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap.

    Carries the best iterate found and the residual at that point so callers
    can inspect how close the solve got.
    """

    def __init__(self, message: str, best: np.ndarray, residual: float):
        self.best = best
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""

    def __init__(self, message: str, last_estimate: float):
        self.last_estimate = last_estimate
        super().__init__(message)


class StepSizeError(ValueError):
    """A step-size rule cannot turn its smoothness constant into a finite positive step."""


class UnsupportedProblemError(TypeError):
    """An exact-mode routine was asked for a dimension it does not implement."""


class ConfigError(ValueError):
    """A benchmark configuration document is malformed or inconsistent."""
