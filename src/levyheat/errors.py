"""Exception taxonomy shared by every module in the package.

All errors carry enough context to be actionable: quadrature failures
report the tolerance actually achieved and pipeline failures name the
stage that blew up.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractError(ValueError):
    """A caller-certified precondition was not certified."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class GridMismatchError(ValueError):
    """Two fields or operators live on incompatible grids."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance.

    ``achieved_tol`` is the relative tolerance actually attained.
    """

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class UnresolvableMeasureError(RuntimeError):
    """The evolution measure has too much mass beyond the grid's Nyquist
    frequency to be represented on the lattice (no-smoothing regime)."""


class StabilityError(RuntimeError):
    """The nonlinear time stepper detected runaway growth of the
    sup-norm; ``dt`` is the step that produced it."""

    def __init__(self, message: str, dt: float):
        super().__init__(message)
        self.dt = dt


class PipelineError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage
