"""levyheat: a spectral laboratory for nonlocal heat semigroups.

The package builds Levy jump kernels from a small catalog of near-origin
and tail profiles, computes the associated Fourier multiplier by radial
quadrature, propagates linear and porous-medium flows exactly in time on
periodic grids, and verifies the functional inequalities (Dirichlet form
identities, Stroock-Varopoulos, Nash-type lower bounds, interpolation)
that control the decay of solutions.
"""

from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    GridMismatchError,
    PipelineError,
    QuadratureError,
    StabilityError,
    UnresolvableMeasureError,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DomainError",
    "GridMismatchError",
    "PipelineError",
    "QuadratureError",
    "StabilityError",
    "UnresolvableMeasureError",
    "__version__",
]
