"""Full-lattice views for the oracle tests, which sum or transform over
every FFT frequency, not only the rfftn half lattice that a propagator
stores, the oracles that only tests apply: the operator itself and its
eigenfunctions, and the names through which the flows transform."""

import math

import numpy as np

from levyheat import evolve
from levyheat.errors import GridMismatchError
from levyheat.spectral import GridField, PeriodicGrid, _apply_multiplier


def freq_axis(grid):
    """Radian frequencies along one axis, FFT ordering, from numpy alone."""
    return 2.0 * math.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)


def full_lattice_radii(grid):
    """|xi| at every lattice frequency, FFT ordering."""
    f = freq_axis(grid)
    return np.abs(f) if grid.dimension == 1 else np.hypot(f[:, None], f[None, :])


def full_multiplier(P):
    """The propagator's multiplier on the full FFT-ordered lattice.

    Column j of the last axis is the frequency ``freq_axis(grid)[j]``; m
    is even, so the half lattice holds it in column |that| / (pi / L).
    """
    g = P.grid
    cols = np.rint(np.abs(freq_axis(g)) * g.half_width / math.pi).astype(int)
    return P.half[..., cols]


def apply_operator(P, f: GridField) -> GridField:
    """The discrete nonlocal operator: multiplier m applied in frequency."""
    if f.grid != P.grid:
        raise GridMismatchError("field and propagator live on different grids")
    return GridField(P.grid, _apply_multiplier(P.half, f.values))


def mode_field(grid: PeriodicGrid, k, amplitude=1.0) -> GridField:
    """Single cosine mode cos(xi_k . x): an eigenfunction of every
    radial multiplier on the lattice."""
    ks = np.broadcast_to(np.asarray(k, dtype=float), (grid.dimension,))
    phase = np.zeros(grid.shape)
    for ax, ki in zip(np.ix_(*(grid.axis,) * grid.dimension), ks):
        phase = phase + (math.pi / grid.half_width) * ki * ax
    return GridField(grid, amplitude * np.cos(phase))


#: the module-level names in ``evolve`` of both transform pairs, forward
#: and inverse: the real FFT pair on the whole lattice and the DCT-II
#: pair on the first 2^N-th of it
EVOLVE_TRANSFORMS = ("rfftn", "irfftn", "dctn", "idctn")


def count_transforms(monkeypatch):
    """Hook every name of EVOLVE_TRANSFORMS; returns the list to which
    each call then appends its name."""
    calls = []
    for name in EVOLVE_TRANSFORMS:

        def counted(*args, _real=getattr(evolve, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(evolve, name, counted)
    return calls
