"""Full-lattice views for the oracle tests, which sum or transform over
every FFT frequency, not only the rfftn half lattice that a propagator
stores, the oracles that only tests apply: the operator itself and its
eigenfunctions, and the names through which the lattice transforms."""

import math

import numpy as np

from levyheat import spectral
from levyheat.errors import GridMismatchError
from levyheat.spectral import GridField, PeriodicGrid


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
    """The discrete nonlocal operator: multiplier m applied in frequency,
    by numpy's real FFT pair called here, not through levyheat."""
    g = P.grid
    if f.grid != g:
        raise GridMismatchError("field and propagator live on different grids")
    spectrum = np.fft.rfftn(f.values, axes=g.field_axes)
    return GridField(g, np.fft.irfftn(P.half * spectrum, s=g.shape, axes=g.field_axes))


def mode_field(grid: PeriodicGrid, k, amplitude=1.0) -> GridField:
    """Single cosine mode cos(xi_k . x): an eigenfunction of every
    radial multiplier on the lattice."""
    ks = np.broadcast_to(np.asarray(k, dtype=float), (grid.dimension,))
    phase = np.zeros(grid.shape)
    for ax, ki in zip(np.ix_(*(grid.axis,) * grid.dimension), ks):
        phase = phase + (math.pi / grid.half_width) * ki * ax
    return GridField(grid, amplitude * np.cos(phase))


#: the module-level names in ``spectral``, their one home, of both
#: transform pairs of the lattice, forward and inverse: the real FFT pair
#: on the whole lattice and the DCT-II pair on the first 2^N-th of it
TRANSFORMS = ("rfftn", "irfftn", "dctn", "idctn")


def count_transforms(monkeypatch):
    """Hook every name of TRANSFORMS in ``spectral``; returns the list to
    which each call then appends its name."""
    calls = []
    for name in TRANSFORMS:

        def counted(*args, _real=getattr(spectral, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    return calls
