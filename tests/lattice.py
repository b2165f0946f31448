"""Full-lattice views for the oracle tests, which sum or transform over
every FFT frequency, not only the rfftn half lattice that a propagator
stores."""

import math

import numpy as np


def full_lattice_radii(grid):
    """|xi| at every lattice frequency, FFT ordering."""
    f = grid.freq_axis
    return np.abs(f) if grid.dimension == 1 else np.hypot(f[:, None], f[None, :])


def full_multiplier(P):
    """The propagator's multiplier on the full FFT-ordered lattice.

    Column j of the last axis is the frequency ``freq_axis[j]``; m is
    even, so the half lattice holds it in column |freq_axis[j]| / (pi / L).
    """
    g = P.grid
    cols = np.rint(np.abs(g.freq_axis) * g.half_width / math.pi).astype(int)
    return P.half[..., cols]
