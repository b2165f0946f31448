"""Periodic grids, the real-FFT transform pair, and field constructors.

Functions live on the torus [-L, L)^N sampled at n points per axis (n a
power of two).  Every lattice transform in the package is the plain real
FFT pair ``numpy.fft.rfftn``/``irfftn`` on the half lattice, with ``axes``
passed wherever ``s`` is: a real, even
multiplier m(xi) acts on a real field as ``irfftn(m * rfftn(u))``, with
xi_kappa = (pi / L) kappa in FFT ordering, and a lattice integral of a
product of two fields is read off their half-lattice spectra
(Parseval).

Norms use exact products where the power is an integer the package
measures -- |u| for p = 1, u*u for p = 2, (u*u)^2 for p = 4 -- and a
general power only for other p; ``field_norms`` gives every scalar a
snapshot is checked by (mass, the L^1/L^2/L^4/sup norms, the face
ratio) with one scratch array.

The command line (``cli.main``) has the C allocator keep freed memory
in the process: a 2^20-point transform frees 16 MiB at the top of the
heap (its scratch and the previous snapshot's field), which glibc would
otherwise hand back to the kernel and fault in again, zero-filled, at
the next transform.

Decay experiments on the torus stand in for the whole space; the caller
is responsible for choosing L large enough that nothing of size matters
reaches the boundary (the pipeline's domain-escape guard enforces
this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.fft import irfftn, rfftn
from scipy.special import erf

from .errors import ContractError, DomainError, GridMismatchError


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on [-L, L)^N with power-of-two points per axis."""

    dimension: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.dimension}")
        if not self.half_width > 0:
            raise DomainError(f"half_width must be positive, got {self.half_width}")
        if self.half_width == math.inf:
            raise DomainError(f"half_width must be finite, got {self.half_width}")
        n = self.points_per_axis
        if n < 2 or n & (n - 1):
            raise DomainError(f"points_per_axis must be a power of two >= 2, got {n}")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dimension

    @property
    def field_axes(self):
        """The axes of a field's values counted from the end, so that any
        leading axes are a batch of fields."""
        return tuple(range(-self.dimension, 0))

    @property
    def cell_volume(self):
        return self.spacing**self.dimension

    @property
    def axis(self):
        """Sample points along one axis, computed on each read (8 MiB at
        2^20 points, so a grid holds none)."""
        n = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(n)

    @cached_property
    def freq_axis(self):
        """Radian frequencies along one axis, FFT ordering."""
        n = self.points_per_axis
        return 2.0 * math.pi * np.fft.fftfreq(n, d=self.spacing)

    def coordinates(self):
        """Node coordinates, one array per axis (broadcastable)."""
        return np.ix_(*(self.axis,) * self.dimension)

    def half_freq_radii(self):
        """|xi| on the rfftn half lattice, FFT ordering: every axis but the
        last in full, the last axis's first n // 2 + 1 columns (the
        nonnegative frequencies, Nyquist included).  In 1-D these are
        computed alone, bit-identical to ``|freq_axis|`` there, so a 1-D
        grid never caches its full frequency axis."""
        n = self.points_per_axis
        if self.dimension == 1:
            return 2.0 * math.pi * (np.arange(n // 2 + 1) * (1.0 / (n * self.spacing)))
        last = self.freq_axis[: n // 2 + 1]
        return np.hypot(self.freq_axis[:, None], last[None, :])

    @property
    def max_frequency(self):
        """Largest |xi| along one axis: pi / dx."""
        return math.pi / self.spacing


@dataclass(frozen=True)
class GridField:
    """Real scalar samples on a periodic grid; always finite.

    ``values`` has the grid's shape.  A batch (``batch=True``) stacks
    fields on one grid along one leading axis.  Batches are made by
    ``random_nonnegative`` and taken by the spectral Dirichlet forms and
    the Stroock-Varopoulos checks, which give one value per field; the
    functions that take one field refuse them (``_single``).
    """

    grid: PeriodicGrid
    values: np.ndarray
    batch: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[int(self.batch) :] != self.grid.shape:
            kind = "batch" if self.batch else "field"
            raise GridMismatchError(
                f"{kind} shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise ContractError("field values must be finite")
        object.__setattr__(self, "values", vals)


def _single(f: GridField) -> GridField:
    """``f``, which must be one field and not a batch."""
    if f.batch:
        raise GridMismatchError(f"expected one field, got a batch of {len(f.values)}")
    return f


def _apply_multiplier(mult, values):
    """Real samples whose spectrum is ``mult`` (an even multiplier on the
    rfftn half lattice) times that of ``values``, transformed over
    mult's axes: any leading axes of ``values`` are a batch of fields."""
    axes = range(-mult.ndim, 0)
    return irfftn(mult * rfftn(values, axes=axes), s=values.shape[-mult.ndim :], axes=axes)


def _parseval(grid: PeriodicGrid, w):
    """(dx^N / n^N) times the full-lattice sum of ``w``, an even real
    quantity known on the rfftn half lattice: every column but the last
    axis's first and Nyquist one stands for itself and its mirror.  The
    sum runs over the last N axes, so leading axes of ``w`` are a batch
    with one value each (a float when there are none)."""
    axes = grid.field_axes
    total = 2.0 * w.sum(axis=axes) - w[..., 0].sum(axis=axes[1:]) - w[..., -1].sum(axis=axes[1:])
    scaled = total * grid.cell_volume / grid.points_per_axis**grid.dimension
    return float(scaled) if np.ndim(scaled) == 0 else scaled


def _root(f: GridField, power_sum, p) -> float:
    return float((f.grid.cell_volume * power_sum) ** (1.0 / p))


def lp_norm(f: GridField, p) -> float:
    """Discrete L^p norm (dx^N sum |u|^p)^(1/p); max |u| for p = inf.

    p = 1, 2 and 4 sum the exact products |u|, u*u and (u*u)^2; any
    other p raises only the nonzero |u| to a general power.  A zero
    sample stays 0 = 0^p, so the sum is bit-identical to powering every
    sample, without paying libm's slow ``pow`` on the (often many)
    exact zeros of a compactly supported field.
    """
    _single(f)
    if p == math.inf or p == "inf":
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    v = f.values
    if p == 1.0:
        return _root(f, np.sum(np.abs(v)), p)
    if p == 2.0:
        return _root(f, np.sum(v * v), p)
    if p == 4.0:
        sq = v * v
        sq *= sq
        return _root(f, np.sum(sq), p)
    a = np.abs(v)
    np.power(a, p, out=a, where=a > 0)
    return _root(f, np.sum(a), p)


def mass(f: GridField) -> float:
    return float(_single(f).grid.cell_volume * np.sum(f.values))


class FieldNorms(NamedTuple):
    """The scalars a snapshot is checked by."""

    mass: float
    #: L^p norm by p: 1, 2, 4 and inf, plus any extra p asked for
    lp: dict
    #: largest |u| on the domain faces relative to the sup-norm
    face_ratio: float


def field_norms(f: GridField, extra=()) -> FieldNorms:
    """Mass, L^1/L^2/L^4/sup norms (and L^p for each p in ``extra``) and
    face ratio of one field, each equal to what ``mass``/``lp_norm``
    return; |u|, u*u and (u*u)^2 take turns in one scratch array."""
    v = _single(f).values
    buf = np.abs(v)
    sup = float(buf.max())
    # the first row and column in 2-D; buf[0] is both in 1-D
    face = 0.0 if sup == 0.0 else float(max(buf[0].max(), buf[..., 0].max())) / sup
    lp = {1.0: _root(f, np.sum(buf), 1.0), math.inf: sup}
    np.multiply(v, v, out=buf)
    lp[2.0] = _root(f, np.sum(buf), 2.0)
    buf *= buf
    lp[4.0] = _root(f, np.sum(buf), 4.0)
    lp.update((float(p), lp_norm(f, p)) for p in extra if float(p) not in lp)
    return FieldNorms(mass(f), lp, face)


# ---------------------------------------------------------------------------
# field constructors (the reproducible test-function families)
# ---------------------------------------------------------------------------


def box_field(grid: PeriodicGrid, width=1.0, height=1.0, center=0.0) -> GridField:
    """Indicator of a (hyper)cube [c - w/2, c + w/2), scaled by height.

    The half-open convention keeps discrete norms of lattice-aligned
    boxes exact.
    """
    centers = np.broadcast_to(np.asarray(center, dtype=float), (grid.dimension,))
    mask = np.ones(grid.shape, dtype=bool)
    for ax, c in zip(grid.coordinates(), centers):
        mask &= (ax >= c - 0.5 * width) & (ax < c + 0.5 * width)
    return GridField(grid, height * mask.astype(float))


def gaussian_field(grid: PeriodicGrid, sigma=1.0, height=1.0, center=0.0) -> GridField:
    """``height * exp(-|x - c|^2 / (2 sigma^2))``."""
    centers = np.broadcast_to(np.asarray(center, dtype=float), (grid.dimension,))
    sq = np.zeros(grid.shape)
    for ax, c in zip(grid.coordinates(), centers):
        sq = sq + (ax - c) ** 2
    return GridField(grid, height * np.exp(-0.5 * sq / sigma**2))


def delta_surrogate(grid: PeriodicGrid) -> GridField:
    """Narrow Gaussian (width 3 dx) with discrete mass exactly one."""
    g = gaussian_field(grid, sigma=3.0 * grid.spacing)
    return GridField(grid, g.values / mass(g))


#: |z| from which scipy's erf returns exactly +-1 (it does from z = 5.9216
#: on); pinned by a test, so a scipy whose erf differs fails loudly
ERF_SATURATES = 6.0


def mollified_box_field(
    grid: PeriodicGrid, half_width=1.0, edge_width=0.25, scale=1.0
) -> GridField:
    """Smooth box: per-axis profile (erf((x+h)/w) - erf((x-h)/w))/2.

    ``scale`` = lambda > 0 evaluates the mass-preserving dilation
    lambda^N f(lambda x), the family driving the Nash-ratio sweeps.

    Both erf terms are exactly +-1 and cancel to +0.0 wherever
    |lambda x| >= |h| + ERF_SATURATES |w|.  The band of nodes
    x_j = -L + dx j inside that reach is worked out from L, dx and
    lambda (padded by two cells against rounding), lambda x_j and erf
    are formed only there, the rest of the profile is +0.0, and the
    product starts from the scalar lambda^N: bit-identical to evaluating
    erf at every sample.  One profile serves every axis.
    """
    if not 0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale}")
    if not 0 < abs(edge_width) < math.inf:
        raise DomainError(f"edge_width must be nonzero and finite, got {edge_width}")
    if not abs(half_width) < math.inf:
        raise DomainError(f"half_width must be finite, got {half_width}")
    n, L, dx = grid.points_per_axis, grid.half_width, grid.spacing
    reach = (abs(half_width) + ERF_SATURATES * abs(edge_width)) / scale
    # j in [lo, hi) covers |x_j| < reach with two cells to spare on each
    # side; the ends are clipped to the lattice before int(), since reach
    # overflows to inf for a tiny lambda
    lo, hi = (int(min(max(j, 0.0), n)) for j in ((L - reach) / dx - 2.0, (L + reach) / dx + 3.0))
    y = scale * (-L + dx * np.arange(lo, hi))
    profile = np.zeros(n)
    profile[lo:hi] = erf((y + half_width) / edge_width) - erf((y - half_width) / edge_width)
    vals = float(scale) ** grid.dimension
    # the one profile along each axis, broadcastable as in coordinates()
    for along in np.ix_(*(profile,) * grid.dimension):
        vals = vals * 0.5 * along
    return GridField(grid, vals)


def random_band_limited(grid: PeriodicGrid, rng, band_fraction=0.25) -> GridField:
    """Seeded random real field with spectrum confined to
    |xi| <= band_fraction * (pi / dx); unit sup-norm."""
    return GridField(grid, _band_limited(grid, rng.standard_normal(grid.shape), band_fraction))


def random_nonnegative(grid: PeriodicGrid, seeds) -> GridField:
    """Nonnegative random fields, one per seed, as a batch: each is the
    band-limited sample (band fraction 0.25) of its own
    ``default_rng(seed)``, shifted so that its minimum is 0.05.  The
    batch is filtered as one stack."""
    noise = np.stack([np.random.default_rng(s).standard_normal(grid.shape) for s in seeds])
    vals = _band_limited(grid, noise, 0.25)
    vals = vals - np.min(vals, axis=grid.field_axes, keepdims=True) + 0.05
    return GridField(grid, vals, batch=True)


def _band_limited(grid: PeriodicGrid, noise, band_fraction):
    """``noise`` (leading axes a batch) cut to |xi| <= band_fraction *
    (pi / dx), each field scaled to unit sup-norm."""
    if not 0 < band_fraction <= 1:
        raise DomainError(f"band_fraction must lie in (0, 1], got {band_fraction}")
    keep = grid.half_freq_radii() <= band_fraction * grid.max_frequency
    vals = _apply_multiplier(keep, noise)
    peak = np.max(np.abs(vals), axis=grid.field_axes, keepdims=True)
    if (peak == 0.0).any():
        raise DomainError("degenerate random field (all filtered out)")
    return vals / peak


#: rows of a 1-D snapshot formatted and written at a time, so the text in
#: memory stays small however large the grid
CSV_BLOCK_ROWS = 1 << 14


def write_field_csv(f: GridField, path):
    """Snapshot format: header ``x[,y],u``, lexicographic nodes, 17
    significant digits.  Rows are written a block at a time: 2^14 rows
    in 1-D, one x row in 2-D (the axis formatted once per file)."""
    g = _single(f).grid
    with open(path, "w") as fh:
        xs = g.axis
        if g.dimension == 1:
            fh.write("x,u\n")
            for lo in range(0, g.points_per_axis, CSV_BLOCK_ROWS):
                block = slice(lo, lo + CSV_BLOCK_ROWS)
                xu = np.column_stack((xs[block], f.values[block]))
                # one %-format per block: a third faster than a format per row
                fh.write(("%.17g,%.17g\n" * len(xu)) % tuple(xu.ravel().tolist()))
        else:
            fh.write("x,y,u\n")
            ax = [format(x, ".17g") for x in xs.tolist()]
            for x, row in zip(ax, f.values):
                fh.write("".join(f"{x},{y},{u:.17g}\n" for y, u in zip(ax, row.tolist())))
