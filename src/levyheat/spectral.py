"""Periodic grids, the lattice transform, and field constructors.

Functions live on the torus [-L, L)^N sampled at n points per axis (n a
power of two).  ``_Lattice`` is the one owner of the lattice transform,
for the flows, the spectral forms and every other transform: a real,
even multiplier m(xi), xi_kappa = (pi / L) kappa, acts on real fields
as ``inverse(m * forward(u))``, and the lattice integral of a product
of two fields is read off their spectra F, G (Parseval) as
(dx^N / n^N) sum' m Re(F conj(G)), over the field axes, so that leading
axes are a batch.  The pair is picked from the fields' values alone
(``_mirrored``).  m is even and Phi odd, so both flows keep a field
that equals its mirror image on every field axis -- symmetric about
index (n - 1) / 2, as is every box centred at 0 with its edges on nodes
and every member of the cell-centred Nash family -- and it lives on the
first 2^N-th of the lattice.  There the DCT-II
pair of ``scipy.fft`` diagonalises m (symmetric convolution, Martucci
1994), with m the first n / 2 entries of each axis of the stored half
lattice; its coefficients X give |U|^2 = X^2 at the frequencies
0 .. n/2 - 1 of each axis and U is 0 at Nyquist, so sum' has weight
prod (2 - delta_{kappa,0}).  Every other field (the delta surrogate,
symmetric about n / 2, a random field, a box with an edge off the
nodes), and a computation from no field, runs on
``numpy.fft``'s real pair over the whole lattice, where sum' gives
every column of the rfftn half lattice but the last axis's first and
Nyquist one mirror weight 2.

Norms use exact products where the power is an integer the package
measures -- |u| for p = 1, u*u for p = 2, (u*u)^2 for p = 4 -- and a
general power only for other p.  One body (``_norms``) gives every
scalar a snapshot is checked by (mass, the L^1/L^2/L^4/sup norms, the
face ratio) with one scratch array, from a field's values on the part
of the lattice where they live: each sum over the part is scaled by the
part's copy count, 2^N on the mirrored first 2^N-th and 1 on the whole
lattice, and the sup and the face ratio are read off the part, which
holds row and column 0.  ``field_norms`` calls it on a whole field and
``evolve.Snapshot.norms`` on a flow's part, so a mirrored run is
measured without mirroring its snapshots out.

The command line (``cli.main``) has the C allocator keep freed memory
in the process: a 2^20-point transform frees 16 MiB at the top of the
heap (its scratch and the previous snapshot), which glibc would
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
from functools import reduce
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
        # 2 L / n overflows for L near the largest float and underflows to
        # 0 for a subnormal L; the datum constructors divide by it
        if not 0.0 < self.spacing < math.inf:
            raise DomainError(
                "spacing 2 half_width / points_per_axis must be positive and finite, "
                f"got {self.spacing} from half_width {self.half_width} and {n} points"
            )

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
        """Sample points -L + dx j along one axis, computed on each read (8
        MiB at 2^20 points, so a grid holds none) in one array scaled in
        place; the caller owns it."""
        x = np.arange(self.points_per_axis, dtype=float)
        x *= self.spacing
        x += -self.half_width
        return x

    def radius(self, k):
        """|xi| of harmonic ``k`` along one axis, 2 pi (k (1 / (n dx))) in
        that floating-point order: the one formula of a lattice radius,
        bit-identical to ``2 pi fftfreq(n, dx)``.  ``k`` is a number, or a
        float array that is scaled in place and returned."""
        k *= 1.0 / (self.points_per_axis * self.spacing)
        k *= 2.0 * math.pi
        return k

    def half_freq_radii(self):
        """|xi| on the rfftn half lattice, FFT ordering: every axis but the
        last in full, the last axis's first n // 2 + 1 columns (the
        nonnegative frequencies, Nyquist included).  Each is a ``radius``,
        and in 2-D ``np.hypot`` of two: a full axis holds the radii of
        harmonics 0..n/2, then n/2 - 1 down to 1.  The caller owns the
        result: ``from_table`` overwrites it with m."""
        n = self.points_per_axis
        radii = self.radius(np.arange(n // 2 + 1, dtype=float))
        if self.dimension == 1:
            return radii
        return np.hypot(np.concatenate((radii, radii[-2:0:-1]))[:, None], radii)

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


# ---------------------------------------------------------------------------
# the lattice transform
# ---------------------------------------------------------------------------


def dctn(x, axes):
    """The DCT-II of ``x`` over ``axes`` (``scipy.fft.dctn``, type 2).
    ``scipy.fft`` is imported at the first call, so a run on no
    mirror-symmetric field never loads it."""
    from scipy import fft

    return fft.dctn(x, type=2, axes=axes)


def idctn(x, axes, overwrite_x=False):
    """The inverse of ``dctn`` over ``axes`` (``scipy.fft.idctn``, type 2);
    ``overwrite_x`` lets it transform ``x`` in place."""
    from scipy import fft

    return fft.idctn(x, type=2, axes=axes, overwrite_x=overwrite_x)


def _mirrored(values, grid: PeriodicGrid):
    """Whether ``values`` equal their mirror image on every field axis,
    exactly: the one selector of the lattice transform pair."""
    h, axes = grid.points_per_axis // 2, grid.field_axes
    # the pair at the centre of each axis first: most fields that are not
    # mirrored differ there, and are told apart without a pass over them
    if not all(np.array_equal(values.take(h - 1, ax), values.take(h, ax)) for ax in axes):
        return False
    return all(np.array_equal(values, np.flip(values, ax)) for ax in axes)


def _decay(m, t):
    """e^{-m t} for the multiplier values ``m``, built in one array."""
    d = np.multiply(m, -t)
    return np.exp(d, out=d)


class _Lattice:
    """The part of ``grid``'s lattice that a computation on ``fields``
    runs on, and its transform pair: the first 2^N-th under the DCT-II
    pair when every field equals its mirror image, else (and with no
    field) the whole lattice under the real FFT pair.  ``m`` is the view
    of ``half``, a multiplier on the rfftn half lattice, on the
    spectrum's lattice; ``copies`` is how many times the whole lattice
    holds the part's values (2^N on the first 2^N-th, else 1); ``work``
    counts the transforms made and the points of each, n^N / copies."""

    def __init__(self, grid: PeriodicGrid, half, *fields: GridField):
        if any(f.grid != grid for f in fields):
            raise GridMismatchError("fields and multiplier live on different grids")
        self.grid = grid
        self.mirrored = bool(fields) and all(_mirrored(f.values, grid) for f in fields)
        self.copies = 2**grid.dimension if self.mirrored else 1
        self.m = self.part(half)
        points = grid.points_per_axis**grid.dimension // self.copies
        self.work = {"spectral.fft_calls": 0, "spectral.fft_points": points}

    def part(self, a):
        """The entries of ``a`` (fields, or the stored multiplier) on the
        spectrum's lattice, over the last N axes, as a view."""
        if not self.mirrored:
            return a
        return a[(...,) + (slice(0, self.grid.points_per_axis // 2),) * self.grid.dimension]

    def forward(self, v):
        self.work["spectral.fft_calls"] += 1
        if self.mirrored:
            return dctn(v, axes=self.grid.field_axes)
        return rfftn(v, axes=self.grid.field_axes)

    def inverse(self, V, overwrite=False):
        """The fields whose spectra are ``V``; ``overwrite`` lets the DCT-II
        pair transform ``V`` in place."""
        self.work["spectral.fft_calls"] += 1
        g = self.grid
        if self.mirrored:
            return idctn(V, axes=g.field_axes, overwrite_x=overwrite)
        return irfftn(V, s=g.shape, axes=g.field_axes)

    def weight(self, V, W=None):
        """m Re(V conj(W)), the energy density of the spectra ``V`` and
        ``W`` (``V`` again when omitted)."""
        W = V if W is None else W
        if self.mirrored:
            return self.m * (V * W)
        return self.m * (V.real * W.real + V.imag * W.imag)

    def parseval(self, w):
        """(dx^N / n^N) times the full-lattice sum of ``w``, an even real
        quantity known on the spectrum's lattice: sum' of the module
        docstring, one value per field of a batch (a float for one)."""
        g = self.grid
        axes = g.field_axes
        if self.mirrored:  # sum' one axis at a time
            for ax in axes:
                w = 2.0 * w.sum(axis=ax) - w.take(0, axis=ax)
        else:
            first, nyquist = w[..., 0].sum(axis=axes[1:]), w[..., -1].sum(axis=axes[1:])
            w = 2.0 * w.sum(axis=axes) - first - nyquist
        scaled = w * g.cell_volume / g.points_per_axis**g.dimension
        return float(scaled) if np.ndim(scaled) == 0 else scaled

    def field(self, v):
        """The ``GridField`` whose values on the spectrum's lattice are
        ``v``: ``v`` itself on the whole lattice, else ``v`` mirrored out
        into an array of its own."""
        g = self.grid
        if not self.mirrored:
            return GridField(g, v)
        full = np.empty(g.shape)
        self.part(full)[...] = v
        half = g.points_per_axis // 2
        # flip the known block into the last n / 2 entries of the last
        # axis, then of each axis before it
        for k in reversed(range(g.dimension)):
            head = (slice(0, half),) * k
            full[head + (slice(half, None),)] = np.flip(full[head + (slice(0, half),)], axis=k)
        return GridField(g, full)

    def decayed(self, U, t):
        """(values, energy) of the field whose spectrum is D = e^{-m t}
        ``U``: its values on the spectrum's lattice, in an array of their
        own, and its energy ``parseval(weight(D))``.  D is formed once and
        the energy read off it before it is inverted; on the first 2^N-th
        the decay, the product and the inverse transform share one array
        of the part's size."""
        D = _decay(self.m, t)
        if self.mirrored:
            D *= U
        else:
            D = D * U
        energy = self.parseval(self.weight(D))
        return self.inverse(D, overwrite=True), energy


def _root(volume, power_sum, p) -> float:
    return float((volume * power_sum) ** (1.0 / p))


def _power_sum(v, p):
    """sum |v|^p for 1 <= p < inf.

    p = 1, 2 and 4 sum the exact products |v|, v*v and (v*v)^2; any
    other p raises only the nonzero |v| to a general power.  A zero
    sample stays 0 = 0^p, so the sum is bit-identical to powering every
    sample, without paying libm's slow ``pow`` on the (often many)
    exact zeros of a compactly supported field.
    """
    if not 1.0 <= float(p) < math.inf:
        raise DomainError(f"p must be >= 1 or math.inf, got {p!r}")
    p = float(p)
    if p == 1.0:
        return np.sum(np.abs(v))
    if p == 2.0:
        return np.sum(v * v)
    if p == 4.0:
        sq = v * v
        sq *= sq
        return np.sum(sq)
    a = np.abs(v)
    np.power(a, p, out=a, where=a > 0)
    return np.sum(a)


def lp_norm(f: GridField, p) -> float:
    """Discrete L^p norm (dx^N sum |u|^p)^(1/p) (``_power_sum``); max |u|
    for p = math.inf."""
    _single(f)
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    return _root(f.grid.cell_volume, _power_sum(f.values, p), float(p))


def mass(f: GridField) -> float:
    return float(_single(f).grid.cell_volume * np.sum(f.values))


class FieldNorms(NamedTuple):
    """The scalars a snapshot is checked by."""

    mass: float
    #: L^p norm by p: 1, 2, 4 and inf, plus any extra p asked for
    lp: dict
    #: largest |u| on the domain faces relative to the sup-norm
    face_ratio: float


def _norms(grid: PeriodicGrid, part, copies, extra=()) -> FieldNorms:
    """Mass, L^1/L^2/L^4/sup norms (and L^p for each p in ``extra``) and
    face ratio of the field on ``grid`` whose values on a part of the
    lattice are ``part``, which the whole lattice holds ``copies`` times
    (``_Lattice.copies``).  Each sum over the part is scaled by
    ``copies``; the sup and the face ratio are read off the part, which
    holds row and column 0.  |u|, u*u and (u*u)^2 take turns in one
    scratch array.  A field that is not finite raises ContractError: nan
    and inf reach the sup."""
    buf = np.abs(part)
    sup = float(buf.max())
    if not math.isfinite(sup):
        raise ContractError("field values must be finite")
    # the first row and column in 2-D; buf[0] is both in 1-D
    face = 0.0 if sup == 0.0 else float(max(buf[0].max(), buf[..., 0].max())) / sup
    volume = grid.cell_volume * copies
    lp = {1.0: _root(volume, np.sum(buf), 1.0), math.inf: sup}
    np.multiply(part, part, out=buf)
    lp[2.0] = _root(volume, np.sum(buf), 2.0)
    buf *= buf
    lp[4.0] = _root(volume, np.sum(buf), 4.0)
    for p in extra:
        if float(p) not in lp:
            lp[float(p)] = _root(volume, _power_sum(part, p), float(p))
    return FieldNorms(float(volume * np.sum(part)), lp, face)


def field_norms(f: GridField, extra=()) -> FieldNorms:
    """Mass, L^1/L^2/L^4/sup norms (and L^p for each p in ``extra``) and
    face ratio of one field, each equal to what ``mass``/``lp_norm``
    return (``_norms`` on the whole lattice)."""
    return _norms(f.grid, _single(f).values, 1, extra)


# ---------------------------------------------------------------------------
# field constructors (the reproducible test-function families)
# ---------------------------------------------------------------------------


def _band(grid: PeriodicGrid, lo_x, hi_x):
    """The slice of node indices j that covers every node
    x_j = -L + dx j with lo_x <= x_j < hi_x, and two cells more on each
    side against rounding.  The ends are clipped to the lattice before
    int(), since lo_x or hi_x may lie far outside it or be infinite."""
    n, L, dx = grid.points_per_axis, grid.half_width, grid.spacing
    lo, hi = (int(min(max(j, 0.0), n)) for j in ((L + lo_x) / dx - 2.0, (L + hi_x) / dx + 3.0))
    return slice(lo, hi)


def box_field(grid: PeriodicGrid, width=1.0) -> GridField:
    """Indicator of the centred (hyper)cube [-w/2, w/2).

    The half-open convention keeps discrete norms of lattice-aligned
    boxes exact.  One 0/1 profile serves every axis: ``x >= -w/2`` and
    ``x < w/2`` are evaluated only on the band of nodes x_j = -L + dx j
    that the box's edges can reach, worked out from L, dx and the box
    (padded by two cells against rounding), and the profile is 0
    elsewhere.  The field is the outer product of the profile with
    itself, so the only lattice-sized array is the field itself:
    bit-identical, signed zeros included, to the box's indicator mask.
    """
    if not math.isfinite(width):
        raise DomainError(f"width must be finite, got {width}")
    # a Python float: the node index of a far edge overflows to inf
    # without a numpy warning, and _band clips it
    hi_edge = 0.5 * float(width)
    band = _band(grid, -hi_edge, hi_edge)
    x = -grid.half_width + grid.spacing * np.arange(band.start, band.stop)
    profile = np.zeros(grid.points_per_axis)
    profile[band] = (x >= -hi_edge) & (x < hi_edge)
    # the outer product of the profile; in 1-D, the profile itself
    return GridField(grid, reduce(np.multiply, np.ix_(*(profile,) * grid.dimension)))


def gaussian_field(grid: PeriodicGrid, sigma=1.0) -> GridField:
    """``exp(-|x|^2 / (2 sigma^2))``.

    The square x^2 of the nodes is formed in place once and serves
    every axis, and the outer sum of the squares is the only
    lattice-sized array: it is scaled and exponentiated in place,
    bit-identical to summing the squares over the whole lattice.
    """
    try:
        var = float(sigma) ** 2
    except OverflowError:  # |sigma| beyond the square root of the largest float
        var = math.inf
    if not 0.0 < var < math.inf:
        raise DomainError(f"sigma^2 must be positive and finite, got sigma = {sigma}")
    x = grid.axis
    x *= x
    # the outer sum of the squares; in 1-D, the square itself
    sq = reduce(np.add, np.ix_(*(x,) * grid.dimension))
    sq *= -0.5
    with np.errstate(over="ignore"):  # -inf off the centre for a tiny sigma: exp gives 0
        sq /= var
    np.exp(sq, out=sq)
    return GridField(grid, sq)


def delta_surrogate(grid: PeriodicGrid) -> GridField:
    """Narrow Gaussian (width 3 dx) with discrete mass exactly one."""
    g = gaussian_field(grid, sigma=3.0 * grid.spacing)
    vals = g.values
    vals /= mass(g)  # in place: the field is this call's own
    return g


#: |z| from which scipy's erf returns exactly +-1 (it does from z = 5.9216
#: on); pinned by a test, so a scipy whose erf differs fails loudly
ERF_SATURATES = 6.0


def mollified_box_field(
    grid: PeriodicGrid, half_width=1.0, edge_width=0.25, scale=1.0
) -> GridField:
    """Smooth box centred on the cell at -dx/2: per-axis profile
    (erf((c+h)/w) - erf((c-h)/w))/2 at the cell centres
    c_j = x_j + dx/2 = dx (j + 1/2 - n/2), so that every member is
    symmetric about index (n - 1)/2 and the spectral forms take it on
    the first 2^N-th of the lattice.

    ``scale`` = lambda > 0 evaluates the mass-preserving dilation
    lambda^N f(lambda c), the family driving the Nash-ratio sweeps; a
    dilate whose reach (|h| + ERF_SATURATES |w|) / lambda is under half
    a cell is identically zero.

    Both erf terms are exactly +-1 and cancel to +0.0 wherever
    |lambda c| >= |h| + ERF_SATURATES |w|.  The profile is formed on the
    first half of the axis, only on the band of centres inside that
    reach (worked out from L, dx and lambda, padded by two cells against
    rounding), and mirrored into the second half, c_{n-1-j} being -c_j
    exactly; the rest is +0.0, and the product starts from the scalar
    lambda^N: bit-identical to evaluating erf at every cell centre.  One
    profile serves every axis.
    """
    if not 0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale}")
    if not 0 < abs(edge_width) < math.inf:
        raise DomainError(f"edge_width must be nonzero and finite, got {edge_width}")
    if not abs(half_width) < math.inf:
        raise DomainError(f"half_width must be finite, got {half_width}")
    # Python floats: reach overflows to inf for a tiny lambda without a
    # numpy warning, and _band clips it
    half_width, edge_width, scale = float(half_width), float(edge_width), float(scale)
    reach = (abs(half_width) + ERF_SATURATES * abs(edge_width)) / scale
    h = grid.points_per_axis // 2
    band = _band(grid, -reach, 0.0)
    head = slice(band.start, min(band.stop, h))  # the band's part in the first half
    y = scale * (grid.spacing * (np.arange(head.start, head.stop) + (0.5 - h)))
    profile = np.zeros(grid.points_per_axis)
    profile[head] = erf((y + half_width) / edge_width) - erf((y - half_width) / edge_width)
    profile[h:] = profile[h - 1 :: -1]
    vals = scale**grid.dimension
    # the one profile along each axis, as np.ix_'s broadcastable views
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
    lattice = _Lattice(grid, grid.half_freq_radii() <= band_fraction * grid.max_frequency)
    vals = lattice.inverse(lattice.m * lattice.forward(noise))
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
