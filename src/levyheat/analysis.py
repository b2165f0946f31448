"""Dirichlet forms, inequality verifiers, exponent algebra, decay fits,
and the regularizing-effect diagnostic.

Everything here is a measurement instrument: the quadratic form E(f,f)
evaluated two independent ways (spectrally through the multiplier and
by the lattice double sum through the kernel), ratio landscapes for the
Nash- and Stroock-Varopoulos-type inequalities whose constants the
theory leaves existential, least-squares power-law fits for decay
exponents, and a trend classifier for whether e^{-m t} is integrable
(equivalently, whether the flow regularizes at time t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import irfftn, rfftn

from .errors import ContractError, DomainError
from .evolve import LinearPropagator
from .kernels import LevyKernel
from .spectral import GridField, _Lattice, _single, lp_norm, mollified_box_field
from .symbol import SymbolTable

#: relative slack granted to inequality margins (covers roundoff in the
#: two transforms entering each side)
MARGIN_TOL = 1e-10


# ---------------------------------------------------------------------------
# Dirichlet forms
# ---------------------------------------------------------------------------


def dirichlet_form_spectral(P: LinearPropagator, f: GridField) -> float:
    """E(f, f) = (2L)^-N sum m(xi) |f_hat(xi)|^2."""
    return dirichlet_bilinear(P, f, f)


def dirichlet_bilinear(P: LinearPropagator, f: GridField, g: GridField) -> float:
    """Polarized form E(f, g) = (2L)^-N sum m Re(f_hat conj(g_hat)).

    Read off the spectra through ``spectral._Lattice``, on the first
    2^N-th of the lattice exactly when a flow would be.  Batches of
    fields (see ``GridField``) give one value per field.
    """
    if not isinstance(P, LinearPropagator):
        raise ContractError(f"expected a LinearPropagator, got {type(P)!r}")
    lattice = _Lattice(P.grid, P.half, *((f,) if g is f else (f, g)))
    F = lattice.forward(lattice.part(f.values))
    G = F if g is f else lattice.forward(lattice.part(g.values))
    return lattice.parseval(lattice.weight(F, G))


def dirichlet_form_direct(kernel: LevyKernel, f: GridField) -> float:
    """Lattice double sum (1/2) dx^2N sum_{x != y} (f(x)-f(y))^2 J(x-y).

    The oracle for the spectral form; pairs interact at the periodic
    minimum-image distance and the diagonal cell is excluded (the
    difference vanishes there anyway).  Expanding the square leaves the
    autocorrelation C(s) = sum_x f(x) f(x+s) against the sampled kernel
    weights W(s):  E = dx^2N sum_s W(s) (C(0) - C(s)).  C comes from the
    FFT, so the sum never touches the multiplier or its quadrature.
    """
    g = _single(f).grid
    n = g.points_per_axis
    shift = np.arange(n)
    image = np.minimum(shift, n - shift) * g.spacing  # minimum-image distance per axis
    dist = image if g.dimension == 1 else np.hypot(image[:, None], image[None, :])
    weights = np.zeros(g.shape)
    off = dist > 0.0  # every cell but the diagonal one
    weights[off] = kernel.eval_radial(dist[off])
    spectrum = rfftn(f.values)
    corr = irfftn(spectrum.real**2 + spectrum.imag**2, s=g.shape, axes=g.field_axes)
    return float(g.cell_volume**2 * np.sum(weights * (corr.flat[0] - corr)))


# ---------------------------------------------------------------------------
# Stroock-Varopoulos inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginReport:
    """One inequality trial: left - right with the pass verdict; for a
    batch of fields, arrays with one entry per field."""

    margin: float
    reference: float
    passed: bool


def _power_field(f: GridField, a: float) -> GridField:
    # 0.0**0.0 == 1.0 gives the convention f^0 = 1 (constants have zero form)
    return replace(f, values=f.values**a)


def stroock_varopoulos_check(P, f: GridField, pairs) -> list[MarginReport]:
    """E(f^a, f^b) >= a b E(f, f) for f >= 0 and each (a, b) in ``pairs``
    with a + b = 2; one report per pair, E(f, f) computed once."""
    if (f.values < 0).any():
        raise DomainError("field must be nonnegative")
    for a, b in pairs:
        if abs(a + b - 2.0) > 1e-12:
            raise DomainError(f"need a + b = 2, got a + b = {a + b}")
        if a < 0 or b < 0:
            raise DomainError("exponents must be nonnegative")
    energy = dirichlet_form_spectral(P, f)
    margins = [
        dirichlet_bilinear(P, _power_field(f, a), _power_field(f, b)) - a * b * energy
        for a, b in pairs
    ]
    return [
        MarginReport(margin=m, reference=energy, passed=m >= -MARGIN_TOL * energy)
        for m in margins
    ]


def generalized_sv_check(P, u: GridField, sigma: float, p: float) -> MarginReport:
    """E(F(u), G(u)) >= E(H(u), H(u)) for the catalog triple of exponents
    sigma >= 1, p > 1,

        F(z) = |z|^(sigma-1) z,   G(z) = |z|^(p-2) z,
        H(z) = c |z|^((p+sigma-1)/2 - 1) z,
        c = 2 sqrt(sigma (p-1)) / (p + sigma - 1),

    which satisfies F'G' >= (H')^2 with equality in the power count."""
    if not (sigma >= 1 and p > 1):
        raise DomainError(f"catalog triple needs sigma >= 1, p > 1, got ({sigma}, {p})")
    c = 2.0 * math.sqrt(sigma * (p - 1.0)) / (p + sigma - 1.0)
    h_pow = 0.5 * (p + sigma - 1.0)
    z = u.values
    fu = replace(u, values=np.abs(z) ** (sigma - 1.0) * z)
    gu = replace(u, values=np.abs(z) ** (p - 2.0) * z)
    hu = replace(u, values=c * np.abs(z) ** (h_pow - 1.0) * z)
    right = dirichlet_form_spectral(P, hu)
    left = dirichlet_bilinear(P, fu, gu)
    margin = left - right
    return MarginReport(margin=margin, reference=right, passed=margin >= -MARGIN_TOL * right)


# ---------------------------------------------------------------------------
# Nash-type ratios
# ---------------------------------------------------------------------------


def _nash_terms(P, f: GridField, d: float, r_norm: float):
    """The scale-invariant Nash quotient of f and ||g||_2: with
    g = f / ||f||_r, the quotient is
    E(g, g) / (||g||_2^2 min{1, ||g||_2^(2/d)})."""
    if not d > 0:
        raise DomainError(f"d must be positive, got {d}")
    if not 1.0 <= r_norm < 2.0:
        raise DomainError(f"r must lie in [1, 2), got {r_norm}")
    nr, n2 = lp_norm(f, r_norm), lp_norm(f, 2.0)
    if nr == 0.0:
        raise DomainError("zero field")
    g = GridField(f.grid, f.values / nr)
    g2 = n2 / nr
    denom = g2**2 * min(1.0, g2 ** (2.0 / d))
    return dirichlet_form_spectral(P, g) / denom, g2


@dataclass(frozen=True)
class NashReport:
    """Ratio landscape of a dilation sweep, over the scales the grid
    resolves."""

    ratios: np.ndarray
    scales: np.ndarray
    #: "poincare" where ||g||_2 >= 1, else "nash", one per scale
    branches: tuple
    #: how many scales of the family the grid does not resolve
    unresolved: int

    @property
    def branch_poincare(self):
        return self.branches.count("poincare")

    @property
    def branch_nash(self):
        return self.branches.count("nash")

    @property
    def min_ratio(self):
        return float(self.ratios.min())

    @property
    def passed(self):
        return bool(self.min_ratio > 0.0)


#: the dilation family of ``nash_dilation_sweep``: scales lambda = 2^-6..2^6
#: in half-octave steps of a mollified box of these half and edge widths
NASH_SCALES = 2.0 ** np.arange(-6.0, 6.5, 0.5)
NASH_BOX_HALF_WIDTH = 1.0
NASH_BOX_EDGE_WIDTH = 0.25


def nash_dilation_sweep(P, d: float, *, r_norm=1.0) -> NashReport:
    """The Nash quotient (``_nash_terms``) along the mass-preserving
    dilation family lambda^N f(lambda x) of a mollified box on the
    propagator's grid (``NASH_SCALES``, ``NASH_BOX_HALF_WIDTH``,
    ``NASH_BOX_EDGE_WIDTH``).

    With r = 1 the family keeps ||f||_1 fixed while ||f||_2 sweeps both
    sides of 1, exercising both branches of the min.  A dilate whose
    half width h / lambda is below one cell dx is left out and counted
    as unresolved: the box is centred on a cell, so one that reaches
    less than half a cell is identically zero.  Raises DomainError when
    the grid resolves no scale.
    """
    resolved = NASH_BOX_HALF_WIDTH / NASH_SCALES >= P.grid.spacing
    scales = NASH_SCALES[resolved]
    if not scales.size:
        raise DomainError(
            f"no scale of the Nash family is resolved: half width "
            f"{NASH_BOX_HALF_WIDTH / NASH_SCALES[0]:g} at the widest, cell {P.grid.spacing:g}"
        )
    ratios = np.empty_like(scales)
    branches = []
    for i, lam in enumerate(scales):
        f = mollified_box_field(
            P.grid, half_width=NASH_BOX_HALF_WIDTH, edge_width=NASH_BOX_EDGE_WIDTH, scale=lam
        )
        ratios[i], g2 = _nash_terms(P, f, d, r_norm)
        branches.append("poincare" if g2 >= 1.0 else "nash")
    return NashReport(
        ratios=ratios,
        scales=scales,
        branches=tuple(branches),
        unresolved=int(np.count_nonzero(~resolved)),
    )


# ---------------------------------------------------------------------------
# interpolation inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationReport:
    required_constant: float
    theta1: float
    theta2: float


def theta_exponents(r, s, gamma, N):
    """Interpolation exponents theta1 = r[N(2-s)+gamma s] / (s[N(2-r)+gamma r]),
    theta2 = r(2-s)/(s(2-r)).  theta1 - theta2 = 2 gamma r (s-r) /
    (s (2-r) (N(2-r) + gamma r)) > 0 on the whole admissible range, so the
    order needs no check (with s a few ulps above r the two round alike)."""
    if not 1.0 < r < s <= 2.0:
        raise DomainError(f"need 1 < r < s <= 2, got r={r}, s={s}")
    if not 0.0 < gamma <= 2.0:
        raise DomainError(f"need gamma in (0, 2], got {gamma}")
    if N not in (1, 2):
        raise DomainError(f"N must be 1 or 2, got {N}")
    theta1 = r * (N * (2.0 - s) + gamma * s) / (s * (N * (2.0 - r) + gamma * r))
    theta2 = r * (2.0 - s) / (s * (2.0 - r))
    return theta1, theta2


def interpolation_check(P, z: GridField, r, s, gamma) -> InterpolationReport:
    """Smallest constant c making
    ||z||_s^2 <= c (||z||_r^(2 theta1) E^(1-theta1) + ||z||_r^(2 theta2) E^(1-theta2))
    hold for this z."""
    theta1, theta2 = theta_exponents(r, s, gamma, z.grid.dimension)
    energy = dirichlet_form_spectral(P, z)
    if energy <= 0.0:
        raise DomainError("field has zero energy; the inequality is vacuous")
    nr, ns = lp_norm(z, r), lp_norm(z, s)
    m1 = nr ** (2.0 * theta1) * energy ** (1.0 - theta1)
    m2 = nr ** (2.0 * theta2) * energy ** (1.0 - theta2)
    return InterpolationReport(
        required_constant=float(ns**2 / (m1 + m2)),
        theta1=theta1,
        theta2=theta2,
    )


# ---------------------------------------------------------------------------
# exponent algebra
# ---------------------------------------------------------------------------


def rho_eps(q, p, N, alpha, sigma):
    """Decay exponent pair for the (possibly nonlinear) flow:
    rho = N(p-q) / (p [N(sigma-1) + alpha q]),  eps = 1 - (sigma-1) rho,
    with alpha the order of the kernel's tail (``tail.exponent()``).

    This is the one definition of the decay targets and of their range:
    ``decay-fit`` and the battery's decay criteria read them here.
    sigma = 1 reduces to the linear pair (N/alpha (1/q - 1/p), 1).
    The range is 1 <= q, sigma - 1 <= q < p <= inf; the boundary
    q = sigma - 1 is admitted because the formulas stay finite there.
    At p = inf, rho is the formula's limit N / (N(sigma-1) + alpha q);
    the paper proves only that the sup norm tends to 0 there.  q and p
    may be arrays that broadcast together, giving one pair per element,
    each equal to the scalar call's; any element out of range (NaN
    included) raises.  A scalar call returns scalars.
    """
    if not sigma >= 1:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if N not in (1, 2):
        raise DomainError(f"N must be 1 or 2, got {N}")
    bad = np.logical_not((q >= 1) & (q >= sigma - 1.0) & (q < p))
    if np.any(bad):
        # report the first offending element
        q, p, bad = np.broadcast_arrays(q, p, bad)
        q, p = q[bad][0], p[bad][0]
        raise DomainError(
            f"need 1 <= q, sigma - 1 <= q, q < p; got q={q}, p={p}, sigma={sigma}"
        )
    with np.errstate(invalid="ignore"):  # inf / inf where p = inf
        finite = N * (p - q) / (p * (N * (sigma - 1.0) + alpha * q))
    rho = np.where(np.isinf(p), N / (N * (sigma - 1.0) + alpha * q), finite)[()]
    eps = 1.0 - (sigma - 1.0) * rho
    return rho, eps


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit norm ~ prefactor * t^(-exponent) over a window."""

    exponent: float
    prefactor: float
    window: tuple
    r_squared: float

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise DomainError(f"window must be increasing, got {self.window}")
        if self.r_squared > 1.0 + 1e-12:
            raise DomainError(f"r_squared cannot exceed 1, got {self.r_squared}")


#: fewest points a power-law fit is made from
FIT_MIN_POINTS = 5


def fit_decay_exponent(series, window=None) -> DecayFit:
    """Least squares on (log t, log norm); exponent = -slope.

    ``series`` is a sequence of (t, norm) pairs with increasing positive
    times and positive norms; ``window`` restricts to t in [lo, hi].
    """
    arr = np.asarray(list(series), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("series must be (t, norm) pairs")
    t, y = arr[:, 0], arr[:, 1]
    if (np.diff(t) <= 0).any():
        raise DomainError("times must be strictly increasing")
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, y = t[keep], y[keep]
    if t.size < FIT_MIN_POINTS:
        raise DomainError(f"need at least {FIT_MIN_POINTS} points in the window, got {t.size}")
    if (t <= 0).any():
        raise DomainError("times must be positive to fit a power law")
    if (y <= 0).any():
        raise DomainError("norms must be positive to fit a power law")
    lt, ly = np.log(t), np.log(y)
    slope, intercept = np.polyfit(lt, ly, 1)
    resid = ly - (slope * lt + intercept)
    sstot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if sstot == 0.0 else 1.0 - float(np.sum(resid**2)) / sstot
    return DecayFit(
        exponent=float(-slope),
        prefactor=float(math.exp(intercept)),
        window=(float(t[0]), float(t[-1])),
        r_squared=r2,
    )


def fit_late_decay(series) -> DecayFit:
    """Best suffix-window fit: maximize r^2 over the late-time windows of
    at least FIT_MIN_POINTS points.

    The theory's decay onset time depends on the data through an
    unspecified constant, so the window is selected empirically.
    """
    arr = np.asarray(list(series), dtype=float)
    n = arr.shape[0]
    if n < FIT_MIN_POINTS:
        raise DomainError(f"need at least {FIT_MIN_POINTS} points, got {n}")
    best = None
    for start in range(0, n - FIT_MIN_POINTS + 1):
        fit = fit_decay_exponent(arr[start:])
        if best is None or fit.r_squared > best.r_squared:
            best = fit
    return best


# ---------------------------------------------------------------------------
# regularizing-effect diagnostic
# ---------------------------------------------------------------------------

CONVERGENT = "CONVERGENT"
DIVERGENT = "DIVERGENT"
UNDECIDED = "UNDECIDED"

#: highest regularity order probed by the C^k indicator
CK_PROBE_MAX = 8


@dataclass(frozen=True)
class RegularityReport:
    classification: str
    ck_order: object  # smallest k with divergent k-th moment, or None (C^inf)


def _weighted_partials(tab: SymbolTable, t: float, cutoffs, weight_power: int):
    """Partial integrals I(R) = int_{|xi| <= R} |xi|^k e^{-m t} d xi on
    a sequence of radial cutoffs, by log-trapezoid on the table.

    Returns (partials, increments): the increments are the per-interval
    integrals kept separately so that a tiny tail contribution is not
    lost to cancellation against the running total.
    """
    dim = tab.dimension
    surface = 2.0 if dim == 1 else 2.0 * math.pi
    lo = tab.radial_grid[0] if tab.closed_form is None else min(1e-6, cutoffs[0] * 1e-6)
    lo = min(lo, cutoffs[0])
    # the core |xi| <= lo: integrand <= lo^k, contributes at most the
    # ball volume; include it at the e^{-m(lo) t} value
    core = surface * lo ** (weight_power + dim) / (weight_power + dim)
    total = core * math.exp(-float(tab.evaluate(lo)) * t)
    partials, increments = [], []
    prev = lo
    for R in cutoffs:
        inc = 0.0
        if R > prev:
            grid = np.geomspace(prev, R, max(int(64 * math.log10(R / prev)), 16) + 1)
            mvals = tab.evaluate(grid)
            integrand = surface * grid ** (weight_power + dim - 1) * np.exp(-mvals * t)
            inc = float(np.trapezoid(integrand, grid))
            total += inc
            prev = R
        partials.append(total)
        increments.append(inc)
    return np.asarray(partials), np.asarray(increments)


def _classify(partials, increments):
    """Trend call: DIVERGENT when the increments are nondecreasing (and
    still positive) across the last three cutoff intervals, CONVERGENT
    when the last increment has fallen below 1e-6 of the total."""
    if len(partials) < 4:
        return UNDECIDED
    inc = increments[-3:]
    if inc[-1] > 0.0 and inc[0] <= inc[1] * (1 + 1e-9) and inc[1] <= inc[2] * (1 + 1e-9):
        return DIVERGENT
    if inc[-1] < 1e-6 * partials[-1]:
        return CONVERGENT
    return UNDECIDED


def regularizing_diagnostic(tab: SymbolTable, t) -> RegularityReport:
    """Does e^{-m t} have finite integral (and finite |xi|^k moments)?

    The radial cutoffs are the decades from max(1, 10 rho_0) up to the
    table's top radius (up to 1e8 for a closed form).  CONVERGENT means
    the discrete evolution measure at time t has a bounded, continuous
    density; DIVERGENT is the no-regularizing-effect regime; UNDECIDED
    when neither trend criterion fires within the cutoff range.
    """
    if not 0 < t < math.inf:
        raise DomainError(f"time must be positive and finite, got {t}")
    hi = tab.radial_grid[-1] if tab.closed_form is None else 1e8
    lo = max(1.0, tab.radial_grid[0] * 10 if tab.closed_form is None else 1.0)
    if hi < lo:
        raise DomainError(
            f"the table's range [{tab.radial_grid[0]:g}, {hi:g}] must reach the first cutoff {lo:g}"
        )
    decades = int(math.floor(math.log10(hi / lo)))
    cutoffs = lo * 10.0 ** np.arange(0, decades + 1)
    partials, increments = _weighted_partials(tab, float(t), cutoffs, 0)
    cls = _classify(partials, increments)
    ck = None
    if cls is CONVERGENT:
        for k in range(1, CK_PROBE_MAX + 1):
            mp, mi = _weighted_partials(tab, float(t), cutoffs, k)
            if _classify(mp, mi) is not CONVERGENT:
                ck = k
                break
    elif cls is DIVERGENT:
        ck = 0
    return RegularityReport(classification=cls, ck_order=ck)


#: the top decades of a table that ``log_symbol_slope`` fits over
SLOPE_FIT_DECADES = 2.0


def log_symbol_slope(tab: SymbolTable) -> float:
    """Growth rate omega = lim m(rho)/log(rho), fitted over the top
    SLOPE_FIT_DECADES decades of the table (finite and positive exactly
    for logarithmically growing multipliers)."""
    rho, m = tab.radial_grid, tab.values
    if rho.size < 8:
        raise DomainError("table too small to fit a slope")
    hi = rho[-1]
    keep = rho >= hi / 10.0**SLOPE_FIT_DECADES
    if keep.sum() < 4:
        raise DomainError(f"not enough points in the top {SLOPE_FIT_DECADES:g} decades")
    slope, _ = np.polyfit(np.log(rho[keep]), m[keep], 1)
    return float(slope)
