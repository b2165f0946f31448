"""The Fourier multiplier of a jump kernel, by radial quadrature.

For a radial Levy kernel on R^N (N = 1, 2) the multiplier
``m(xi) = int (1 - cos(z . xi)) J(z) dz`` is one half-line integral,

    m(xi) = c_N int_0^inf (1 - B(xi r)) J(r) r^(N-1) dr,

with the radial weight B = cos, c_1 = 2 in one dimension and B = J0,
c_2 = 2 pi in two.  The weight is defined once (``_RADIAL_WEIGHT``), and
one engine serves both dimensions: the near part on (0, 1] and the tail
beyond 1, each where it has no closed form, split at B's first zero.
Before it the integrand is smooth and goes to QUADPACK's adaptive
Gauss-Kronrod rule, with breakpoints at the step profiles' edges; after
it comes the profile's measure minus the remainder
``int B(xi r) J(r) r^(N-1) dr``, which one function (``_remainder``)
computes for both pieces: over zero-to-zero Gauss panels of B (summed
by Euler's transform on the infinite tail), except the 1-D near piece
[pi/xi, 1], which QUADPACK's cosine-weighted rule (QAWO) takes: there
the panel count grows like xi / pi, and at xi = 1e6 the 3e5 panels of a
FractionalPower near part cost some 300 times QAWO's time.

Closed forms replace quadrature wherever they are exact, each with a
roundoff bound, so a table's achieved tolerance stays honest.  Every
closed form of m is a function of this module, and ``_near_parts`` and
``_tail_parts`` hold the whole condition under which each applies:

* the near part of the Bounded profile, ``c0 (1 - sin xi / xi)`` in one
  dimension and ``c0 (1/2 - J1(xi) / xi)`` in two (``_bounded_near``;
  Taylor series for xi <= 1);
* in one dimension, the near part of a piecewise-constant profile
  (borderline, oscillating), a sum of differences of the cosine
  integral Cin (``_near_steps_1d``), and of the fractional power with
  beta = 1 (``_unit_power_near``);
* in one dimension, the whole tail ``int_1^inf (1 - cos xi r) J(r) dr``
  as one expression: of the power tail with alpha = 1 or 2, by Si and Ci
  below xi = 8 and by the continued fraction of E_{alpha+1} above
  (``_power_tail``), and of the exponential tail, an elementary
  function (``_exponential_tail``); with a closed near part such a table
  calls no quadrature;
* the coefficient of a pure power kernel, ``m(xi) = c |xi|^alpha``
  (``build_symbol_table``).

Tables of multiplier values on a logarithmic grid feed the spectral
propagators through a log-log cubic Hermite interpolant (``_hermite_cubic``)
with parabola slopes (``_parabola_slopes``), inside the tabulated range
only: a radius outside it, or NaN, raises DomainError, so a lattice wider
than its table is reported, never extrapolated.  Pure power kernels carry a
closed-form tag instead and bypass interpolation entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import j0, j1, sici

from .errors import DomainError, QuadratureError
from .kernels import (
    Bounded,
    CompactSupport,
    ExponentialTail,
    FractionalPower,
    LevyKernel,
    PowerTail,
)
from .quadrature import (
    PART_RTOL,
    accelerated_panel_tail,
    adaptive_quad,
    gauss_panel_sums,
    zero_panel_edges,
)

_EPS = np.finfo(float).eps


def log_grid(lo=1e-3, hi=1e4, per_decade=64):
    """Logarithmically spaced radial frequency grid of at least two points,
    since no table interpolates one; DomainError names a bad argument."""
    if not 0 < lo < hi < math.inf:
        raise DomainError(f"log_grid needs 0 < lo < hi < inf, got lo={lo!r}, hi={hi!r}")
    intervals = per_decade * (math.log10(hi) - math.log10(lo))
    if not 0.5 < intervals < math.inf:  # rounds to one interval or more
        raise DomainError(f"log_grid needs 2 to finitely many points, per_decade={per_decade!r}")
    return np.geomspace(lo, hi, int(round(intervals)) + 1)


# ---------------------------------------------------------------------------
# special functions and the closed forms of the multiplier's parts
# ---------------------------------------------------------------------------


def _one_minus_j0(x):
    """``1 - J0(x)`` at a float x without cancellation: the Taylor series
    for ``|x| <= 1``, the plain difference beyond.  Quadrature calls this
    once per node."""
    if abs(x) > 1.0:
        return 1.0 - j0(x)
    # sum_{k>=1} (-1)^(k+1) u^k / (k!)^2 at u = x^2/4 in Horner form; ten
    # terms reach roundoff for u <= 1/4
    u = 0.25 * x * x
    s = 1.0
    for k in range(10, 1, -1):
        s = 1.0 - u / (k * k) * s
    return u * s


def _bounded_near(c0, xi, dim):
    """The near part ``int_0^1 (1 - B(xi r)) c0 r^(N-1) dr`` of the
    Bounded profile, exactly: ``c0 (1 - sin xi / xi)`` in one dimension,
    ``c0 (1/2 - J1(xi) / xi)`` in two, each by its Taylor series for
    ``xi <= 1``, where the difference would cancel.  Returns (value,
    roundoff bound)."""
    if xi <= 1.0:
        # t_1 (1 + r_1 (1 + r_2 (...))) with first term t_1 and term ratios r_k
        #   1 - sin x / x:    t_1 = x^2 / 6,   r_k = -x^2 / ((2k + 2)(2k + 3))
        #   1/2 - J1(x) / x:  t_1 = x^2 / 16,  r_k = -x^2 / (4 (k + 1)(k + 2))
        # nine terms reach roundoff for xi <= 1
        x2 = xi * xi
        s = 1.0
        for k in range(9, 0, -1):
            denom = (2 * k + 2) * (2 * k + 3) if dim == 1 else 4 * (k + 1) * (k + 2)
            s = 1.0 - x2 / denom * s
        value = c0 * x2 / (6.0 if dim == 1 else 16.0) * s
        return value, 4.0 * _EPS * value
    head, second = (1.0, math.sin(xi) / xi) if dim == 1 else (0.5, j1(xi) / xi)
    return c0 * (head - second), 4.0 * _EPS * c0 * (head + abs(second))


def _cin(x):
    """``Cin(x) = int_0^x (1 - cos u)/u du`` on an array of x >= 0: the
    Taylor series for x <= 1, ``gamma + ln x - Ci(x)`` beyond, where that
    form no longer cancels."""
    u = x * x
    s = 1.0
    for k in range(9, 0, -1):
        s = 1.0 - u * k / (2.0 * (k + 1) ** 2 * (2 * k + 1)) * s
    out = 0.25 * u * s
    big = x > 1.0
    out[big] = np.euler_gamma + np.log(x[big]) - sici(x[big])[1]
    return out


def _unit_power_near(xi):
    """``int_0^1 (1 - cos(xi r)) r^-2 dr``, the 1-D near part of the
    fractional power with beta = 1, xi > 0, as (value, error bound).

    With u = xi r this is ``xi A(xi)``, where the antiderivative
    ``A(u) = Si u - 2 sin^2(u/2) / u`` of ``(1 - cos u) u^-2`` has
    A(0) = 0.  A rises from u/2 near 0 to pi/2 and stays above a third of
    its terms' sum, and Si and sin carry about one ulp of their value,
    so the bound is relative to the terms.
    """
    terms = [sici(xi)[0], -2.0 * math.sin(0.5 * xi) ** 2 / xi]
    return xi * math.fsum(terms), xi * 4.0 * _EPS * sum(map(abs, terms))


#: the Si/Ci form of ``_power_tail`` serves xi below this; the continued
#: fraction serves the rest in at most ~40 terms
SICI_MAX_X = 8.0


def _power_tail(alpha, xi, match):
    """The whole tail ``int_1^inf (1 - cos(xi r)) J(r) dr`` of the power
    tail ``J = match r^(-1-alpha)`` in one dimension, alpha in {1, 2} and
    xi > 0, as (value, error bound).

    Below ``SICI_MAX_X`` it is the Si/Ci form (DLMF 6.2),
    ``2 sin^2(xi/2) + xi (pi/2 - Si xi)`` for alpha = 1 and
    ``sin^2(xi/2) + xi sin xi / 2 - xi^2 Ci(xi) / 2`` for alpha = 2, whose
    terms cancel at most 24-fold (alpha = 1, just below 8) and 16-fold
    (alpha = 2) there.  From it up, where the Si/Ci terms would cancel
    like xi^alpha, the form is ``1/alpha - Re e^(i xi) h`` with
    ``h = e^z E_{alpha+1}(z)`` at z = -i xi, whose continued fraction
    converges with no cancellation.
    """
    if xi < SICI_MAX_X:
        si, ci = sici(xi)
        one_minus_cos = 2.0 * math.sin(0.5 * xi) ** 2
        # Si, which is positive, carries about one ulp of its value, and
        # Ci, which has zeros, about one ulp of max(1, |Ci|): hence the
        # floor xi^2 / 2 on the Ci term
        if alpha == 1.0:
            terms, floor = (one_minus_cos, 0.5 * math.pi * xi, -xi * si), 0.0
        else:
            terms = (0.5 * one_minus_cos, 0.5 * xi * math.sin(xi), -0.5 * xi * xi * ci)
            floor = 0.5 * xi * xi
        value = math.fsum(terms)
        return match * value, match * 4.0 * _EPS * (sum(map(abs, terms)) + floor)
    # h by the modified Lentz algorithm, so that
    # int_1^inf e^(i xi r) r^(-1-alpha) dr = e^(i xi) h
    n = alpha + 1.0
    b = complex(n, -xi)
    c, d = 1e300, 1.0 / b  # c starts at 1/tiny, as Lentz's method requires
    h, delta, i = d, 0.0, 0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (n - 1.0 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
    w = complex(math.cos(xi), math.sin(xi)) * h
    # |w| <= 2/xi <= 1/4 < 1/alpha (integrate by parts once): the
    # difference does not cancel
    value = 1.0 / alpha - w.real
    return match * value, match * (_EPS * value + (2 * i + 8) * _EPS * abs(w))


def _exponential_tail(lam, xi, match):
    """The whole tail ``int_1^inf (1 - cos(xi r)) J(r) dr`` of the
    exponential tail ``J = match e^(-lam (r - 1))`` in one dimension, as
    (value, error bound):

        (xi^2 + 2 lam^2 sin^2(xi/2) + lam xi sin xi) / (lam (lam^2 + xi^2)),

    ``1/lam - Re e^(i xi) / (lam - i xi)`` over one denominator.  lam and
    xi are divided by max(lam, xi) first, so no intermediate value
    overflows, and none underflows but a term negligible beside the
    others.  With y = lam |sin(xi/2)| the numerator is at least
    ``(xi - y)^2 + y^2`` and the terms' sum of moduli at most
    ``xi^2 + 2 y^2 + 2 xi y``, so they cancel at most
    ``(2 + sqrt 2) / (2 - sqrt 2)``, 5.8-fold.  The value takes 17
    roundings of at most eps/2 each, relative to the terms, hence the
    bound of 9 eps.
    """
    s = max(lam, xi)
    l, x = lam / s, xi / s
    terms = (x * x, 2.0 * l * l * math.sin(0.5 * xi) ** 2, l * x * math.sin(xi))
    denom = lam * (l * l + x * x)
    value = math.fsum(terms) / denom
    return match * value, match * 9.0 * _EPS * sum(map(abs, terms)) / denom


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


class _RadialWeight(NamedTuple):
    """The radial weight B of ``m(xi) = c_N int_0^inf (1 - B(xi r)) J(r) r^(N-1) dr``
    in dimension N, and the integrands it makes of a profile f at frequency xi."""

    dim: int
    panel: str  # B's name in ``zero_panel_edges``
    zero: float  # B's first positive zero
    scale: float  # c_N
    plain: Callable  # (xi, f) -> (1 - B(xi r)) f(r) r^(N-1) at a float r, without cancellation
    osc: Callable  # (xi, f) -> B(xi r) f(r) r^(N-1) on an array r


_RADIAL_WEIGHT = {
    1: _RadialWeight(
        1,
        "cos",
        math.pi,
        2.0,
        lambda xi, f: lambda r: 2.0 * math.sin(0.5 * xi * r) ** 2 * f(r),
        lambda xi, f: lambda r: np.cos(xi * r) * f(r),
    ),
    2: _RadialWeight(
        2,
        "j0",
        2.404825557695773,
        2.0 * math.pi,
        lambda xi, f: lambda r: _one_minus_j0(xi * r) * f(r) * r,
        lambda xi, f: lambda r: j0(xi * r) * f(r) * r,
    ),
}

#: relative quadrature tolerance of every multiplier value: ten times
#: the PART_RTOL each quadrature of a value is driven to, since the
#: summed QUADPACK estimates are conservative
TABLE_RTOL = 10.0 * PART_RTOL


def _near_steps_1d(steps, xi):
    """``int_0^1 (1 - cos xi r) ell(r)/r dr`` for a piecewise-constant ell,
    exactly: ``sum v [Cin(xi hi) - Cin(xi lo)]`` over its steps.

    That difference cancels on thin steps (width below 1e-3 of ``hi``),
    so those are integrated by Gauss panels no wider than half an
    oscillation, where the rule is exact to roundoff; steps of zero
    width add nothing.  Returns (value, roundoff bound).
    """
    edges, values = steps
    lo, hi = edges[:-1], edges[1:]
    thin = hi - lo < 1e-3 * hi
    cin = _cin(xi * edges)
    wide_v, cin_lo, cin_hi = values[~thin], cin[:-1][~thin], cin[1:][~thin]
    value = float(wide_v @ (cin_hi - cin_lo))
    err = _EPS * float(wide_v @ (cin_hi + cin_lo))

    count = np.ceil(xi * (hi - lo)[thin] / math.pi).astype(int)
    step = np.repeat(np.flatnonzero(thin), count)
    if step.size:
        width = (hi - lo)[step] / count.repeat(count)
        index = np.arange(step.size) - np.repeat(np.cumsum(count) - count, count)
        a = lo[step] + index * width
        # panels interleaved with the gaps between them; keep every other
        sums = gauss_panel_sums(
            lambda r: 2.0 * np.sin(0.5 * xi * r) ** 2 / r, np.ravel([a, a + width], order="F")
        )[::2]
        v, e = _panel_total(values[step] * sums)
        value += v
        err += e
    return value, err


def _panel_total(terms):
    """(sum, roundoff bound) of Gauss panel integrals, each exact to roundoff
    on a panel no wider than half an oscillation."""
    return float(terms.sum()), 1e-15 * float(np.abs(terms).sum())


def _remainder(f, a, b, xi, w, breakpoints=()):
    """(value, err) of the remainder ``int_a^b B(xi r) f(r) r^(N-1) dr``
    from a at or beyond B's first zero.  An infinite b takes zero-to-zero
    Gauss panels of B summed by Euler's transform; a finite b takes
    QUADPACK's cosine-weighted rule (QAWO) in one dimension and Gauss
    panels between the zeros of J0 and the breakpoints in two."""
    if w.dim == 1 and b < math.inf:
        return adaptive_quad(f, a, b, breakpoints=breakpoints, omega=xi)
    edges = zero_panel_edges(a, b, xi, w.panel, breakpoints)
    if b == math.inf:
        return accelerated_panel_tail(w.osc(xi, f), edges)
    return _panel_total(gauss_panel_sums(w.osc(xi, f), edges))


def _near_parts(near, xi, w):
    """(value, err) parts of ``int_0^1 (1 - B(xi r)) J(r) r^(N-1) dr``.

    One closed form where one is exact: the Bounded profile, and in one
    dimension the step profiles and the fractional power with beta = 1.
    Otherwise QUADPACK up to B's first zero a (or 1), and beyond it the
    profile's measure on [a, 1] and minus the remainder on [a, 1].
    """
    dim = w.dim
    if isinstance(near, Bounded):
        return [_bounded_near(near.c0, xi, dim)]
    steps = getattr(near, "steps", None)
    if dim == 1 and steps is not None:
        return [_near_steps_1d(steps, xi)]
    if dim == 1 and isinstance(near, FractionalPower) and near.beta == 1.0:
        return [_unit_power_near(xi)]
    bp = () if steps is None else steps[0][1:-1]
    j = lambda r: near.j(r, dim)
    a = min(1.0, w.zero / xi)
    parts = [adaptive_quad(w.plain(xi, j), 0.0, a, breakpoints=bp)]
    if a < 1.0:
        v, e = _remainder(j, a, 1.0, xi, w, bp)
        parts += [(near.int_symbol_measure(a), 0.0), (-v, e)]
    return parts


def _tail_parts(kernel, xi, w):
    """(value, err) parts of ``int_1^inf (1 - B(xi r)) J(r) r^(N-1) dr``.

    One closed form of the whole tail where one is exact: in one
    dimension the power tail with alpha = 1 or 2 and the exponential
    tail.  Otherwise the piece up to big (B's first zero, at least 1) by
    QUADPACK, the tail's measure beyond big, and minus the remainder
    beyond big.
    """
    tail, match, dim = kernel.tail, kernel.matching_constant, w.dim
    if isinstance(tail, CompactSupport):
        return []
    if dim == 1 and isinstance(tail, PowerTail) and tail.alpha in (1.0, 2.0):
        return [_power_tail(tail.alpha, xi, match)]
    if dim == 1 and isinstance(tail, ExponentialTail):
        return [_exponential_tail(tail.lam, xi, match)]
    jt = lambda r: tail.j(r, dim, match)
    big = max(1.0, w.zero / xi)
    head = adaptive_quad(w.plain(xi, jt), 1.0, big)
    v, e = _remainder(jt, big, math.inf, xi, w)
    return [head, (tail.int_measure(big, dim, match), 0.0), (-v, e)]


def _symbol_value_err(kernel, xi):
    """(value, error estimate) at a frequency xi > 0: c_N times the sum of
    the near parts and the tail parts, added one by one in that order (a
    pre-summed piece would move tables by an ulp), each driven at PART_RTOL.

    Raises DomainError unless xi and B's first-zero radius are finite, and
    QuadratureError carrying the achieved relative tolerance if the
    estimate is materially worse than ``TABLE_RTOL`` (with a small
    absolute floor for vanishing values near xi = 0).
    """
    w = _RADIAL_WEIGHT[kernel.dimension]
    if not (0.0 < xi < math.inf and w.zero / xi < math.inf):
        raise DomainError(f"multiplier needs xi > 0 with xi and {w.zero:.6g}/xi finite, got {xi!r}")
    total = err = 0.0
    for v, e in _near_parts(kernel.near, xi, w) + _tail_parts(kernel, xi, w):
        total += v
        err += e
    val, err = w.scale * total, w.scale * err
    if err > max(20.0 * TABLE_RTOL * abs(val), 1e-12):
        achieved = err / max(abs(val), 1e-300)
        raise QuadratureError(
            f"multiplier quadrature at xi={xi:g} achieved only {achieved:.2e} relative",
            achieved_tol=achieved,
        )
    return val, err


def symbol_quadrature(kernel: LevyKernel, xi):
    """Multiplier value m(xi) by radial quadrature (scalar xi); see
    ``_symbol_value_err`` for the tolerance it enforces."""
    xi = abs(float(xi))
    if xi == 0.0:
        return 0.0
    return _symbol_value_err(kernel, xi)[0]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _parabola_slopes(x, y):
    """Each knot's slope from the parabola through it and its two
    neighbours, an end knot's from the first or last three (Bessel slopes;
    de Boor, *A Practical Guide to Splines*, ch. IV), so a Hermite cubic on
    them reproduces quadratics; two knots give the straight line's slope."""
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        return np.array([m[0], m[0]])
    # with c its second divided difference, the parabola through knots
    # i-1..i+1 has slopes m[i-1] - c h[i-1], m[i-1] + c h[i-1], m[i] + c h[i]
    c = np.diff(m) / (h[:-1] + h[1:])
    return np.concatenate(([m[0] - c[0] * h[0]], m[:-1] + c * h[:-1], [m[-1] + c[-1] * h[-1]]))


def _hermite_cubic(x, y, d):
    """The cubic Hermite interpolant of y with knot slopes d on increasing
    knots x, as a function of a 1-D array z in [x[0], x[-1]].  Interval i
    holds the power-basis cubic ``c3 + c2 s + c1 s^2 + c0 s^3`` in
    s = z - x[i], summed in that order, as scipy's ``PPoly`` does."""
    h = np.diff(x)
    m = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    coeffs = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])
    inner_knots = x[1:-1]

    def interpolant(z):
        # interval i holds x[i] <= z < x[i+1]; the last one also holds x[-1]
        i = np.searchsorted(inner_knots, z, "right")
        c0, c1, c2, c3 = (c.take(i) for c in coeffs)
        s = z - x.take(i)
        value = c2 * s
        value += c3
        power = s * s
        c1 *= power
        value += c1
        power *= s
        c0 *= power
        value += c0
        return value

    return interpolant


#: points per block when a table overwrites an array of radii with m: the
#: temporaries of a block stay in cache, which halves the time of a pass
#: over 2^19 radii, and no temporary is lattice-sized
EVAL_BLOCK = 2**14

#: roundoff bound of a pure power's coefficient (mpmath: under 6 ulps, both dimensions)
PURE_POWER_RTOL = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class PurePower:
    """Closed-form tag: m(xi) = coefficient * xi^alpha."""

    alpha: float
    coefficient: float


@dataclass(frozen=True)
class SymbolTable:
    """Multiplier values on a radial frequency grid.

    ``closed_form`` short-circuits interpolation for pure power
    kernels; ``quad_tol`` is the worst achieved relative quadrature
    tolerance across the grid.  A table without a closed form reads log m,
    so an entry <= 0 raises DomainError, naming its radius.
    """

    dimension: int
    radial_grid: np.ndarray
    values: np.ndarray
    closed_form: PurePower | None = None
    quad_tol: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.radial_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if grid.shape != vals.shape:
            raise DomainError("grid and values must have matching shapes")
        if grid.size and ((grid <= 0).any() or (np.diff(grid) <= 0).any()):
            raise DomainError("radial grid must be positive and strictly increasing")
        if not np.isfinite(vals).all():
            raise DomainError("multiplier values must be finite")
        bad = np.flatnonzero(vals <= 0 if self.closed_form is None else vals < 0)
        if bad.size:
            raise DomainError(
                f"multiplier values must be positive (nonnegative with a closed form), "
                f"got m = {vals[bad[0]]:g} at radius {grid[bad[0]]:g}"
            )
        object.__setattr__(self, "radial_grid", grid)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _loglog(self):
        x, y = np.log(self.radial_grid), np.log(self.values)
        return _hermite_cubic(x, y, _parabola_slopes(x, y))

    def evaluate(self, rho):
        """Interpolated (or closed-form) multiplier at radial frequency rho.

        rho = 0 maps to 0 exactly; a NaN rho raises DomainError.  A table
        answers only inside its tabulated range; any other rho raises
        DomainError, naming the range and the radii outside it.
        """
        rho = np.asarray(rho, dtype=float)
        out = self._evaluate_in_place(np.abs(np.atleast_1d(rho)))
        return out[0] if rho.ndim == 0 else out

    def _evaluate_in_place(self, radii):
        """Overwrite ``radii``, a contiguous array of |xi| (C or Fortran
        order), with m there and return it; see ``evaluate``, which calls
        this on a copy.

        After a NaN check and a table's range check over the whole array,
        the values go in EVAL_BLOCK points at a time.  0 maps to 0.
        """
        # a view in memory order: the blocks write into radii itself
        flat = radii.ravel(order="K")
        # a sum of |xi| is NaN just when a radius is; no lattice-sized mask
        if math.isnan(flat.sum()):
            raise DomainError(f"{np.count_nonzero(np.isnan(flat))} of {flat.size} radii are NaN")
        if self.closed_form is not None:
            cf = self.closed_form
            symbol = lambda r: cf.coefficient * r**cf.alpha
        else:
            if self.radial_grid.size < 2:
                raise DomainError("table too small to interpolate and no closed form")
            self._check_range(radii)
            symbol = lambda r: np.exp(self._loglog(np.log(r)))
        for start in range(0, flat.size, EVAL_BLOCK):
            block = flat[start : start + EVAL_BLOCK]
            pos = block > 0
            values = symbol(block[pos])
            block[~pos] = 0.0
            block[pos] = values
        return radii

    def _check_range(self, radii):
        """Raise DomainError if a radius > 0 lies outside the table's
        range, naming the range and the radii outside it.  A call of its
        own, so that its whole-array mask is freed before the blocks of
        ``_evaluate_in_place`` run."""
        lo, hi = self.radial_grid[0], self.radial_grid[-1]
        pos = radii > 0
        bottom = np.min(radii, where=pos, initial=math.inf)
        top = np.max(radii, where=pos, initial=0.0)
        if bottom < lo or top > hi:
            far = radii[pos & ((radii < lo) | (radii > hi))]
            raise DomainError(
                f"{far.size} radii outside the table's range [{lo:g}, {hi:g}], "
                f"from {far.min():g} to {far.max():g}"
            )


def build_symbol_table(kernel: LevyKernel, grid=None):
    """Tabulate the multiplier on a radial grid (default: 64 points per
    decade over [1e-3, 1e4]).

    Kernels that are a single power law globally (FractionalPower(beta)
    with PowerTail(alpha), beta == alpha) get a closed-form tag: m(xi) =
    c xi^alpha with ``c = pi / (Gamma(1 + alpha) sin(pi alpha / 2))`` in
    one dimension and ``2 pi 2^-alpha Gamma(1 - alpha/2) / (alpha
    Gamma(1 + alpha/2))`` in two, whose roundoff bound is the table's
    ``quad_tol``.
    """
    if grid is None:
        grid = log_grid()
    grid = np.asarray(grid, dtype=float)

    pure = (
        isinstance(kernel.near, FractionalPower)
        and isinstance(kernel.tail, PowerTail)
        and kernel.near.beta == kernel.tail.alpha
    )
    if pure:
        alpha = kernel.tail.alpha
        if kernel.dimension == 1:
            # sin(pi alpha / 2) = sin(pi (2 - alpha) / 2); the smaller
            # argument keeps the sine accurate as alpha -> 2
            sine = math.sin(0.5 * math.pi * min(alpha, 2.0 - alpha))
            coeff = math.pi / (math.gamma(1.0 + alpha) * sine)
        else:
            gammas = math.gamma(1.0 - 0.5 * alpha) / math.gamma(1.0 + 0.5 * alpha)
            coeff = 2.0 * math.pi * 2.0**-alpha * gammas / alpha
        tag = PurePower(alpha=alpha, coefficient=coeff)
        return SymbolTable(
            dimension=kernel.dimension,
            radial_grid=grid,
            values=tag.coefficient * grid**alpha,
            closed_form=tag,
            quad_tol=PURE_POWER_RTOL,
        )

    if grid.size == 0:
        return SymbolTable(kernel.dimension, grid, np.empty(0), None, 0.0)

    pairs = [_symbol_value_err(kernel, x) for x in grid.tolist()]
    values = np.array([p[0] for p in pairs])
    achieved = max(e / max(abs(v), 1e-300) for v, e in pairs)
    return SymbolTable(
        dimension=kernel.dimension,
        radial_grid=grid,
        values=values,
        closed_form=None,
        quad_tol=float(achieved),
    )

