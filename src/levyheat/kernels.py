"""Radial Levy jump kernels assembled from a catalog of profiles.

A kernel is the pair of a near-origin profile on ``0 < |z| <= 1`` and a
tail profile on ``|z| > 1``, glued continuously at ``|z| = 1`` by a
matching constant whenever both sides are positive.  The near behaviour
is the profile function

    ell(r) = r^N J(r).

A near profile answers ``j``, which the direct form and the multiplier
quadrature evaluate; the singular ones (all but bounded) also give
``int_symbol_measure(a) = int_a^1 ell(r)/r dr`` in closed form, and the
piecewise-constant ones (borderline, oscillating) store ell itself as
``steps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import sici

from .errors import DomainError

#: deepest oscillation band kept in the Oscillating profile; below
#: ``2**-OSC_BAND_LIMIT`` the profile continues with ell = 1.
OSC_BAND_LIMIT = 40


# ---------------------------------------------------------------------------
# near-origin profiles (define J on 0 < r <= 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalPower:
    """``J(z) = |z|^(-N-beta)``, the fractional-Laplacian-type singularity.

    ``beta`` in (0, 2) is the admissible range: outside it the Levy
    condition ``int J min(|z|^2, 1) dz < inf`` fails at the origin.
    """

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < 2:
            raise DomainError(f"FractionalPower needs beta in (0, 2), got {self.beta}")

    def j(self, r, dim):
        return r ** (-dim - self.beta)

    def int_symbol_measure(self, a):
        # int_a^1 ell(r)/r dr = int_a^1 r^(-1-beta) dr
        return (a**-self.beta - 1.0) / self.beta

    def cos_transform_near(self, omega):
        """``int_0^1 (1 - cos(omega r)) J(r) dr`` in one dimension, omega > 0,
        as (value, error bound): closed form for beta = 1, None for any
        other beta (the symbol engine then calls QUADPACK).

        With u = omega r this is ``omega A(omega)``, with the alpha = 1
        antiderivative ``A(u) = Si u - 2 sin^2(u/2) / u`` of
        ``PowerTail.cos_transform_head`` (A(0) = 0).  A rises from u/2
        near 0 to pi/2 and stays above a third of its terms' sum, and Si
        and sin carry about one ulp of their value, so the bound is
        relative to the terms (no Ci, hence no floor of one).
        """
        if self.beta != 1.0:
            return None
        terms = _one_minus_cos_antiderivative(1.0, omega)
        return omega * math.fsum(terms), omega * 4.0 * _EPS * sum(map(abs, terms))


@dataclass(frozen=True)
class Borderline:
    """``J(z) = |z|^-N``: ell is identically one, the threshold case."""

    #: ell as constant steps (see ``Oscillating.steps``): one step of 1
    steps = (np.array([0.0, 1.0]), np.array([1.0]))

    def j(self, r, dim):
        return r**-dim

    def ell(self, r):
        return 1.0 + 0.0 * r

    def int_symbol_measure(self, a):
        return math.log(1.0 / a)


@dataclass(frozen=True)
class LogPerturbed:
    """``J(z) = |z|^-N log(e/|z|)^-p`` with ``0 < p <= 1``.

    A logarithmic thinning of the borderline kernel; the ``e`` inside
    the logarithm pins ``J = 1`` at ``|z| = 1`` while keeping the same
    origin asymptotics as ``|z|^-N log(1/|z|)^-p``.
    """

    p: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise DomainError(f"LogPerturbed needs p in (0, 1], got {self.p}")

    def j(self, r, dim):
        return r**-dim * np.log(np.e / r) ** -self.p

    def int_symbol_measure(self, a):
        # substitute u = log(e/r): int_a^1 ell/r dr = int_1^{log(e/a)} u^-p du
        u = math.log(math.e / a)
        if self.p == 1.0:
            return math.log(u)
        q = 1.0 - self.p
        return (u**q - 1.0) / q


@dataclass(frozen=True)
class Bounded:
    """``J(z) = c0`` near the origin: no singularity at all."""

    c0: float

    def __post_init__(self):
        if not self.c0 > 0:
            raise DomainError(f"Bounded needs c0 > 0, got {self.c0}")

    def j(self, r, dim):
        return self.c0 + 0.0 * r


@dataclass(frozen=True)
class Oscillating:
    """Dyadic bands where ell jumps to ``b_k = 2^(alpha_osc k)`` and back to 1.

    Inside the dyadic block ``(2^-k-1, 2^-k]`` the profile equals ``b_k``
    on the thin band ``(a_k, 2^-k]`` with ``a_k = 2^-k (1 - 1/b_k)`` and
    one elsewhere, so ell is unbounded along the band tops while the mass
    ``int_r^1 ell(s)/s ds`` still grows only linearly in k.  Bands with
    ``b_k <= 2`` would overlap their dyadic block and are skipped; the
    construction stops at ``k = OSC_BAND_LIMIT``, or earlier at the first
    band whose edges coincide in double precision (``1/b_k`` at or below
    half an ulp of 1, from about ``alpha_osc * k = 54`` on), since it and
    every later band would be empty.
    """

    alpha_osc: float

    def __post_init__(self):
        if not self.alpha_osc >= 0:
            raise DomainError(f"Oscillating needs alpha_osc >= 0, got {self.alpha_osc}")

    @cached_property
    def bands(self):
        """Active bands as (lo, hi, value) with lo = 2^-k (1 - 1/b_k)."""
        out = []
        for k in range(1, OSC_BAND_LIMIT + 1):
            b_k = 2.0 ** (self.alpha_osc * k)
            if b_k <= 2.0:
                continue
            hi = 2.0**-k
            lo = hi * (1.0 - 1.0 / b_k)
            if lo == hi:
                break
            out.append((lo, hi, b_k))
        return tuple(out)

    @cached_property
    def steps(self):
        """ell on (0, 1] as constant steps ``(edges, values)``: ell equals
        ``values[i]`` on ``(edges[i], edges[i+1]]``, from 0 up to 1."""
        edges, values = [0.0], []
        for lo, hi, b_k in reversed(self.bands):
            edges += [lo, hi]
            values += [1.0, b_k]
        return np.array([*edges, 1.0]), np.array([*values, 1.0])

    def ell(self, r):
        edges, values = self.steps
        # the outermost steps are ell = 1, so clipping continues ell = 1
        # outside (0, 1]
        return values.take(np.searchsorted(edges, r) - 1, mode="clip")

    def j(self, r, dim):
        return self.ell(r) * r**-dim

    def int_symbol_measure(self, a):
        edges, values = self.steps
        lo, hi = np.maximum(edges[:-1], a), np.minimum(edges[1:], 1.0)
        keep = hi > lo
        return float(np.sum(values[keep] * np.log(hi[keep] / lo[keep])))


# ---------------------------------------------------------------------------
# tail profiles (define J on r > 1, up to the matching constant)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerTail:
    """``J(z) = matching * |z|^(-N-alpha)`` beyond the unit ball.

    ``alpha`` in (0, 2] is the range the decay theory addresses;
    ``exponent`` caps the reported exponent at 2 regardless.
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"PowerTail needs alpha > 0, got {self.alpha}")

    def matching(self, ell1):
        return ell1

    def j(self, r, dim, match):
        return match * r ** (-dim - self.alpha)

    def int_measure(self, a, dim, match):
        # int_a^inf J r^(dim-1) dr; the r powers cancel to r^(-1-alpha)
        return match * a**-self.alpha / self.alpha

    def cos_transform_tail(self, a, omega, match):
        """``int_a^inf cos(omega r) J(r) dr`` in one dimension as (value,
        error bound): closed form for alpha = 1 and 2, None for any other
        alpha (the symbol engine then sums zero-to-zero panels).

        With x = omega a this is ``match omega^alpha I(x)``, where

            I(x) = int_x^inf cos(u) u^(-1-alpha) du = Re x^-alpha E_{alpha+1}(-ix),

        i.e. ``cos x / x - (pi/2 - Si x)`` for alpha = 1 and
        ``cos x / (2x^2) - sin x / (2x) + Ci(x) / 2`` for alpha = 2.  That
        Si/Ci form loses about x- to x^2-fold to cancellation, so it is
        used only below ``SICI_MAX_X``; above it the continued fraction
        of E_{alpha+1} gives I with no cancellation.
        """
        if self.alpha not in (1.0, 2.0):
            return None
        value, err = _power_cos_tail(self.alpha, omega * a)
        scale = match * omega**self.alpha
        return scale * value, scale * err

    def cos_transform_head(self, omega, match):
        """``int_1^(pi/omega) (1 - cos(omega r)) J(r) dr`` in one dimension,
        for 0 < omega < pi, as (value, error bound): closed form for
        alpha = 1 and 2, None for any other alpha (the symbol engine then
        calls QUADPACK).

        With u = omega r this is ``match omega^alpha K(omega)``, where

            K(x) = int_x^pi (1 - cos u) u^(-1-alpha) du = A(pi) - A(x)

        with antiderivative ``A(u) = Si u - 2 sin^2(u/2) / u`` for alpha = 1
        and ``Ci(u) / 2 - sin u / (2u) - sin^2(u/2) / u^2`` for alpha = 2.
        K vanishes as omega -> pi, where A(pi) - A(x) cancels, so the bound
        is a roundoff bound on the terms, not relative to K: it is small
        against the multiplier, which the other parts keep of order
        omega^alpha.
        """
        if self.alpha not in (1.0, 2.0):
            return None
        value, err = _power_cos_head(self.alpha, omega)
        scale = match * omega**self.alpha
        return scale * value, scale * err

    def exponent(self):
        return min(self.alpha, 2.0)


def _one_minus_cos_antiderivative(alpha, u):
    """The terms of A(u), an antiderivative of ``(1 - cos u) u^(-1-alpha)``
    for alpha in {1, 2}; see ``PowerTail.cos_transform_head``."""
    si, ci = sici(u)
    one_minus_cos = 2.0 * math.sin(0.5 * u) ** 2
    if alpha == 1.0:
        return [si, -one_minus_cos / u]
    return [0.5 * ci, -0.5 * math.sin(u) / u, -0.5 * one_minus_cos / (u * u)]


def _power_cos_head(alpha, x):
    """(K(x), error bound) for K(x) = int_x^pi (1 - cos u) u^(-1-alpha) du,
    alpha in {1, 2}, 0 < x < pi; see ``PowerTail.cos_transform_head``."""
    terms = _one_minus_cos_antiderivative(alpha, math.pi)
    terms += [-t for t in _one_minus_cos_antiderivative(alpha, x)]
    # as in _power_cos_tail: Si and Ci carry about one ulp of max(1, |value|)
    return math.fsum(terms), 4.0 * _EPS * (sum(map(abs, terms)) + 1.0)


#: the Si/Ci form of ``PowerTail.cos_transform_tail`` serves x below this
#: (error under 2e-14 of the integral's envelope); the continued fraction
#: serves the rest in at most ~40 terms
SICI_MAX_X = 8.0

_EPS = np.finfo(float).eps


def _power_cos_tail(alpha, x):
    """(I(x), error bound) for I(x) = int_x^inf cos(u) u^(-1-alpha) du,
    alpha in {1, 2}, x > 0; see ``PowerTail.cos_transform_tail``."""
    if x < SICI_MAX_X:
        si, ci = sici(x)
        c, s = math.cos(x), math.sin(x)
        if alpha == 1.0:
            terms = (c / x, si - 0.5 * math.pi)
        else:
            terms = (0.5 * c / (x * x), -0.5 * s / x, 0.5 * ci)
        # Si and Ci carry about one ulp of max(1, |value|)
        return math.fsum(terms), 4.0 * _EPS * (sum(map(abs, terms)) + 1.0)
    # h = e^z E_n(z) at z = -ix, n = alpha + 1, by the modified Lentz
    # algorithm, so that int_x^inf e^(iu) u^-n du = x^-alpha e^(ix) h
    n = alpha + 1.0
    b = complex(n, -x)
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
    w = x**-alpha * complex(math.cos(x), math.sin(x)) * h
    return w.real, (2 * i + 8) * _EPS * abs(w)


@dataclass(frozen=True)
class CompactSupport:
    """``J = 0`` beyond the unit ball."""

    def matching(self, ell1):
        return 1.0  # nothing to match against

    def j(self, r, dim, match):
        return 0.0 * r

    def exponent(self):
        return 2.0


@dataclass(frozen=True)
class ExponentialTail:
    """``J(z) = matching * exp(-lam (|z| - 1))`` beyond the unit ball: the
    matching constant is J at |z| = 1 itself, finite for every lam > 0."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError(f"ExponentialTail needs lam > 0, got {self.lam}")

    def matching(self, ell1):
        return ell1

    def j(self, r, dim, match):
        return match * np.exp(-self.lam * (r - 1.0))

    def int_measure(self, a, dim, match):
        lam = self.lam
        if dim == 1:
            return match * math.exp(-lam * (a - 1.0)) / lam
        return match * math.exp(-lam * (a - 1.0)) * (a / lam + 1.0 / lam**2)

    def cos_transform_tail(self, a, omega, match):
        # Re int_a^inf e^(-lam (r - 1) + i omega r) dr, one dimension
        c = complex(self.lam, -omega)
        w = np.exp(complex(-self.lam * (a - 1.0), omega * a)) / c
        return match * w.real, 4.0 * _EPS * match * abs(w)

    def exponent(self):
        return 2.0


NEAR_PROFILES = (FractionalPower, Borderline, LogPerturbed, Bounded, Oscillating)
TAIL_PROFILES = (PowerTail, CompactSupport, ExponentialTail)


# ---------------------------------------------------------------------------
# the kernel itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyKernel:
    """A radial jump kernel on R^N, N in {1, 2}.

    ``matching_constant`` scales the tail profile so that J is
    continuous at ``|z| = 1`` where both profiles are positive; it is
    derived, not chosen.
    """

    dimension: int
    near: object
    tail: object
    matching_constant: float = field(init=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.dimension}")
        if not isinstance(self.near, NEAR_PROFILES):
            raise DomainError(f"unknown near profile {self.near!r}")
        if not isinstance(self.tail, TAIL_PROFILES):
            raise DomainError(f"unknown tail profile {self.tail!r}")
        match = self.tail.matching(float(self.near.j(1.0, self.dimension)))
        object.__setattr__(self, "matching_constant", match)

    # -- radial evaluation ---------------------------------------------------

    def eval_radial(self, r):
        """J at radius r > 0 (vectorized)."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if (r <= 0).any():
            raise DomainError("kernel radius must be positive")
        out = np.empty_like(r)
        near = r <= 1.0
        if near.any():
            out[near] = self.near.j(r[near], self.dimension)
        if (~near).any():
            out[~near] = self.tail.j(r[~near], self.dimension, self.matching_constant)
        return out[0] if scalar else out

