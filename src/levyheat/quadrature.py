"""Quadrature helpers of the multiplier engine.

One QUADPACK body, ``adaptive_quad``, integrates every finite piece
``scipy.integrate.quad`` takes: by adaptive Gauss-Kronrod subdivision,
or with ``omega`` by the cosine-weighted rule (QAWO).
``scipy.integrate`` (and the ``scipy.optimize``, ``scipy.linalg`` and
``scipy.sparse`` it loads) is imported at the first call that
integrates, so a run whose multiplier is all closed forms never loads
it.  Infinite oscillatory tails, under a cosine or a Bessel weight
alike, go to a vectorized Gauss-Legendre panel scheme that integrates
between consecutive zeros of the oscillating factor and sums the panel
series by Euler's transform.

All routines return ``(value, error_estimate)`` so callers can propagate
an honest achieved tolerance.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

#: the relative tolerance and the absolute floor of every QUADPACK call
PART_RTOL = 1e-9
ABS_FLOOR = 1e-14


def adaptive_quad(fn, a, b, *, breakpoints=(), omega=None):
    """QUADPACK on a finite interval, to ``PART_RTOL``: ``int_a^b fn``
    with explicit breakpoints, or with ``omega`` ``int_a^b fn(r) cos(omega r) dr``
    by the cosine-weighted rule (QAWO), which takes no breakpoints.

    Breakpoints outside the open interval are dropped; one inside it
    with ``omega`` is a ValueError.  Singular endpoints are fine:
    QUADPACK's extrapolation handles integrable endpoint singularities.
    An empty or reversed interval gives (0, 0).
    """
    if b <= a:
        return 0.0, 0.0
    from scipy import integrate

    pts = sorted(p for p in breakpoints if a < p < b)
    if omega is None:
        rule = {"points": pts or None, "limit": 100 + 2 * len(pts)}
    elif pts:
        raise ValueError(f"the cosine-weighted rule takes no breakpoints, got {pts}")
    else:
        rule = {"weight": "cos", "wvar": omega, "limit": 200}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(fn, a, b, epsabs=ABS_FLOOR, epsrel=PART_RTOL, **rule)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gauss_panel_sums(fn_vec, edges):
    """Integrals of a vectorized integrand over consecutive panels.

    ``edges`` is an increasing array of panel boundaries; the return
    value holds one 16-point Gauss-Legendre integral per panel.  With
    panels no wider than half an oscillation the rule is accurate to
    machine precision, and a single vectorized call evaluates all
    panels at once.
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = fn_vec(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ _GL_WEIGHTS)


def accelerated_panel_tail(fn_vec, edges):
    """Sum of panel integrals accelerated as an alternating series.

    ``edges`` should straddle consecutive zeros of the oscillatory
    factor inside ``fn_vec`` so that panel contributions alternate in
    sign.  Euler's transform sums the n partial sums S_k as their
    binomial average ``sum C(n-1, k) S_k / 2^(n-1)``, converging like
    2^-n on a decaying tail.  The error estimate is the change on
    dropping the last partial sum plus a roundoff floor.
    """
    terms = gauss_panel_sums(fn_vec, edges)
    partial = np.cumsum(terms)
    value = float(_binomial_weights(partial.size) @ partial)
    shorter = float(_binomial_weights(partial.size - 1) @ partial[:-1])
    floor = 8.0 * np.finfo(float).eps * abs(value) + 1e-16 * np.abs(terms).sum()
    return value, abs(value - shorter) + floor


@functools.cache
def _binomial_weights(n):
    """Weights ``C(n-1, k) / 2^(n-1)``, k = 0..n-1, of Euler's transform."""
    return np.array([math.comb(n - 1, k) for k in range(n)]) / 2.0 ** (n - 1)


def j0_zero(k):
    """k-th positive zero of J0 by McMahon's expansion (k >= 1).

    Used only to place oscillation panel edges, where a relative error
    of 1e-6 is irrelevant.
    """
    k = np.asarray(k, dtype=float)
    beta = (k - 0.25) * np.pi
    b8 = 8.0 * beta
    return beta + 1.0 / b8 - 124.0 / (3.0 * b8**3) + 120928.0 / (15.0 * b8**5)


def zero_panel_edges(lo, hi, omega, weight, breakpoints=()):
    """Edges on [lo, hi] at the zeros of cos(omega r), (k + 1/2) pi / omega
    for ``weight`` "cos", or of J0(omega r), ``j0_zero(k) / omega`` for "j0",
    plus the breakpoints inside; with ``hi = inf``, lo and the next 61
    zeros, the panels of ``accelerated_panel_tail``."""
    first, shift = (0, 0.5) if weight == "cos" else (1, 0.25)
    k_lo = max(first, int(math.ceil(omega * lo / math.pi - shift)))
    finite = not math.isinf(hi)
    k_hi = max(k_lo, int(math.ceil(omega * hi / math.pi + 1.0))) if finite else k_lo + 60
    k = np.arange(k_lo, k_hi + 1)
    zeros = (k + 0.5) * math.pi / omega if weight == "cos" else j0_zero(k) / omega
    zeros = zeros[(zeros > lo) & (zeros < hi)]
    inner = np.asarray([p for p in breakpoints if lo < p < hi])
    return np.union1d(np.union1d(zeros, inner), [lo, hi] if finite else [lo])
