"""Independent evaluation of the Fourier multiplier of a catalog kernel.

The symbol-catalog workload checks each table written by ``levyheat
symbol`` against this module, which shares no code with
``levyheat.symbol``, ``levyheat.kernels``, ``levyheat.quadrature`` or
``levyheat.bessel``.  Where levyheat integrates oscillatory tails with
QAWF and zero-to-zero Bessel panels, this module rotates the tail
contour into the complex plane (r = 1 + s e^(i theta)), where the integrand
decays without oscillating, and it uses closed forms
(Cin, J1) for the piecewise-constant and bounded near profiles.

    1-D:  m(xi) = 2   int_0^inf (1 - cos(xi r)) J(r) dr
    2-D:  m(xi) = 2pi int_0^inf (1 - J0(xi r)) J(r) r dr
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

EPSREL = 1e-10
_EULER = 0.57721566490153286061


def _oscillating_bands(alpha_osc, band_limit=40):
    """(lo, hi, value) of the dyadic bands of the oscillating profile."""
    bands = []
    for k in range(1, band_limit + 1):
        b_k = 2.0 ** (alpha_osc * k)
        if b_k > 2.0:
            hi = 2.0**-k
            bands.append((hi * (1.0 - 1.0 / b_k), hi, b_k))
    return bands


def _cin(x):
    """Cin(x) = int_0^x (1 - cos u) / u du = gamma + ln x - Ci(x)."""
    if x < 0.5:
        # the power series avoids the cancellation in gamma + ln x - Ci(x)
        return sum(
            (-1) ** (k + 1) * x ** (2 * k) / (2 * k * math.factorial(2 * k)) for k in range(1, 12)
        )
    return _EULER + math.log(x) - special.sici(x)[1]


def _one_minus_j0(x):
    """1 - J0(x) without cancellation for small x."""
    x = np.asarray(x, dtype=float)
    u = 0.25 * x * x
    series = u * (1.0 - u / 4.0 * (1.0 - u / 9.0 * (1.0 - u / 16.0 * (1.0 - u / 25.0))))
    return np.where(x < 0.05, series, 1.0 - special.j0(x))


def _quad(fn, a, b):
    val, _ = integrate.quad(fn, a, b, epsabs=0.0, epsrel=EPSREL, limit=1000)
    return val


class CatalogKernel:
    """A catalog kernel described by its config names and parameters."""

    def __init__(self, dimension, near, near_param, tail, tail_param):
        self.dim = dimension
        self.near, self.a = near, near_param
        self.tail, self.b = tail, tail_param
        self.j_one = near_param if near == "bounded" else 1.0

    def j_near(self, r):
        n, a = self.dim, self.a
        if self.near == "fractional":
            return r ** (-n - a)
        if self.near == "logperturbed":
            return r ** (-n) * math.log(math.e / r) ** (-a)
        raise ValueError(f"no quadrature near part for {self.near!r}")

    def tail_profile(self, r):
        """J on r > 1, continued analytically to complex r."""
        if self.tail == "power":
            return self.j_one * r ** (-self.dim - self.b)
        return self.j_one * np.exp(-self.b * (r - 1.0))

    def tail_mass(self):
        """int_1^inf J(r) r^(N-1) dr."""
        if self.tail == "compact":
            return 0.0
        if self.tail == "power":
            return self.j_one / self.b
        lam = self.b
        return self.j_one / lam if self.dim == 1 else self.j_one * (1.0 / lam + 1.0 / lam**2)

    def near_part(self, xi):
        """int_0^1 (1 - cos xi r) J dr (1-D) or int_0^1 (1 - J0(xi r)) J r dr (2-D)."""
        if self.near == "bounded":
            c0 = self.a
            if self.dim == 1:
                return c0 * (1.0 - math.sin(xi) / xi)
            return c0 * (0.5 - special.j1(xi) / xi)
        if self.dim == 1 and self.near in ("borderline", "oscillating"):
            # J = ell / r with ell piecewise constant: sum of Cin differences
            bands = _oscillating_bands(self.a) if self.near == "oscillating" else []
            total, lo = 0.0, 0.0
            for b_lo, b_hi, val in sorted(bands):
                total += _cin(xi * b_lo) - (_cin(xi * lo) if lo > 0 else 0.0)
                total += val * (_cin(xi * b_hi) - _cin(xi * b_lo))
                lo = b_hi
            return total + _cin(xi) - (_cin(xi * lo) if lo > 0 else 0.0)
        if self.dim == 1:
            return _quad(lambda r: 2.0 * math.sin(0.5 * xi * r) ** 2 * self.j_near(r), 0.0, 1.0)
        return _quad(lambda r: float(_one_minus_j0(xi * r)) * self.j_near(r) * r, 0.0, 1.0)

    def tail_oscillation(self, xi):
        """int_1^inf cos(xi r) J dr (1-D) or int_1^inf J0(xi r) J r dr (2-D).

        Taken as the real part of the e^(i xi r) (or H0^(1)(xi r))
        integral along r = 1 + s e^(i theta), the ray on which the
        integrand decays without oscillating: theta = pi/2 for a power
        tail, theta = atan(xi / lam) for an exponential one.
        """
        if self.tail == "compact":
            return 0.0
        theta = math.pi / 2 if self.tail == "power" else math.atan2(xi, self.b)
        rot = complex(math.cos(theta), math.sin(theta))

        def re_part(s):
            r = 1.0 + s * rot
            if self.dim == 1:
                val = np.exp(1j * xi * r) * self.tail_profile(r)
            else:
                val = special.hankel1(0, xi * r) * self.tail_profile(r) * r
            return (rot * val).real

        return _quad(re_part, 0.0, np.inf)

    def symbol(self, xi):
        xi = float(xi)
        inner = self.near_part(xi) + self.tail_mass() - self.tail_oscillation(xi)
        return 2.0 * inner if self.dim == 1 else 2.0 * math.pi * inner
