"""Time evolution: the exact linear semigroup and a nonlinear stepper.

The linear flow is diagonal in the transform variables,

    u_hat(xi, t) = e^{-m(xi) t} u0_hat(xi),

so propagation is exact in time; the only discretization is the grid
itself.  A run of snapshot times transforms its datum once
(``LinearFlow``): that one spectrum yields every field, and the
Dirichlet energies of the fields in closed form,

    E(u(t)) = (dx^N / n^N) sum' m(xi) e^{-2 m(xi) t} |U0(xi)|^2,

with no transform of a snapshot (sum' is the Parseval sum of
``spectral``).  Each decay factor e^{-m t} is one array, exponentiated
in place, and the energies of a run share one.  A propagator stores m
on the rfftn half lattice only, since m is even, and binding a table to
a grid (``from_table``) evaluates it there, at the lattice's exact
radii.

Both flows and the fundamental solution transform through
``spectral._Lattice``: a datum equal to its mirror image flows on the
first 2^N-th of the lattice, and each snapshot holds only that part.

The fundamental solution is the inverse transform of e^{-m(xi) t} and
exists on a grid only when that factor has decayed below roundoff scale
before the lattice's maximum frequency -- precisely the regime in which
the continuum equation regularizes.

The nonlinear problem  du/dt + L_J Phi(u) = 0  with Phi an odd power
is integrated by linearly stabilised exponential time differencing
(ETD-RK2, Cox & Matthews 2002): the split

    -L Phi(u) = -c L u - L (Phi(u) - c u),   c = sup |Phi'| / 2,

treats the stiff part -c L u exactly in Fourier, and c >= sup Phi' / 2
keeps the residual bounded at any step size (linear stabilisation).
Steps are therefore set by accuracy, dt = 0.05 max(t, 0.05), not by the
lattice's largest frequency, and a run takes the same steps on any
grid.  Snapshot times are landed on exactly by clipping the step, never
by interpolation; the steps are a function of the snapshot times alone
(``step_sizes``).  The stepper carries the solution's spectrum U from
step to step, and a snapshot's energy is read off it,
E(u) = (dx^N / n^N) sum' m(xi) |U(xi)|^2, so neither flow transforms a
snapshot to get its energy.

Both flows are objects built from the datum, which they check at
construction: ``LinearFlow(P, u0)`` and ``NonlinearFlow(P, phi, u0)``.
Both give their snapshots in one shape, ``snapshots(times)``, an
iterator of ``Snapshot(t, part, energy, lattice)`` records in the order
of the times asked for: ``part`` holds u(t) on the lattice part the flow
runs on.  ``Snapshot.norms`` reads the norms off the part, and
``Snapshot.field`` mirrors it out to the whole lattice only when read.
Each snapshot is computed only when it is requested, so a consumer that
lets go of each one before it asks for the next holds one part at a
time.  Both count their own work in ``work``: the
transforms made so far and the points of each, and the stepper's steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import (
    ContractError,
    DomainError,
    GridMismatchError,
    StabilityError,
    UnresolvableMeasureError,
)
from .spectral import FieldNorms, GridField, PeriodicGrid, _Lattice, _decay, _norms, _single
from .symbol import SymbolTable, log_grid


@dataclass(frozen=True)
class LinearPropagator:
    """Multiplier values bound to a grid's frequency lattice: ``half`` is
    m on the rfftn half lattice, shape ``grid.shape[:-1] + (n // 2 + 1,)``
    (m is even, so these columns determine it)."""

    grid: PeriodicGrid
    half: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.half, dtype=float)
        n = self.grid.points_per_axis
        shape = self.grid.shape[:-1] + (n // 2 + 1,)
        if vals.shape != shape:
            raise GridMismatchError(
                f"half-lattice symbol shape {vals.shape} does not match {shape} "
                f"of grid {self.grid.shape}"
            )
        if not np.isfinite(vals).all() or (vals < 0).any():
            raise ContractError("symbol values must be finite and nonnegative")
        zero = (0,) * self.grid.dimension
        if vals[zero] != 0.0:
            raise ContractError(f"symbol at frequency 0 must vanish, got {vals[zero]}")
        object.__setattr__(self, "half", vals)

    @classmethod
    def from_table(cls, grid: PeriodicGrid, tab: SymbolTable):
        """Evaluate a symbol table at the grid's exact frequencies on the
        rfftn half lattice; raises DomainError if the lattice reaches
        outside the table.  The table overwrites the radii array, which
        this call owns, with m in place, so the result is the only
        lattice-sized array it makes; bit-identical to
        ``tab.evaluate(grid.half_freq_radii())``."""
        return cls(grid, tab._evaluate_in_place(grid.half_freq_radii()))

    @staticmethod
    def table_grid(grid: PeriodicGrid):
        """Table radii spanning exactly the lattice's nonzero |xi|, the 2-D
        corner included, for ``from_table``.  The ends are ``grid.radius``
        of the first harmonic and of the Nyquist one, with ``np.hypot`` of
        two Nyquist radii for the 2-D corner -- the values
        ``half_freq_radii`` holds, with no radii array built (2^19 points
        on the reference lattice, which ``from_table`` builds again).  A
        lone radius (1-D, n = 2) is tabulated with one more point an
        octave above it, since interpolation needs two."""
        lo, hi = grid.radius(1.0), grid.radius(grid.points_per_axis // 2)
        if grid.dimension == 2:
            hi = float(np.hypot(hi, hi))
        return log_grid(lo, max(hi, 2.0 * lo))

    @property
    def edge_value(self):
        """Symbol value at the axis Nyquist frequency (resolution edge)."""
        n = self.grid.points_per_axis
        idx = (n // 2,) + (0,) * (self.grid.dimension - 1)
        return float(self.half[idx])


def _check_times(times):
    times = [float(t) for t in times]
    for t in times:
        if not 0 <= t < math.inf:
            raise DomainError(f"times must be finite and nonnegative, got {t}")
    return times


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One snapshot of a flow: the time t, ``part``, the values of u(t) on
    the part of the lattice the flow runs on (``lattice``, a
    ``spectral._Lattice``), in an array of the snapshot's own, and the
    Dirichlet energy E(u(t))."""

    t: float
    part: np.ndarray
    energy: float
    lattice: _Lattice

    @property
    def field(self) -> GridField:
        """u(t) on the whole lattice, made on each read: the part mirrored
        out into an array of its own on the first 2^N-th, else the part
        itself."""
        return self.lattice.field(self.part)

    def norms(self, extra=()) -> FieldNorms:
        """u(t)'s ``FieldNorms`` (with L^p for each p in ``extra``), read
        off the part: equal to ``field_norms(self.field, extra)``,
        bit-identical on the whole lattice and to roundoff on the first
        2^N-th.  Raises ContractError if u(t) is not finite."""
        lat = self.lattice
        return _norms(lat.grid, self.part, lat.copies, extra)


class LinearFlow:
    """The exact linear flow from one datum.

    The datum is transformed once, at construction; its spectrum serves
    both the fields at any snapshot times and their Dirichlet energies.
    """

    def __init__(self, P: LinearPropagator, u0: GridField):
        self.lattice = _Lattice(P.grid, P.half, _single(u0))
        self.spectrum = self.lattice.forward(self.lattice.part(u0.values))

    @property
    def work(self):
        """The transforms made so far, the datum's included, and the
        points of each."""
        return dict(self.lattice.work)

    def snapshots(self, times) -> Iterator[Snapshot]:
        """A ``Snapshot`` for each of ``times`` (finite, >= 0), in the order
        given.  The times are checked, and every energy is read off the
        datum's spectrum, at the call; each field is computed only when
        it is requested."""
        times = _check_times(times)
        lat, U0 = self.lattice, self.spectrum
        w = lat.weight(U0)
        energies, d = [], np.empty_like(w)
        for t in times:
            _decay(lat.m, 2.0 * t, out=d)
            d *= w
            energies.append(lat.parseval(d))
        return (Snapshot(t, lat.decayed(U0, t), e, lat) for t, e in zip(times, energies))


#: resolvability threshold: e^{-m_edge t} must fall below this before
#: the lattice edge, else the discrete fundamental solution aliases
RESOLVABLE_EDGE = 1e-6


def fundamental_solution(P: LinearPropagator, t) -> GridField:
    """Grid surrogate of the kernel of the semigroup at time t > 0.

    Raises UnresolvableMeasureError when e^{-m t} has not decayed at
    the grid's edge frequency -- the bounded-multiplier regime where
    the continuum measure keeps a singular part and no grid resolves
    it.
    """
    if not 0 < t < math.inf:
        raise DomainError(f"time must be positive and finite, got {t}")
    edge = math.exp(-P.edge_value * float(t))
    if edge > RESOLVABLE_EDGE:
        raise UnresolvableMeasureError(
            f"e^(-m t) = {edge:.3e} at the grid edge frequency; the evolution "
            f"measure at t = {t} retains mass beyond the lattice and cannot be "
            f"represented on this grid"
        )
    # the inverse transform centres the kernel on index 0; fftshift moves
    # it to the node x = 0 (index n / 2) on every axis
    kernel = _Lattice(P.grid, P.half).inverse(_decay(P.half, float(t)))
    return GridField(P.grid, np.fft.fftshift(kernel) / P.grid.cell_volume)


@dataclass(frozen=True)
class PhiLaw:
    """Odd-power nonlinearity Phi(z) = |z|^(sigma-1) z on |z| <= M."""

    sigma: float
    M: float = 1.0

    def __post_init__(self):
        if not self.sigma >= 1:
            raise DomainError(f"sigma must be >= 1, got {self.sigma}")
        if not self.M > 0:
            raise DomainError(f"M must be positive, got {self.M}")

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if self.sigma == 1.0:
            return z.copy()
        return np.abs(z) ** (self.sigma - 1.0) * z

    def derivative_bound(self, amplitude):
        """sup |Phi'| on [-amplitude, amplitude] = sigma * amplitude^(sigma-1)."""
        if amplitude == 0.0:
            return 0.0
        return self.sigma * amplitude ** (self.sigma - 1.0)


#: the porous stepper's accuracy rule: dt = STEP_FRACTION * max(t, STEP_T0),
#: clipped to the next snapshot
STEP_FRACTION = 0.05
STEP_T0 = 0.05
#: below |z| = PHI_SERIES_EDGE the phi-functions are summed as Taylor
#: series; above it expm1 carries them, phi2 losing at most ~eps / |z|
PHI_SERIES_EDGE = 0.1
#: Taylor coefficients 1/(k+1)! of phi1 and 1/(k+2)! of phi2, k = 0..11:
#: the first term dropped is below 1e-20 on |z| < PHI_SERIES_EDGE
_PHI1_SERIES = tuple(1.0 / math.factorial(k + 1) for k in range(12))
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(12))


def _phi_functions(z):
    """e^z, phi1(z) = (e^z - 1) / z and phi2(z) = (e^z - 1 - z) / z^2,
    elementwise, for real z <= 0."""
    em1 = np.expm1(z)
    zb = np.minimum(z, -PHI_SERIES_EDGE)  # z where expm1 carries it, no zero divisor
    phi1 = em1 / zb
    phi2 = (em1 - z) / zb / zb
    small = z > -PHI_SERIES_EDGE
    if small.any():
        zs = z[small]
        phi1[small] = polyval(zs, _PHI1_SERIES)  # Horner's rule
        phi2[small] = polyval(zs, _PHI2_SERIES)
    em1 += 1.0
    return em1, phi1, phi2


def step_sizes(times) -> list:
    """The stepper's steps, one list per time of ``times`` (finite,
    nonnegative, never decreasing): the steps from the previous time
    (from 0 for the first) by the rule dt = STEP_FRACTION * max(t,
    STEP_T0), the last one clipped so that the time is landed on
    exactly."""
    times = _check_times(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise DomainError(f"times of a stepped run must not decrease, got {times}")
    t, steps = 0.0, []
    for target in times:
        dts = []
        while t < target - 1e-13 * max(target, 1.0):
            dts.append(min(STEP_FRACTION * max(t, STEP_T0), target - t))
            t += dts[-1]
        t = target
        steps.append(dts)
    return steps


class NonlinearFlow:
    """The porous flow du/dt = -L_J Phi(u) from one datum.

    The datum is checked at construction, its sup-norm against the
    law's bound M, and the flow keeps a copy of its values on the
    flow's lattice (``_Lattice``) until ``snapshots`` hands it to the
    one stream the flow gives.

    Linearly stabilised ETD-RK2 on that lattice.  The stabiliser
    c = sup |Phi'| / 2 is frozen at the start of each snapshot interval
    (the sup-norm never increases, so it stays valid); the spectrum U
    of the solution is carried across steps, and one step costs two
    transforms each way:

        N(v) = -m F[Phi(v) - c v],   z = -c m dt,
        A    = e^z U + dt phi1(z) N(u),
        U'   = A + dt phi2(z) (N(F^-1 A) - N(u)).

    A snapshot's energy is read off the carried spectrum U, with no
    transform of its field.  Growth of the sup-norm by more than 1% in a
    single step aborts with a StabilityError.
    """

    def __init__(self, P: LinearPropagator, phi: PhiLaw, u0: GridField):
        self.lattice = _Lattice(P.grid, P.half, _single(u0))
        self.sup = float(np.max(np.abs(u0.values)))
        if self.sup > phi.M * (1 + 1e-12):
            raise ContractError(
                f"initial sup-norm {self.sup} exceeds the nonlinearity's validity bound M = {phi.M}"
            )
        self.phi = phi
        self.datum = self.lattice.part(u0.values).copy()
        self.steps = []

    @property
    def work(self):
        """The transforms made so far and the points of each, and the
        steps taken so far: their count, the smallest and the largest
        (None before the first)."""
        dts = self.steps
        return {
            **self.lattice.work,
            "evolve.steps": len(dts),
            "evolve.dt_min": min(dts, default=None),
            "evolve.dt_max": max(dts, default=None),
        }

    def snapshots(self, times) -> Iterator[Snapshot]:
        """A ``Snapshot`` for each of ``times``, in order.  The times are
        checked against ``step_sizes``, which fixes every step, at the
        call; the stream steps to each time only when its snapshot is
        requested.  The stream steps the flow's copy of the datum in
        place of a copy of its own, so a flow gives one stream."""
        times = _check_times(times)
        steps = step_sizes(times)
        if self.datum is None:
            raise ContractError("a NonlinearFlow gives its snapshots once")
        u, self.datum = self.datum, None
        return self._stepped(u, times, steps)

    def _stepped(self, u, times, steps):
        lat, phi, sup = self.lattice, self.phi, self.sup
        neg_m = -lat.m
        U = lat.forward(u)
        t = 0.0
        for target, dts in zip(times, steps):
            c = 0.5 * phi.derivative_bound(sup)
            lin = c * neg_m

            def residual(v):  # N(v)
                return lat.forward(phi(v) - c * v) * neg_m

            for dt in dts:
                ez, phi1, phi2 = _phi_functions(lin * dt)
                N = residual(u)
                A = ez * U + dt * phi1 * N
                N_a = residual(lat.inverse(A))
                U = A + dt * phi2 * (N_a - N)
                u_next = lat.inverse(U)
                sup_next = float(np.max(np.abs(u_next)))
                if sup_next > sup * 1.01 + 1e-300:
                    raise StabilityError(
                        f"sup-norm grew {sup:.6e} -> {sup_next:.6e} in one step at "
                        f"t = {t:.6e}",
                        dt=dt,
                    )
                u = u_next
                sup = sup_next
                t += dt
                self.steps.append(dt)
            t = target
            # a copy: the stream's next step reads u
            yield Snapshot(target, u.copy(), lat.parseval(lat.weight(U)), lat)
