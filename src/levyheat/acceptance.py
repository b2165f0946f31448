"""Runnable verification battery: twelve numbered end-to-end checks.

Each criterion pins one headline capability of the package -- symbol
accuracy against the exact Cauchy multiplier, fundamental-solution
asymptotics, decay-rate fits for linear and porous-medium flows, the
structural inequalities (smoothing bound, Stroock-Varopoulos, Nash),
agreement of the two independent Dirichlet-form routes, the exponent
algebra, and the regularity trichotomy.  Seeds, grids and tolerances
are fixed so a run is bit-reproducible; expensive experiment artifacts
are memoized and shared between criteria.

``run_criterion`` runs one criterion, memoized per process;
``tests/test_acceptance.py`` calls it for each number of
``CRITERION_NUMBERS``.  ``run_battery`` is the battery's one schedule,
which the ``verify`` CLI subcommand prints: the 2^20-point power-tail
run (``_bounded_tail_run``) is about half the battery and only the
criteria of ``TAIL_RUN_READERS`` read it, so it is computed on a worker
thread while the calling thread evaluates the other criteria.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import (
    CONVERGENT,
    DIVERGENT,
    dirichlet_form_direct,
    dirichlet_form_spectral,
    fit_decay_exponent,
    fit_late_decay,
    generalized_sv_check,
    log_symbol_slope,
    nash_dilation_sweep,
    regularizing_diagnostic,
    rho_eps,
    stroock_varopoulos_check,
    theta_exponents,
)
from .errors import DomainError
from .evolve import (
    LinearFlow,
    LinearPropagator,
    NonlinearFlow,
    PhiLaw,
    fundamental_solution,
)
from .kernels import (
    Borderline,
    Bounded,
    CompactSupport,
    FractionalPower,
    LevyKernel,
    Oscillating,
    PowerTail,
)
from .spectral import (
    GridField,
    PeriodicGrid,
    box_field,
    delta_surrogate,
    field_norms,
    lp_norm,
    random_band_limited,
    random_nonnegative,
)
from .symbol import build_symbol_table, log_grid, symbol_quadrature

#: threshold for the periodic-domain escape guard: boundary values must
#: stay below this fraction of the sup-norm throughout a run
ESCAPE_GUARD = 1e-6

#: exponent pairs (a, b), a + b = 2, of criterion 6's Stroock-Varopoulos
#: sweep; E is symmetric, so (b, a) would repeat (a, b) bit for bit
SV_EXPONENT_PAIRS = ((0.5, 1.5), (0.25, 1.75))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] criterion {self.number:2d}  {self.title}: {self.detail}"


# ---------------------------------------------------------------------------
# shared experiment artifacts (memoized)
# ---------------------------------------------------------------------------


@functools.cache
def _cauchy_kernel():
    return LevyKernel(near=FractionalPower(1.0), tail=PowerTail(1.0), dimension=1)


@functools.cache
def _cauchy_table():
    return build_symbol_table(_cauchy_kernel())


@functools.cache
def _integrable_kernel():
    return LevyKernel(near=Bounded(0.7), tail=CompactSupport(), dimension=1)


@functools.cache
def _integrable_table():
    return build_symbol_table(_integrable_kernel())


def _norm_bookkeeping(first, snapshots):
    """One pass over a run's ``Snapshot`` stream, consumed one snapshot at
    a time and read on the flow's own part of the lattice, against the
    datum's ``FieldNorms`` ``first``.

    Returns the mass drift, the worst p-norm increase (p = 1, 2, inf)
    between consecutive snapshots, the L2/L4/sup series, the worst
    face-to-sup ratio and the worst smoothing ratio
    E(u(t)) / (||u0||_2^2 / (2 e t)).
    """
    prev = first.lp
    l2_sq = prev[2] ** 2
    drift, increase, guard, energy_ratio = 0.0, -np.inf, 0.0, -np.inf
    l2, l4, sups = [], [], []
    for snap in snapshots:
        cur, t, energy = snap.norms(), snap.t, snap.energy
        del snap  # release this snapshot before the next is computed
        drift = max(drift, abs(cur.mass - first.mass))
        increase = max(increase, *(cur.lp[p] - prev[p] for p in (1, 2, np.inf)))
        prev = cur.lp
        l2.append(prev[2])
        l4.append(prev[4])
        sups.append(prev[np.inf])
        guard = max(guard, cur.face_ratio)
        energy_ratio = max(energy_ratio, energy / (l2_sq / (2.0 * math.e * t)))
    return {
        "mass_drift": drift,
        "norm_increase": increase,
        "l2": l2,
        "l4": l4,
        "sups": sups,
        "guard_max": guard,
        "energy_ratio": energy_ratio,
    }


@functools.cache
def _poisson_run():
    """m(xi) = |xi| on a long 1d grid: the exact Cauchy/Poisson flow.

    Returns the fundamental-solution sup-norm gaps at t in {1, 2, 5},
    the sup-norm decay series on [1, 50], and the conservation/energy
    bookkeeping of the matching delta-surrogate evolution.
    """
    grid = PeriodicGrid(dimension=1, half_width=512.0, points_per_axis=2**15)
    P = LinearPropagator(grid, grid.half_freq_radii())
    x = grid.axis

    gaps = {}
    for t in (1.0, 2.0, 5.0):
        mu = fundamental_solution(P, t)
        exact = t / (math.pi * (t * t + x * x))
        gaps[t] = float(np.max(np.abs(mu.values - exact)) / exact.max())

    times = np.geomspace(1.0, 50.0, 14)
    sup_series = [
        (float(t), lp_norm(fundamental_solution(P, float(t)), np.inf)) for t in times
    ]

    u0 = delta_surrogate(grid)
    book = _norm_bookkeeping(field_norms(u0), LinearFlow(P, u0).snapshots(times))
    return {"gaps": gaps, "sup_series": sup_series, **book}


@functools.cache
def _bounded_tail_run():
    """Bounded profile + power tail alpha = 1: the tail-driven linear flow.

    The box datum spreads on a domain wide enough that boundary values
    stay below the escape-guard threshold out to t = 30.
    """
    kernel = LevyKernel(near=Bounded(1.0), tail=PowerTail(1.0), dimension=1)
    grid = PeriodicGrid(dimension=1, half_width=262144.0, points_per_axis=2**20)
    tab = build_symbol_table(kernel, LinearPropagator.table_grid(grid))
    P = LinearPropagator.from_table(grid, tab)

    u0 = box_field(grid, width=4.0)
    flow, first = LinearFlow(P, u0), field_norms(u0)
    del u0  # no snapshot reads the datum again: the flow keeps its spectrum
    times = np.geomspace(1.0, 30.0, 16)
    book = _norm_bookkeeping(first, flow.snapshots(times))
    return {"kernel": kernel, "times": times, "sup0": first.lp[np.inf], **book}


@functools.cache
def _porous_run():
    """sigma = 2 porous-medium flow under the alpha = 1 multiplier."""
    grid = PeriodicGrid(dimension=1, half_width=4096.0, points_per_axis=2**14)
    P = LinearPropagator.from_table(grid, _cauchy_table())
    u0 = box_field(grid, width=2.0)
    times = np.geomspace(1.0, 300.0, 20)
    snapshots = NonlinearFlow(P, PhiLaw(2.0, M=1.0), u0).snapshots(times)
    return {"times": times, **_norm_bookkeeping(field_norms(u0), snapshots)}


@functools.cache
def _sigma1_crosscheck():
    """sigma = 1 through the porous stepper vs. the exact semigroup.

    The stepper's stabiliser c = Phi' / 2 leaves the residual L u / 2 to
    its Runge-Kutta stages, so the comparison tests the splitting."""
    grid = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=1024)
    P = LinearPropagator.from_table(grid, _cauchy_table())
    u0 = box_field(grid, width=2.0)
    snaps = (0.25, 0.5, 1.0)
    stepped = NonlinearFlow(P, PhiLaw(1.0, M=1.0), u0).snapshots(snaps)
    exact = list(LinearFlow(P, u0).snapshots(snaps))
    worst = max(
        lp_norm(GridField(grid, s.field.values - e.field.values), 2) / lp_norm(e.field, 2)
        for s, e in zip(stepped, exact)
    )
    return {"worst_rel_l2": worst, **_norm_bookkeeping(field_norms(u0), exact)}


# ---------------------------------------------------------------------------
# the twelve criteria
# ---------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    """The symbol engine matches pi |xi| for the Cauchy kernel.

    Every part of that symbol is a closed form, and with it the battery
    calls no QUADPACK at all; tier-1 pins QUADPACK's 1-D near route with
    the ``fractional_power_1d`` (beta = 1/2) and ``logperturbed_*``
    references of ``tests/test_symbol.py``."""
    tol = 1e-6
    xis = np.geomspace(1e-2, 1e2, 81)
    worst = max(
        abs(symbol_quadrature(_cauchy_kernel(), xi) - math.pi * xi) / (math.pi * xi)
        for xi in xis
    )
    return CriterionResult(
        1,
        "symbol vs. exact Cauchy multiplier",
        worst <= tol,
        f"max rel err {worst:.2e} over {len(xis)} frequencies (tol {tol:g})",
    )


def criterion_2() -> CriterionResult:
    """Fundamental solution reproduces the Poisson kernel and its decay,
    whose sup-norm rate is rho_eps's limit p = inf (exact for this kernel)."""
    run = _poisson_run()
    worst_gap = max(run["gaps"].values())
    fit = fit_decay_exponent(run["sup_series"])
    tol = 0.03
    target, _ = rho_eps(1.0, math.inf, 1, _cauchy_kernel().tail.exponent(), 1.0)
    ok = worst_gap <= 0.02 and abs(fit.exponent - target) <= tol
    return CriterionResult(
        2,
        "Poisson-kernel profile and sup-norm decay",
        ok,
        f"sup gap {worst_gap:.2e} (tol 2e-2), fitted exponent {fit.exponent:.4f} "
        f"(target {target:.2f} +- {tol:g})",
    )


def criterion_3() -> CriterionResult:
    """Tail-driven decay rates: L2 and L4 norms of the bounded-profile flow."""
    run = _bounded_tail_run()
    tol = 0.10
    kernel = run["kernel"]
    t2, t4 = rho_eps(1.0, np.array([2.0, 4.0]), kernel.dimension, kernel.tail.exponent(), 1.0)[0]
    fit2 = fit_late_decay(list(zip(run["times"], run["l2"])))
    fit4 = fit_late_decay(list(zip(run["times"], run["l4"])))
    ok = (
        abs(fit2.exponent - t2) <= tol * t2
        and abs(fit4.exponent - t4) <= tol * t4
        and run["guard_max"] <= ESCAPE_GUARD
    )
    return CriterionResult(
        3,
        "decay exponents for the power-tail kernel",
        ok,
        f"L2 exponent {fit2.exponent:.4f} (target {t2:.2f} +- {tol:.0%}), "
        f"L4 exponent {fit4.exponent:.4f} (target {t4:.2f} +- {tol:.0%}), "
        f"escape guard {run['guard_max']:.2e} (tol {ESCAPE_GUARD:g})",
    )


def criterion_4() -> CriterionResult:
    """Mass conservation and Lp contraction for linear and porous flows."""
    tol = 1e-10
    runs = (_poisson_run(), _bounded_tail_run(), _porous_run())
    worst_drift = max(run["mass_drift"] for run in runs)
    worst_increase = max(run["norm_increase"] for run in runs)
    ok = worst_drift <= tol and worst_increase <= tol
    return CriterionResult(
        4,
        "mass conservation and norm contraction",
        ok,
        f"mass drift {worst_drift:.2e}, worst p-norm increase {worst_increase:.2e} "
        f"(tol {tol:g})",
    )


def criterion_5() -> CriterionResult:
    """Smoothing bound E(u(t)) <= |u0|_2^2 / (2 e t) on every linear run."""
    slack = 1.0 + 1e-12
    runs = (_poisson_run(), _bounded_tail_run(), _sigma1_crosscheck())
    worst = max(run["energy_ratio"] for run in runs)
    return CriterionResult(
        5,
        "Dirichlet-form smoothing bound",
        worst <= slack,
        f"max E(u(t)) / bound = {worst:.6f} (must stay <= 1 + 1e-12)",
    )


def criterion_6() -> CriterionResult:
    """Stroock-Varopoulos margins over seeded nonnegative fields."""
    grid = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(grid, _integrable_table())
    fails = 0
    worst = np.inf
    # one field per seed, each batch transformed as one stack
    for rep in stroock_varopoulos_check(
        P, random_nonnegative(grid, range(7000, 8000)), SV_EXPONENT_PAIRS
    ):
        fails += int(np.count_nonzero(~rep.passed))
        pos = rep.reference > 0
        worst = min(worst, float(np.min(rep.margin[pos] / rep.reference[pos], initial=np.inf)))
    rep = generalized_sv_check(P, random_nonnegative(grid, range(9000, 9500)), 2.0, 2.0)
    fails += int(np.count_nonzero(~rep.passed))
    checks = 1000 * len(SV_EXPONENT_PAIRS) + 500
    return CriterionResult(
        6,
        "Stroock-Varopoulos inequality sweep",
        fails == 0,
        f"{checks} checks, {fails} failures, worst normalized margin {worst:.2e}",
    )


def criterion_7() -> CriterionResult:
    """Nash-profile lower bound across dilations, stable under refinement."""
    d = 1.0 / 3.0  # N (2 - r) / (r alpha) at r = 3/2, alpha = 1, N = 1
    tab = _cauchy_table()
    reports = []
    for exponent in (17, 18):
        grid = PeriodicGrid(dimension=1, half_width=256.0, points_per_axis=2**exponent)
        P = LinearPropagator.from_table(grid, tab)
        reports.append(nash_dilation_sweep(P, d, r_norm=1.5))
    coarse, fine = reports
    branches_ok = (
        coarse.branch_poincare >= 10
        and coarse.branch_nash >= 10
        and coarse.min_ratio > 0
    )
    shift = abs(fine.min_ratio - coarse.min_ratio) / coarse.min_ratio
    ok = branches_ok and shift < 0.2
    return CriterionResult(
        7,
        "Nash dilation sweep",
        ok,
        f"branches {coarse.branch_poincare}/{coarse.branch_nash}, "
        f"min ratio {coarse.min_ratio:.3f}, refinement shift {shift:.2e} (tol 0.2)",
    )


def criterion_8() -> CriterionResult:
    """Regularity trichotomy on the four reference kernels."""
    verdicts = []

    integ = _integrable_table()
    for t in (0.5, 5.0, 50.0):
        rep = regularizing_diagnostic(integ, t)
        verdicts.append(("integrable", t, rep.classification, DIVERGENT))

    rep = regularizing_diagnostic(_cauchy_table(), 0.1)
    verdicts.append(("pure-power", 0.1, rep.classification, CONVERGENT))

    border = build_symbol_table(
        LevyKernel(near=Borderline(), tail=PowerTail(2.0), dimension=1),
        log_grid(1e-3, 1e7, per_decade=32),
    )
    omega = log_symbol_slope(border)
    t_star = 1.0 / omega
    rep_lo = regularizing_diagnostic(border, 0.5 * t_star)
    rep_hi = regularizing_diagnostic(border, 2.0 * t_star)
    verdicts.append(("borderline", 0.5 * t_star, rep_lo.classification, DIVERGENT))
    verdicts.append(("borderline", 2.0 * t_star, rep_hi.classification, CONVERGENT))

    osc = build_symbol_table(
        LevyKernel(near=Oscillating(1.0), tail=PowerTail(2.0), dimension=1),
        log_grid(1e-3, 1e6, per_decade=32),
    )
    rep = regularizing_diagnostic(osc, 0.1)
    verdicts.append(("oscillating", 0.1, rep.classification, DIVERGENT))

    bad = [(n, t, got) for n, t, got, want in verdicts if got != want]
    detail = (
        f"8 verdicts correct, borderline threshold t* = {t_star:.3f}"
        if not bad
        else f"wrong verdicts: {bad}"
    )
    return CriterionResult(8, "regularity trichotomy", not bad, detail)


def criterion_9() -> CriterionResult:
    """Spectral and direct Dirichlet forms agree on random fields."""
    tol = 0.02
    kernel = _integrable_kernel()
    grid = PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=256)
    P = LinearPropagator.from_table(grid, _integrable_table())
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(3500 + i)
        f = random_band_limited(grid, rng)
        spec = dirichlet_form_spectral(P, f)
        direct = dirichlet_form_direct(kernel, f)
        worst = max(worst, abs(spec - direct) / direct)
    return CriterionResult(
        9,
        "dual Dirichlet-form routes",
        worst <= tol,
        f"worst rel gap {worst:.2%} over 50 seeded fields (tol {tol:.0%})",
    )


def criterion_10() -> CriterionResult:
    """Exponent algebra: worked values and both recurrence identities."""
    checks = [
        abs(theta_exponents(4.0 / 3.0, 2.0, 1.0, 1)[0] - 2.0 / 3.0) <= 1e-15,
        theta_exponents(4.0 / 3.0, 2.0, 1.0, 1)[1] == 0.0,
        abs(theta_exponents(1.5, 2.0, 2.0, 1)[0] - 6.0 / 7.0) <= 1e-15,
        theta_exponents(1.5, 2.0, 2.0, 1)[1] == 0.0,
        rho_eps(1.0, 2.0, 1, 1.0, 1.0) == (0.5, 1.0),
        rho_eps(1.0, 2.0, 1, 1.0, 2.0) == (0.25, 0.75),
    ]
    worst = 0.0
    count = 0
    # each (sigma, alpha) block is 10 x 10 x 5 (q, p2, p3) tuples, broadcast
    dp2 = np.linspace(0.3, 2.1, 10)[:, None]
    dp3 = np.linspace(0.4, 2.4, 5)
    for sigma in (1.0, 1.5, 2.0, 2.5):
        q = (max(1.0, sigma - 1.0) + np.linspace(0.0, 1.5, 10))[:, None, None]
        p2 = q + dp2
        p3 = p2 + dp3
        for alpha in (0.6, 1.0, 1.4, 1.7, 2.0):
            r12, e12 = rho_eps(q, p2, 1, alpha, sigma)
            r23, e23 = rho_eps(p2, p3, 1, alpha, sigma)
            r13, e13 = rho_eps(q, p3, 1, alpha, sigma)
            worst = max(
                worst,
                float(np.max(np.abs(r12 * e23 + r23 - r13))),
                float(np.max(np.abs(e12 * e23 - e13))),
            )
            count += p3.size
    ok = all(checks) and worst <= 1e-12
    return CriterionResult(
        10,
        "exponent algebra and recurrences",
        ok,
        f"worked examples {'ok' if all(checks) else 'WRONG'}, "
        f"recurrence residual {worst:.2e} over {count} tuples (tol 1e-12)",
    )


def criterion_11() -> CriterionResult:
    """Porous-medium decay rate and sigma = 1 consistency with the semigroup."""
    run = _porous_run()
    fit = fit_late_decay(list(zip(run["times"], run["l2"])))
    tol = 0.15
    target, _ = rho_eps(1.0, 2.0, 1, _cauchy_kernel().tail.exponent(), 2.0)
    cross = _sigma1_crosscheck()
    ok = abs(fit.exponent - target) <= tol * target and cross["worst_rel_l2"] <= 1e-4
    return CriterionResult(
        11,
        "porous-medium decay and linear limit",
        ok,
        f"L2 exponent {fit.exponent:.4f} (target {target:.2f} +- {tol:.0%}), "
        f"sigma=1 stepper vs. semigroup {cross['worst_rel_l2']:.2e} (tol 1e-4)",
    )


def criterion_12() -> CriterionResult:
    """Sup-norm of the power-tail run decays monotonically and strongly."""
    run = _bounded_tail_run()
    sups = run["sups"]
    monotone = all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    final_frac = sups[-1] / run["sup0"]
    ok = monotone and final_frac < 0.05
    return CriterionResult(
        12,
        "sup-norm collapse of the power-tail run",
        ok,
        f"monotone {monotone}, final/initial sup {final_frac:.4f} (must be < 0.05)",
    )


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


#: the criteria's numbers, in battery order
CRITERION_NUMBERS = range(1, len(_CRITERIA) + 1)

#: the criteria that read ``_bounded_tail_run``, and no other does
TAIL_RUN_READERS = (3, 4, 5, 12)


@functools.cache
def run_criterion(number: int) -> CriterionResult:
    """One criterion's result, computed on the first request in this
    process and shared by every later one."""
    if number not in CRITERION_NUMBERS:
        raise DomainError(f"criterion number must be 1..{len(_CRITERIA)}, got {number}")
    return _CRITERIA[number - 1]()


def run_battery():
    """Each criterion's (result, wall seconds), in the order 1..12.

    The power-tail run starts on one worker thread at battery start.
    Meanwhile the calling thread evaluates every criterion outside
    ``TAIL_RUN_READERS``, then each reader after waiting for the run: a
    failure of the run raises at criterion 3, whose seconds are mostly
    that wait.  A criterion that first requests a shared memoized run
    carries that run's cost."""
    order = [n for n in CRITERION_NUMBERS if n not in TAIL_RUN_READERS] + list(TAIL_RUN_READERS)
    timed = {}
    with ThreadPoolExecutor(max_workers=1) as pool:
        tail_run = pool.submit(_bounded_tail_run)
        for number in order:
            start = time.perf_counter()
            if number in TAIL_RUN_READERS:
                tail_run.result()
            timed[number] = (run_criterion(number), time.perf_counter() - start)
    return [timed[n] for n in CRITERION_NUMBERS]


def summary_table(results) -> str:
    lines = [r.line() for r in results]
    failed = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} criteria passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
