import math

import numpy as np
import pytest

from levyheat import analysis as an
from levyheat.errors import ContractError, DomainError, GridMismatchError
from levyheat.evolve import LinearFlow, LinearPropagator
from levyheat.kernels import (
    Borderline,
    Bounded,
    CompactSupport,
    FractionalPower,
    LevyKernel,
    Oscillating,
    PowerTail,
)
from levyheat.spectral import (
    GridField,
    PeriodicGrid,
    box_field,
    lp_norm,
    mollified_box_field,
    random_band_limited,
    random_nonnegative,
)
from levyheat.symbol import build_symbol_table, log_grid
from lattice import full_multiplier, mode_field

INTEGRABLE = LevyKernel(dimension=1, near=Bounded(c0=0.7), tail=CompactSupport())
CAUCHY = LevyKernel(dimension=1, near=FractionalPower(beta=1.0), tail=PowerTail(alpha=1.0))
BORDERLINE = LevyKernel(dimension=1, near=Borderline(), tail=PowerTail(alpha=2.0))


@pytest.fixture(scope="module")
def integrable_table():
    return build_symbol_table(INTEGRABLE)


@pytest.fixture(scope="module")
def cauchy_table():
    return build_symbol_table(CAUCHY)


@pytest.fixture(scope="module")
def borderline_table():
    return build_symbol_table(BORDERLINE, log_grid(1e-3, 1e7, per_decade=32))


def abs_propagator(grid):
    return LinearPropagator(grid, grid.half_freq_radii())


# ---------------------------------------------------------------------------
# exponent algebra
# ---------------------------------------------------------------------------


def test_theta_worked_examples():
    th1, th2 = an.theta_exponents(4.0 / 3.0, 2.0, 1.0, 1)
    assert th1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert th2 == 0.0
    th1, th2 = an.theta_exponents(1.5, 2.0, 2.0, 1)
    assert th1 == pytest.approx(6.0 / 7.0, abs=1e-15)
    assert th2 == 0.0


def test_theta_limit_s_to_r():
    r = 1.4
    th1, th2 = an.theta_exponents(r, r + 1e-9, 1.3, 2)
    assert th1 == pytest.approx(1.0, abs=1e-6)
    assert th2 == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "r,s,gamma,N",
    [(1.0, 2.0, 1.0, 1), (1.5, 1.2, 1.0, 1), (1.5, 2.0, 0.0, 1), (1.5, 2.0, 2.5, 1), (1.5, 2.0, 1.0, 3)],
)
def test_theta_rejects_bad_ranges(r, s, gamma, N):
    with pytest.raises(DomainError):
        an.theta_exponents(r, s, gamma, N)


def test_theta_order_on_random_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        r = rng.uniform(1.0, 2.0)
        s = rng.uniform(r, 2.0)
        if not (1.0 < r < s <= 2.0):
            continue
        gamma = rng.uniform(1e-3, 2.0)
        N = int(rng.integers(1, 3))
        th1, th2 = an.theta_exponents(r, s, gamma, N)
        assert 0.0 <= th2 < th1 < 1.0, f"order violated at {(r, s, gamma, N)}"


def test_rho_eps_worked_examples():
    assert an.rho_eps(1, 2, 1, 1.0, 1.0) == (0.5, 1.0)
    assert an.rho_eps(1, 2, 1, 1.0, 2.0) == (0.25, 0.75)


def test_rho_eps_recurrences():
    # rho(p1,p2) eps(p2,p3) + rho(p2,p3) = rho(p1,p3);
    # eps(p1,p2) eps(p2,p3) = eps(p1,p3)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        sigma = float(rng.choice([1.0, 1.5, 2.0, 2.5]))
        p1 = max(1.0, sigma - 1.0) + float(rng.uniform(0.0, 2.0))
        p2 = p1 + float(rng.uniform(0.1, 3.0))
        p3 = p2 + float(rng.uniform(0.1, 3.0))
        N = int(rng.integers(1, 3))
        alpha = float(rng.uniform(0.3, 2.5))
        r12, e12 = an.rho_eps(p1, p2, N, alpha, sigma)
        r23, e23 = an.rho_eps(p2, p3, N, alpha, sigma)
        r13, e13 = an.rho_eps(p1, p3, N, alpha, sigma)
        worst = max(worst, abs(r12 * e23 + r23 - r13), abs(e12 * e23 - e13))
    assert worst < 1e-12, f"recurrence residual {worst:.3e}"


@pytest.mark.parametrize(
    "q,p,N,alpha,sigma",
    [(2.0, 1.5, 1, 1.0, 1.0), (0.5, 2.0, 1, 1.0, 1.0), (1.0, 2.0, 1, 1.0, 2.5),
     (1.0, 2.0, 3, 1.0, 1.0), (1.0, 2.0, 1, -1.0, 1.0), (1.0, 2.0, 1, 1.0, 0.5)],
)
def test_rho_eps_rejects_bad_ranges(q, p, N, alpha, sigma):
    with pytest.raises(DomainError):
        an.rho_eps(q, p, N, alpha, sigma)


@pytest.mark.parametrize("N,alpha,sigma", [(1, 1.0, 1.0), (1, 0.6, 2.5), (2, 1.7, 1.5)])
def test_rho_eps_on_arrays_is_the_scalar_call_elementwise(N, alpha, sigma):
    rng = np.random.default_rng(int(10 * alpha + sigma))
    q = (max(1.0, sigma - 1.0) + rng.uniform(0.0, 2.0, 7))[:, None]
    p = q + rng.uniform(0.1, 3.0, 5)
    rho, eps = an.rho_eps(q, p, N, alpha, sigma)
    assert rho.shape == eps.shape == (7, 5)
    qs = np.broadcast_to(q, p.shape)
    pairs = [an.rho_eps(float(a), float(b), N, alpha, sigma) for a, b in zip(qs.flat, p.flat)]
    assert rho.tobytes() == np.array([r for r, _ in pairs]).reshape(7, 5).tobytes()
    assert eps.tobytes() == np.array([e for _, e in pairs]).reshape(7, 5).tobytes()
    # one element out of range, or NaN, rejects the whole call
    for i, bad in ((0, 0.5), (12, math.nan), (34, p.flat[34])):
        q_bad = qs.copy()
        q_bad.flat[i] = bad
        with pytest.raises(DomainError, match="need 1 <= q"):
            an.rho_eps(q_bad, p, N, alpha, sigma)
    p_bad = p.copy()
    p_bad.flat[20] = math.nan
    with pytest.raises(DomainError, match="need 1 <= q"):
        an.rho_eps(q, p_bad, N, alpha, sigma)


# ---------------------------------------------------------------------------
# Dirichlet forms
# ---------------------------------------------------------------------------


def test_spectral_form_constant_is_zero(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=128)
    P = LinearPropagator.from_table(g, integrable_table)
    f = GridField(g, np.full(g.shape, 2.3))
    assert an.dirichlet_form_spectral(P, f) == 0.0
    assert an.dirichlet_form_direct(INTEGRABLE, f) == 0.0


def test_spectral_form_single_mode_closed_form(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=128)
    P = LinearPropagator.from_table(g, integrable_table)
    A = 1.7
    f = mode_field(g, 3, amplitude=A)
    xi1 = 3 * math.pi / g.half_width
    k = np.argmin(np.abs(g.freq_axis - xi1))
    want = P.half[k] * A**2 * (2 * g.half_width) / 2
    assert an.dirichlet_form_spectral(P, f) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_forms_match_full_lattice_sum(dim, n):
    # (2L)^-N sum m Re(f_hat conj(h_hat)) over the whole lattice of the
    # transform dx^N FFT (the continuum phase (-1)^kappa cancels in the
    # product)
    g = PeriodicGrid(dimension=dim, half_width=4.0, points_per_axis=n)
    P = abs_propagator(g)
    rng = np.random.default_rng(41)
    vol = (2 * g.half_width) ** dim
    m = full_multiplier(P)
    for _ in range(3):
        f = GridField(g, rng.standard_normal(g.shape))
        h = GridField(g, f.values + rng.standard_normal(g.shape))
        F = g.cell_volume * np.fft.fftn(f.values)
        H = g.cell_volume * np.fft.fftn(h.values)
        want_ff = float(np.sum(m * np.abs(F) ** 2)) / vol
        want_fh = float(np.sum(m * (F * np.conj(H)).real)) / vol
        assert an.dirichlet_form_spectral(P, f) == pytest.approx(want_ff, rel=1e-12)
        assert an.dirichlet_bilinear(P, f, h) == pytest.approx(want_fh, rel=1e-12)


def test_forms_need_a_propagator_on_the_fields_grid(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=64)
    f = GridField(g, np.ones(g.shape))
    with pytest.raises(ContractError):
        an.dirichlet_form_spectral(integrable_table, f)
    other = abs_propagator(PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=64))
    with pytest.raises(GridMismatchError):
        an.dirichlet_form_spectral(other, f)
    with pytest.raises(GridMismatchError):
        an.dirichlet_bilinear(abs_propagator(g), f, GridField(other.grid, np.ones(64)))


def test_cross_oracle_spectral_vs_direct_1d():
    # dx = 1/64 keeps the midpoint-rule bias of the double sum within budget
    g = PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=256)
    tab = build_symbol_table(INTEGRABLE, LinearPropagator.table_grid(g))
    P = LinearPropagator.from_table(g, tab)
    for seed in range(10):
        f = random_band_limited(g, np.random.default_rng(500 + seed), 0.25)
        Es = an.dirichlet_form_spectral(P, f)
        Ed = an.dirichlet_form_direct(INTEGRABLE, f)
        assert abs(Es - Ed) <= 0.02 * Ed, f"seed {seed}: {Es} vs {Ed}"


def test_cross_oracle_spectral_vs_direct_2d():
    kern = LevyKernel(dimension=2, near=Bounded(c0=0.5), tail=CompactSupport())
    g = PeriodicGrid(dimension=2, half_width=2.0, points_per_axis=64)
    tab = build_symbol_table(kern, LinearPropagator.table_grid(g))
    P = LinearPropagator.from_table(g, tab)
    for seed in range(3):
        f = random_band_limited(g, np.random.default_rng(100 + seed), 0.25)
        Es = an.dirichlet_form_spectral(P, f)
        Ed = an.dirichlet_form_direct(kern, f)
        assert abs(Es - Ed) <= 0.02 * Ed, f"seed {seed}: {Es} vs {Ed}"


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_direct_form_matches_pairwise_sum(dim, n):
    # a literal sum over ordered pairs x != y at the minimum-image
    # distance, one scalar kernel evaluation per pair
    kern = LevyKernel(dimension=dim, near=FractionalPower(beta=0.5), tail=PowerTail(alpha=1.0))
    g = PeriodicGrid(dimension=dim, half_width=2.0, points_per_axis=n)
    f = random_band_limited(g, np.random.default_rng(31), 0.5)
    cells = list(np.ndindex(g.shape))
    total = 0.0
    for x in cells:
        for y in cells:
            if x == y:
                continue
            sep = [min(abs(a - b), n - abs(a - b)) * g.spacing for a, b in zip(x, y)]
            total += (f.values[x] - f.values[y]) ** 2 * kern.eval_radial(math.hypot(*sep))
    want = 0.5 * g.spacing ** (2 * dim) * total
    assert an.dirichlet_form_direct(kern, f) == pytest.approx(want, rel=1e-12)


def test_direct_form_value_shift_invariance():
    g = PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=128)
    f = random_band_limited(g, np.random.default_rng(7), 0.25)
    shifted = GridField(g, f.values + 3.0)
    a = an.dirichlet_form_direct(INTEGRABLE, f)
    b = an.dirichlet_form_direct(INTEGRABLE, shifted)
    assert b == pytest.approx(a, rel=1e-12)
    with pytest.raises(GridMismatchError):
        an.dirichlet_form_direct(INTEGRABLE, GridField(g, np.stack([f.values] * 2), batch=True))


@pytest.mark.parametrize(
    "kern,L,n",
    [
        (INTEGRABLE, 128.0, 2**16),
        (LevyKernel(dimension=2, near=Bounded(c0=0.5), tail=CompactSupport()), 8.0, 256),
    ],
    ids=["1d-65536", "2d-256"],
)
def test_cross_oracle_spectral_vs_direct_production_scale(kern, L, n):
    # grid sizes of real runs, the multiplier tabulated over the lattice's
    # radii as the CLI does; criterion 9's tolerance
    g = PeriodicGrid(dimension=kern.dimension, half_width=L, points_per_axis=n)
    P = LinearPropagator.from_table(g, build_symbol_table(kern, LinearPropagator.table_grid(g)))
    for seed in range(3):
        f = random_band_limited(g, np.random.default_rng(900 + seed), 0.25)
        Es = an.dirichlet_form_spectral(P, f)
        Ed = an.dirichlet_form_direct(kern, f)
        assert abs(Es - Ed) <= 0.02 * Ed, f"seed {seed}: {Es} vs {Ed}"


def test_bilinear_form_symmetry(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, integrable_table)
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = GridField(g, rng.standard_normal(g.shape))
        h = GridField(g, rng.standard_normal(g.shape))
        a, b = an.dirichlet_bilinear(P, f, h), an.dirichlet_bilinear(P, h, f)
        assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(a)))


# ---------------------------------------------------------------------------
# Stroock-Varopoulos
# ---------------------------------------------------------------------------


def test_sv_identity_cases(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, integrable_table)
    f = random_nonnegative(g, [15])
    assert an.stroock_varopoulos_check(P, f, [(1.0, 1.0)])[0].margin == 0.0
    (rep0,) = an.stroock_varopoulos_check(P, f, [(0.0, 2.0)])
    assert rep0.margin == 0.0, "a=0 pairs a constant against f^2: zero both sides"
    assert rep0.passed.all()


def test_sv_margin_sweep(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, integrable_table)
    f = random_nonnegative(g, range(3000, 3100))
    pairs = [(a, 2.0 - a) for a in (0.5, 1.5)]
    for (a, _), rep in zip(pairs, an.stroock_varopoulos_check(P, f, pairs)):
        assert rep.passed.all(), f"a={a}: margins {rep.margin[~rep.passed]}"


def test_sv_computes_the_energy_once_for_all_pairs(integrable_table, monkeypatch):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, integrable_table)
    f = random_nonnegative(g, [16])
    pairs = [(0.5, 1.5), (0.25, 1.75), (1.0, 1.0)]
    alone = [an.stroock_varopoulos_check(P, f, [pair])[0] for pair in pairs]
    calls = []
    form = an.dirichlet_form_spectral

    def counted(P, f):
        calls.append(f)
        return form(P, f)

    monkeypatch.setattr(an, "dirichlet_form_spectral", counted)
    assert an.stroock_varopoulos_check(P, f, pairs) == alone
    assert len(calls) == 1


def test_sv_rejects_bad_inputs(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    P = LinearPropagator.from_table(g, integrable_table)
    f = random_nonnegative(g, [1])
    with pytest.raises(DomainError):
        an.stroock_varopoulos_check(P, GridField(g, f.values - 1.0, batch=True), [(1.0, 1.0)])
    with pytest.raises(DomainError):
        an.stroock_varopoulos_check(P, f, [(0.5, 1.0)])


def test_sv_checks_of_a_batch_are_each_fields_checks(integrable_table):
    # a batch is transformed as one stack, bit for bit what each field gives
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, integrable_table)
    seeds = range(40, 52)
    batch = random_nonnegative(g, seeds)
    fields = [GridField(g, v) for v in batch.values]
    for f, s in zip(fields, seeds):
        assert np.array_equal(f.values, random_nonnegative(g, [s]).values[0])
    pairs = [(0.5, 1.5), (0.25, 1.75)]
    alone = [an.stroock_varopoulos_check(P, f, pairs) for f in fields]
    for k, rep in enumerate(an.stroock_varopoulos_check(P, batch, pairs)):
        for name in ("margin", "reference", "passed"):
            assert np.array_equal(getattr(rep, name), [getattr(a[k], name) for a in alone])
    tri = an.sv_power_triple(2.0, 2.0)
    rep = an.generalized_sv_check(P, batch, tri)
    alone = [an.generalized_sv_check(P, f, tri) for f in fields]
    for name in ("margin", "reference", "passed"):
        assert np.array_equal(getattr(rep, name), [getattr(a, name) for a in alone])


def test_spectral_form_of_a_2d_batch_is_each_fields_form():
    g = PeriodicGrid(dimension=2, half_width=4.0, points_per_axis=32)
    P = abs_propagator(g)
    batch = random_nonnegative(g, range(5))
    forms = [an.dirichlet_form_spectral(P, GridField(g, v)) for v in batch.values]
    assert np.array_equal(an.dirichlet_form_spectral(P, batch), forms)


def test_generalized_sv(integrable_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, integrable_table)
    f = random_band_limited(g, np.random.default_rng(44), 0.3)
    ident = an.SVTriple(F=lambda z: z, G=lambda z: z, H=lambda z: z)
    assert an.generalized_sv_check(P, f, ident).margin == 0.0
    tri = an.sv_power_triple(2.0, 2.0)
    # the catalog constant c_{p,sigma} = 2 sqrt(sigma (p-1)) / (p+sigma-1)
    assert tri.H(np.array([1.0]))[0] == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-14)
    for seed in range(50):
        u = random_band_limited(g, np.random.default_rng(7000 + seed), 0.3)
        rep = an.generalized_sv_check(P, u, tri)
        assert rep.passed, f"seed {seed}: margin {rep.margin:.3e} vs E_H {rep.reference:.3e}"


# ---------------------------------------------------------------------------
# Nash ratios
# ---------------------------------------------------------------------------


def test_nash_ratio_single_mode_closed_form(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=1024)
    P = LinearPropagator.from_table(g, cauchy_table)
    f = mode_field(g, 4)
    d, r = 1.0, 1.0
    got, _ = an._nash_terms(P, f, d, r)
    xi1 = 4 * math.pi / g.half_width
    k = np.argmin(np.abs(g.freq_axis - xi1))
    g2 = lp_norm(f, 2.0) / lp_norm(f, 1.0)
    want = P.half[k] / min(1.0, g2 ** (2.0 / d))
    assert got == pytest.approx(want, rel=1e-12)


def test_nash_ratio_amplitude_invariance(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=64.0, points_per_axis=4096)
    P = LinearPropagator.from_table(g, cauchy_table)
    f = mollified_box_field(g, scale=2.0)
    cf = GridField(g, -3.7 * f.values)
    a, _ = an._nash_terms(P, f, 1.0 / 3.0, 1.5)
    b, _ = an._nash_terms(P, cf, 1.0 / 3.0, 1.5)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(DomainError):
        an._nash_terms(P, GridField(g, np.zeros(g.shape)), 1.0, 1.0)


def test_nash_dilation_sweep_floor_and_branches(cauchy_table):
    # d = N(2-r)/(r alpha) with r = 3/2, alpha = 1, N = 1
    d, r = 1.0 / 3.0, 1.5
    g = PeriodicGrid(dimension=1, half_width=256.0, points_per_axis=2**17)
    P = LinearPropagator.from_table(g, cauchy_table)
    rep = an.nash_dilation_sweep(P, d, r_norm=r)
    assert rep.branch_poincare >= 10 and rep.branch_nash >= 10, (
        f"branch counts {rep.branch_poincare}/{rep.branch_nash}"
    )
    assert rep.min_ratio > 0
    assert rep.passed
    g_fine = PeriodicGrid(dimension=1, half_width=256.0, points_per_axis=2**18)
    P_fine = LinearPropagator.from_table(g_fine, cauchy_table)
    rep_fine = an.nash_dilation_sweep(P_fine, d, r_norm=r)
    drift = abs(rep_fine.min_ratio - rep.min_ratio) / rep.min_ratio
    assert drift < 0.20, f"floor unstable under refinement: {drift:.3f}"


# ---------------------------------------------------------------------------
# interpolation inequality
# ---------------------------------------------------------------------------


def test_interpolation_single_mode(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=4096)
    P = LinearPropagator.from_table(g, cauchy_table)
    A = 1.3
    z = mode_field(g, 5, amplitude=A)
    rep = an.interpolation_check(P, z, 4.0 / 3.0, 2.0, 1.0)
    assert (rep.theta1, rep.theta2) == an.theta_exponents(4.0 / 3.0, 2.0, 1.0, 1)
    # s = 2: the second monomial is exactly the energy
    xi1 = 5 * math.pi / g.half_width
    k = np.argmin(np.abs(g.freq_axis - xi1))
    E = P.half[k] * A**2 * g.half_width
    assert rep.monomial2 == pytest.approx(E, rel=1e-12)
    assert rep.norm_s_sq == pytest.approx(A**2 * g.half_width, rel=1e-12)
    # the report is exactly the smallest admissible constant for this z
    assert rep.required_constant * (rep.monomial1 + rep.monomial2) == pytest.approx(
        rep.norm_s_sq, rel=1e-12
    )


def test_interpolation_dilation_sweep_bounded(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=64.0, points_per_axis=2**13)
    P = LinearPropagator.from_table(g, cauchy_table)
    consts = [
        an.interpolation_check(P, mollified_box_field(g, scale=lam), 4.0 / 3.0, 2.0, 1.0).required_constant
        for lam in 2.0 ** np.arange(-4.0, 4.5, 0.5)
    ]
    assert max(consts) < 10.0, f"empirical constant blew up: {max(consts):.3f}"
    assert min(consts) > 0.0


def test_interpolation_rejects_zero_energy(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    P = LinearPropagator.from_table(g, cauchy_table)
    with pytest.raises(DomainError):
        an.interpolation_check(P, GridField(g, np.ones(g.shape)), 1.5, 2.0, 1.0)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


def test_fit_exact_power_law():
    t = np.linspace(1.0, 50.0, 40)
    fit = an.fit_decay_exponent(np.column_stack([t, 3.0 * t**-0.5]))
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_series():
    t = np.linspace(1.0, 10.0, 12)
    fit = an.fit_decay_exponent(np.column_stack([t, np.full_like(t, 2.0)]))
    assert abs(fit.exponent) < 1e-12


@pytest.mark.parametrize("exponent", [0.1, 0.77, 1.5, 3.0])
def test_fit_recovers_synthetic_exponents(exponent):
    t = np.geomspace(0.5, 80.0, 25)
    fit = an.fit_decay_exponent(np.column_stack([t, 1.9 * t**-exponent]))
    assert abs(fit.exponent - exponent) < 1e-10


def test_fit_window_restriction():
    t = np.linspace(1.0, 20.0, 20)
    y = 2.0 * t**-1.0
    y[:5] = 2.0  # corrupted transient
    fit = an.fit_decay_exponent(np.column_stack([t, y]), window=(6.0, 20.0))
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)
    assert fit.window[0] >= 6.0


def test_fit_input_validation():
    t = np.linspace(1.0, 5.0, 4)
    with pytest.raises(DomainError):
        an.fit_decay_exponent(np.column_stack([t, t]))  # too few points
    t = np.linspace(1.0, 5.0, 10)
    with pytest.raises(DomainError):
        an.fit_decay_exponent(np.column_stack([t, -np.ones_like(t)]))
    bad_t = np.concatenate([t[:5], t[3:8]])
    with pytest.raises(DomainError):
        an.fit_decay_exponent(np.column_stack([bad_t, np.ones_like(bad_t)]))
    # a snapshot at t = 0 has no logarithm: inside the window it is an
    # error, outside it the fit runs
    t0 = np.linspace(0.0, 5.0, 10)
    with pytest.raises(DomainError, match="times must be positive"):
        an.fit_decay_exponent(np.column_stack([t0, np.ones_like(t0)]))
    with pytest.raises(DomainError, match="times must be positive"):
        an.fit_decay_exponent(np.column_stack([t0, np.ones_like(t0)]), window=(-1.0, 5.0))
    an.fit_decay_exponent(np.column_stack([t0, np.ones_like(t0)]), window=(0.5, 5.0))


def test_late_window_fit_beats_global():
    # transient + power tail: the auto-selected window should isolate the tail
    t = np.geomspace(0.1, 100.0, 30)
    y = (1.0 + t) ** -1.0
    series = np.column_stack([t, y])
    late = an.fit_late_decay(series)
    full = an.fit_decay_exponent(series)
    assert late.r_squared >= full.r_squared
    assert abs(late.exponent - 1.0) < abs(full.exponent - 1.0)


def test_differential_inequality_consistency():
    # psi = ||u||_2^2 for the m = |xi| flow from a box decays at least
    # like t^{-d(1 - 0.1)} with d = 1 in the late window
    g = PeriodicGrid(dimension=1, half_width=2048.0, points_per_axis=2**16)
    P = abs_propagator(g)
    u0 = box_field(g, width=2.0)
    ts = np.geomspace(5.0, 200.0, 24)
    series = [(t, lp_norm(u, 2.0) ** 2) for t, u, _ in LinearFlow(P, u0).snapshots(ts)]
    fit = an.fit_late_decay(series)
    assert fit.exponent >= 1.0 * (1 - 0.1), f"psi decays too slowly: {fit.exponent:.3f}"


# ---------------------------------------------------------------------------
# regularizing-effect diagnostic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
def test_integrable_kernel_never_regularizes(integrable_table, t):
    rep = an.regularizing_diagnostic(integrable_table, t)
    assert rep.classification == an.DIVERGENT, f"t={t}: {rep.classification}"
    assert rep.ck_order == 0


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_pure_power_regularizes_to_c_infinity(cauchy_table, t):
    rep = an.regularizing_diagnostic(cauchy_table, t)
    assert rep.classification == an.CONVERGENT
    assert rep.ck_order is None, f"expected C^inf, first divergent moment k={rep.ck_order}"


def test_borderline_log_slope(borderline_table):
    omega = an.log_symbol_slope(borderline_table)
    assert omega == pytest.approx(2.0, rel=1e-6)


def test_borderline_threshold_bracket(borderline_table):
    # t* = N/omega = 1/2: no regularizing below, C^0 density above
    omega = an.log_symbol_slope(borderline_table)
    t_star = 1.0 / omega
    lo = an.regularizing_diagnostic(borderline_table, 0.5 * t_star)
    hi = an.regularizing_diagnostic(borderline_table, 2.0 * t_star)
    assert lo.classification == an.DIVERGENT
    assert hi.classification == an.CONVERGENT
    # e^{-mt} ~ rho^{-2} at t = 2 t*: the first moment already diverges
    assert hi.ck_order == 1


def test_near_threshold_is_undecided(borderline_table):
    rep = an.regularizing_diagnostic(borderline_table, 0.6)
    assert rep.classification == an.UNDECIDED


def test_oscillating_kernel_no_regularizing_at_small_time():
    kern = LevyKernel(dimension=1, near=Oscillating(alpha_osc=1.0), tail=PowerTail(alpha=2.0))
    tab = build_symbol_table(kern, log_grid(1e-3, 1e6, per_decade=32))
    rep = an.regularizing_diagnostic(tab, 0.1)
    assert rep.classification == an.DIVERGENT


def test_diagnostic_validation(borderline_table):
    with pytest.raises(DomainError):
        an.regularizing_diagnostic(borderline_table, 0.0)
    with pytest.raises(DomainError):
        an.regularizing_diagnostic(borderline_table, 1.0, cutoffs=[1.0, 1e9])
