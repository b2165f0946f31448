import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.fft import irfftn

from levyheat import evolve
from levyheat.analysis import dirichlet_form_spectral
from levyheat.errors import (
    ContractError,
    DomainError,
    GridMismatchError,
    StabilityError,
    UnresolvableMeasureError,
)
from levyheat.evolve import (
    PHI_SERIES_EDGE,
    LinearFlow,
    LinearPropagator,
    NonlinearFlow,
    PhiLaw,
    _phi_functions,
    fundamental_solution,
    step_sizes,
)
from levyheat.kernels import (
    Borderline,
    Bounded,
    CompactSupport,
    FractionalPower,
    LevyKernel,
    PowerTail,
)
from levyheat.spectral import (
    GridField,
    PeriodicGrid,
    box_field,
    delta_surrogate,
    field_norms,
    gaussian_field,
    lp_norm,
    mass,
    random_band_limited,
)
from levyheat.symbol import build_symbol_table, log_grid
from lattice import (
    apply_operator,
    count_transforms,
    freq_axis,
    full_lattice_radii,
    full_multiplier,
    mode_field,
)


def alternating_phase(grid):
    """(-1)^kappa on the full lattice: x runs from -L, not from 0."""
    alt = np.where(np.arange(grid.points_per_axis) % 2 == 0, 1.0, -1.0)
    return alt if grid.dimension == 1 else np.outer(alt, alt)


def continuum_spectrum(f):
    """Full-lattice continuum-normalized transform dx^N sum_x f(x) e^{-i xi . x}."""
    return f.grid.cell_volume * alternating_phase(f.grid) * np.fft.fftn(f.values)


def poisson_propagator(grid):
    """Multiplier m(xi) = |xi|: the alpha=1 flow normalized so the
    fundamental solution is the Poisson kernel t/(pi (t^2 + x^2))."""
    return LinearPropagator(grid, grid.half_freq_radii())


def datum(kind, g, rng_seed):
    """A datum of each kind the flows' selector tells apart: a centred
    ``box`` of width 2 with its edges on nodes (mirror-symmetric, so it
    flows on the first 2^N-th of the lattice), the same box widened by
    half a cell so that its edges fall between nodes (symmetric about
    x = 0, index n / 2, like ``delta``), and a ``random`` field."""
    if kind == "box":
        return box_field(g, width=2.0)
    if kind == "offbox":
        return box_field(g, width=2.0 + 0.5 * g.spacing)
    if kind == "delta":
        return delta_surrogate(g)
    return random_band_limited(g, np.random.default_rng(rng_seed), 0.5)


def scaled_box(g, width, height):
    """The box of ``width`` scaled to sup-norm ``height``."""
    return GridField(g, height * box_field(g, width=width).values)


def datum_cases(sizes, bare, *others):
    """(dim, n, kind) cases: the kind ``bare`` under the id "dim-n", each
    of ``others`` under "dim-n-kind"."""
    return [
        pytest.param(dim, n, kind, id=f"{dim}-{n}" + ("" if kind == bare else f"-{kind}"))
        for kind in (bare, *others)
        for dim, n in sizes
    ]


@pytest.fixture(scope="module")
def cauchy_table():
    kern = LevyKernel(dimension=1, near=FractionalPower(beta=1.0), tail=PowerTail(alpha=1.0))
    return build_symbol_table(kern)


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------


def test_operator_annihilates_constants(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, cauchy_table)
    out = apply_operator(P, GridField(g, np.full(g.shape, 4.2)))
    assert np.max(np.abs(out.values)) < 1e-12


def test_operator_eigenmode(cauchy_table):
    # cos(xi_1 x) is an exact eigenfunction with eigenvalue m(xi_1) = pi |xi_1|
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=512)
    P = LinearPropagator.from_table(g, cauchy_table)
    f = mode_field(g, 6)
    xi1 = 6 * math.pi / g.half_width
    lam = math.pi * xi1
    out = apply_operator(P, f)
    resid = np.max(np.abs(out.values - lam * f.values))
    assert resid < 1e-6 * lam, f"eigenrelation residual {resid:.3e}"
    # the tabulated eigenvalue itself is pi|xi| to interpolation accuracy
    k = np.argmin(np.abs(freq_axis(g) - xi1))
    assert P.half[k] == pytest.approx(lam, rel=1e-6)


def test_operator_quadratic_identity(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, cauchy_table)
    f = random_band_limited(g, np.random.default_rng(2), 0.3)
    real_space = g.cell_volume * float(np.sum(apply_operator(P, f).values * f.values))
    F = continuum_spectrum(f)
    spectral = float(np.sum(full_multiplier(P) * np.abs(F) ** 2)) / (2 * g.half_width)
    assert real_space == pytest.approx(spectral, rel=1e-12)


def _continuum_pair_apply(P, mult, values):
    """A multiplier applied through the full-lattice continuum-normalized
    pair, phase and dx^N kept."""
    coeffs = mult * continuum_spectrum(GridField(P.grid, values))
    return np.fft.ifftn(coeffs * alternating_phase(P.grid)).real / P.grid.cell_volume


def test_real_route_matches_continuum_pair_2d():
    g = PeriodicGrid(dimension=2, half_width=4.0, points_per_axis=64)
    P = poisson_propagator(g)
    f = GridField(g, np.random.default_rng(5).standard_normal(g.shape))
    m = full_multiplier(P)
    want = _continuum_pair_apply(P, m, f.values)
    got = apply_operator(P, f).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    want = _continuum_pair_apply(P, np.exp(-0.3 * m), f.values)
    (got,) = (s.field for s in LinearFlow(P, f).snapshots([0.3]))
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_etd_step_matches_continuum_pair_2d():
    # a lattice fine enough that z = -c m dt spans both sides of the
    # phi-functions' series switch
    g = PeriodicGrid(dimension=2, half_width=0.5, points_per_axis=64)
    P = poisson_propagator(g)
    phi = PhiLaw(sigma=2.0, M=1.0)
    u0 = random_band_limited(g, np.random.default_rng(6), 0.5)
    dt = 0.002  # below the first step of the accuracy rule: one step
    assert step_sizes([dt]) == [[dt]]
    (got,) = (s.field for s in NonlinearFlow(P, phi, u0).snapshots([dt]))

    u = u0.values
    c = 0.5 * phi.derivative_bound(np.max(np.abs(u)))
    m = full_multiplier(P)
    z = -c * m * dt
    assert z.min() < -PHI_SERIES_EDGE < z.max()
    ez, phi1, phi2 = _phi_functions(z)

    def residual(v):
        return phi(v) - c * v

    a = _continuum_pair_apply(P, ez, u) - dt * _continuum_pair_apply(P, m * phi1, residual(u))
    want = a - dt * _continuum_pair_apply(P, m * phi2, residual(a) - residual(u))
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dim,n", [(1, 2), (1, 4096), (2, 2), (2, 64), (1, 2**20), (2, 512)])
def test_from_table_equals_evaluating_the_full_lattice(dim, n):
    # the propagator stores the half lattice only, which determines m on
    # the full lattice; it must be exactly the table at those radii
    g = PeriodicGrid(dimension=dim, half_width=16.0, points_per_axis=n)
    kern = LevyKernel(dimension=dim, near=Bounded(1.0), tail=PowerTail(alpha=1.0))
    tab = build_symbol_table(kern, LinearPropagator.table_grid(g))
    P = LinearPropagator.from_table(g, tab)
    assert P.half.shape == g.shape[:-1] + (n // 2 + 1,)
    assert np.array_equal(P.half, tab.evaluate(g.half_freq_radii()))
    # the full lattice lays its radii out in other blocks of evaluation
    assert np.array_equal(full_multiplier(P), tab.evaluate(full_lattice_radii(g)))


def _traced_peak_above_result(build):
    """Traced peak while ``build()`` makes an array, less that array's bytes."""
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - result.nbytes


def test_reference_binding_and_datum_make_no_lattice_sized_temporary():
    # the reference decay-fit's lattice, kernel and box: each array is built
    # at its final size, so the peak stays within a few blocks of the
    # result (each temporary of the old whole-lattice code was 4 or 8 MiB)
    g = PeriodicGrid(dimension=1, half_width=262144.0, points_per_axis=2**20)
    kern = LevyKernel(dimension=1, near=Bounded(1.0), tail=PowerTail(alpha=1.0))
    tab = build_symbol_table(kern, LinearPropagator.table_grid(g))
    mib = 2.0**20
    binding = _traced_peak_above_result(lambda: LinearPropagator.from_table(g, tab).half)
    assert binding <= 2.0 * mib, f"from_table peaks {binding / mib:.2f} MiB above its result"
    datum = _traced_peak_above_result(lambda: box_field(g, width=4.0).values)
    assert datum <= 1.5 * mib, f"box_field peaks {datum / mib:.2f} MiB above its result"


@pytest.mark.parametrize("dim,n", [(1, 2**20), (2, 1024)])
def test_gaussian_datum_makes_no_lattice_sized_temporary(dim, n):
    # each axis's square is formed in place and their outer sum is the
    # only lattice-sized array (the whole-lattice code made four more)
    g = PeriodicGrid(dimension=dim, half_width=512.0, points_per_axis=n)
    mib = 2.0**20
    datum = _traced_peak_above_result(lambda: gaussian_field(g, sigma=3.0).values)
    assert datum <= 1.5 * mib, f"gaussian_field peaks {datum / mib:.2f} MiB above its result"


def test_from_table_reports_a_lattice_wider_than_its_table():
    # the table starts at 1e-3, as the default one does; this lattice's lowest
    # mode is pi / 4096
    g = PeriodicGrid(dimension=1, half_width=4096.0, points_per_axis=2**14)
    kern = LevyKernel(dimension=1, near=Bounded(1.0), tail=PowerTail(alpha=1.0))
    tab = build_symbol_table(kern, log_grid(1e-3, 10.0, 16))
    with pytest.raises(DomainError, match="outside the table's range"):
        LinearPropagator.from_table(g, tab)


@pytest.mark.parametrize("dim", [1, 2])
def test_propagator_takes_only_the_half_lattice(dim):
    g = PeriodicGrid(dimension=dim, half_width=4.0, points_per_axis=16)
    with pytest.raises(GridMismatchError):
        LinearPropagator(g, full_lattice_radii(g))
    with pytest.raises(ContractError):
        LinearPropagator(g, g.half_freq_radii() + 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_edge_value_is_the_nyquist_entry(dim):
    g = PeriodicGrid(dimension=dim, half_width=4.0, points_per_axis=16)
    P = LinearPropagator(g, g.half_freq_radii() ** 2)
    # xi = (pi / dx, 0): the last column in 1-D, row n / 2 of column 0 in 2-D
    nyquist = P.half[8] if dim == 1 else P.half[8, 0]
    assert P.edge_value == nyquist == g.max_frequency**2


# ---------------------------------------------------------------------------
# linear propagation
# ---------------------------------------------------------------------------


def test_propagate_t0_is_identity(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, cauchy_table)
    u0 = random_band_limited(g, np.random.default_rng(4), 0.4)
    (out,) = (s.field for s in LinearFlow(P, u0).snapshots([0.0]))
    assert np.max(np.abs(out.values - u0.values)) < 1e-12


def test_propagate_semigroup(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, cauchy_table)
    u0 = random_band_limited(g, np.random.default_rng(8), 0.4)
    (one_shot,) = (s.field for s in LinearFlow(P, u0).snapshots([0.7]))
    (half_way,) = (s.field for s in LinearFlow(P, u0).snapshots([0.3]))
    (two_step,) = (s.field for s in LinearFlow(P, half_way).snapshots([0.4]))
    err = np.max(np.abs(one_shot.values - two_step.values))
    assert err < 1e-10, f"semigroup defect {err:.3e}"


def test_propagate_rejects_negative_time(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    P = LinearPropagator.from_table(g, cauchy_table)
    with pytest.raises(DomainError):
        LinearFlow(P, GridField(g, np.zeros(g.shape))).snapshots([-0.1])
    with pytest.raises(DomainError):
        LinearFlow(P, GridField(g, np.zeros(g.shape))).snapshots([0.5, -0.1])
    other = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=64)
    with pytest.raises(GridMismatchError):
        LinearFlow(P, GridField(other, np.zeros(other.shape))).snapshots([0.5])


def test_propagate_yields_lazily_and_matches_single_times(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=256)
    P = LinearPropagator.from_table(g, cauchy_table)
    u0 = random_band_limited(g, np.random.default_rng(9), 0.4)
    times = [0.0, 0.3, 2.0, 0.1]
    run = LinearFlow(P, u0).snapshots(times)
    assert iter(run) is run, "expected an iterator, not a list"
    snapshots = list(run)
    assert [s.t for s in snapshots] == times
    for snap in snapshots:
        (alone,) = LinearFlow(P, u0).snapshots([snap.t])
        assert np.array_equal(snap.part, alone.part)
        assert snap.energy == alone.energy


@pytest.mark.parametrize(
    "dim,n,kind", datum_cases([(1, 256), (2, 64)], "random", "box", "offbox", "delta")
)
def test_flow_fields_are_separate_and_match_the_plain_decay(dim, n, kind):
    # each snapshot is irfftn(e^{-m t} rfftn(u0)): to the bit on the real
    # FFT pair, to roundoff on the first 2^N-th of the lattice, which
    # only the box with its edges on nodes takes; producing the next one
    # leaves the one already held untouched
    g = PeriodicGrid(dimension=dim, half_width=4.0, points_per_axis=n)
    P = poisson_propagator(g)
    u0 = datum(kind, g, 5)
    mirrored = kind == "box"
    flow = LinearFlow(P, u0)
    assert flow.work["spectral.fft_points"] == (n // 2 if mirrored else n) ** dim
    times = [0.0, 0.2, 1.5]
    snapshots = flow.snapshots(times)
    first = next(snapshots).field
    kept = first.values.copy()
    rest = [s.field for s in snapshots]
    assert np.array_equal(first.values, kept)
    for t, u in zip(times, [first, *rest]):
        plain = irfftn(np.exp(-P.half * t) * np.fft.rfftn(u0.values), s=g.shape)
        if mirrored:
            assert np.max(np.abs(u.values - plain)) <= 1e-14 * np.max(np.abs(plain)), t
        else:
            assert np.array_equal(u.values, plain), t
    assert not any(np.shares_memory(first.values, u.values) for u in rest)


@pytest.mark.parametrize("dim,n,kind", datum_cases([(1, 256), (2, 64)], "random", "box"))
def test_linear_energies_match_the_form_of_each_field(dim, n, kind):
    # the closed form read off the datum's spectrum against the spectral
    # form of the propagated fields, t = 0 included; on the box the 2-D
    # sum weighs the kappa = 0 row and column once and the rest twice
    g = PeriodicGrid(dimension=dim, half_width=4.0, points_per_axis=n)
    P = poisson_propagator(g)
    u0 = datum(kind, g, 23)
    times = [0.0, 0.05, 0.3, 1.0, 4.0]
    flow = LinearFlow(P, u0)
    snapshots = list(flow.snapshots(times))
    assert [s.t for s in snapshots] == times
    for s in snapshots:
        assert s.energy == pytest.approx(dirichlet_form_spectral(P, s.field), rel=1e-12), s.t
    energies = [s.energy for s in snapshots]
    assert energies == sorted(energies, reverse=True)


def make_flow(kind, P, u0):
    return LinearFlow(P, u0) if kind == "linear" else NonlinearFlow(P, PhiLaw(sigma=2.0), u0)


@pytest.mark.parametrize("flow", ["linear", "nonlinear"])
@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_snapshot_norms_on_the_half_lattice_match_the_whole_field(dim, n, flow):
    # a mirrored run hands each snapshot its first 2^N-th of the lattice:
    # the norms read there, each sum scaled by 2^N, agree with the norms
    # of the mirrored-out field to roundoff; the sup and the face ratio
    # are read off the same values
    g = PeriodicGrid(dimension=dim, half_width=8.0, points_per_axis=n)
    u0 = scaled_box(g, 2.0, 0.5)
    for snap in make_flow(flow, poisson_propagator(g), u0).snapshots([0.0, 0.3, 2.0]):
        assert snap.part.shape == (n // 2,) * dim
        got, want = snap.norms((3,)), field_norms(snap.field, (3,))
        assert got.lp.keys() == want.lp.keys() == {1.0, 2.0, 3.0, 4.0, math.inf}
        pairs = [(got.mass, want.mass)] + [(got.lp[p], want.lp[p]) for p in want.lp]
        for a, b in pairs:
            assert abs(a - b) <= 1e-14 * abs(b), (snap.t, a, b)
        assert (got.lp[math.inf], got.face_ratio) == (want.lp[math.inf], want.face_ratio)


@pytest.mark.parametrize("flow", ["linear", "nonlinear"])
@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_snapshot_norms_on_the_whole_lattice_are_the_field_norms(dim, n, flow):
    # a random datum runs on the whole lattice: the part is the field
    g = PeriodicGrid(dimension=dim, half_width=8.0, points_per_axis=n)
    u0 = GridField(g, 0.5 * datum("random", g, 17).values)
    for snap in make_flow(flow, poisson_propagator(g), u0).snapshots([0.0, 0.3, 2.0]):
        assert snap.part.shape == g.shape
        assert snap.norms((3,)) == field_norms(snap.field, (3,))


@pytest.mark.parametrize("kind", ["random", "box"])
def test_snapshot_norms_refuse_a_field_that_is_not_finite(kind):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    (snap,) = LinearFlow(poisson_propagator(g), datum(kind, g, 3)).snapshots([0.5])
    for bad in (math.nan, math.inf, -math.inf):
        snap.part[-1] = bad
        with pytest.raises(ContractError, match="finite"):
            snap.norms()


def test_linear_flow_checks_its_arguments(cauchy_table):
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    P = LinearPropagator.from_table(g, cauchy_table)
    flow = LinearFlow(P, GridField(g, np.zeros(g.shape)))
    with pytest.raises(DomainError):
        flow.snapshots([0.5, -0.1])
    with pytest.raises(DomainError):
        flow.snapshots([-0.1])
    other = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=64)
    with pytest.raises(GridMismatchError):
        LinearFlow(P, GridField(other, np.zeros(other.shape)))
    with pytest.raises(GridMismatchError):
        LinearFlow(P, GridField(g, np.zeros((2,) + g.shape), batch=True))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_linear_flow_rejects_non_finite_times(bad):
    # at the call, not as a non-finite field when the snapshot is read
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    flow = LinearFlow(poisson_propagator(g), box_field(g, width=2.0))
    with pytest.raises(DomainError, match="finite"):
        flow.snapshots([0.5, bad])


def test_linear_flow_keeps_only_the_datums_spectrum():
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    u0 = box_field(g, width=2.0)
    datum, values = weakref.ref(u0), weakref.ref(u0.values)
    flow = LinearFlow(poisson_propagator(g), u0)
    del u0
    assert datum() is None and values() is None
    assert next(flow.snapshots([0.0])).field.values.max() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
def test_poisson_supnorm_decay(t):
    # delta evolves to the Poisson kernel; sup norm 1/(pi t)
    g = PeriodicGrid(dimension=1, half_width=512.0, points_per_axis=2**15)
    P = poisson_propagator(g)
    (u,) = (s.field for s in LinearFlow(P, delta_surrogate(g)).snapshots([t]))
    got = lp_norm(u, math.inf)
    want = 1.0 / (math.pi * t)
    assert got == pytest.approx(want, rel=0.02), f"sup at t={t}: {got} vs {want}"


def test_poisson_profile_pointwise():
    g = PeriodicGrid(dimension=1, half_width=512.0, points_per_axis=2**15)
    P = poisson_propagator(g)
    t = 2.0
    (u,) = (s.field for s in LinearFlow(P, delta_surrogate(g)).snapshots([t]))
    oracle = t / (math.pi * (t**2 + g.axis**2))
    err = np.max(np.abs(u.values - oracle)) / oracle.max()
    assert err < 0.02, f"Poisson profile error {err:.3e}"


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_lp_contraction(p, t):
    g = PeriodicGrid(dimension=1, half_width=64.0, points_per_axis=4096)
    P = poisson_propagator(g)
    u0 = random_band_limited(g, np.random.default_rng(31), 0.3)
    (u,) = (s.field for s in LinearFlow(P, u0).snapshots([t]))
    assert lp_norm(u, p) <= lp_norm(u0, p) + 1e-10


def test_energy_dissipation_rate_second_order():
    # (||u(t+h)||_2^2 - ||u(t)||_2^2)/(2h) = -E(u(t+h/2)) + O(h^2)
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=512)
    P = poisson_propagator(g)
    u0 = random_band_limited(g, np.random.default_rng(12), 0.2)
    vol = 2 * g.half_width
    m = full_multiplier(P)

    def energy(f):
        return float(np.sum(m * np.abs(continuum_spectrum(f)) ** 2)) / vol

    t = 0.5
    defects = []
    for h in (0.02, 0.01):
        ut, uth, mid = (s.field for s in LinearFlow(P, u0).snapshots([t, t + h, t + 0.5 * h]))
        a = lp_norm(ut, 2) ** 2
        b = lp_norm(uth, 2) ** 2
        defects.append(abs((b - a) / (2 * h) + energy(mid)))
    assert defects[1] < 0.3 * defects[0], f"defect not O(h^2): {defects}"


def test_smoothing_bound_all_modes():
    # E(u(t),u(t)) <= ||u0||_2^2 / (2 e t): modewise m e^{-2mt} <= 1/(2et)
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=1024)
    P = poisson_propagator(g)
    u0 = random_band_limited(g, np.random.default_rng(77), 0.5)
    vol = 2 * g.half_width
    n2sq = lp_norm(u0, 2) ** 2
    m = full_multiplier(P)
    times = (0.01, 0.1, 1.0, 10.0)
    for s in LinearFlow(P, u0).snapshots(times):
        E = float(np.sum(m * np.abs(continuum_spectrum(s.field)) ** 2)) / vol
        bound = n2sq / (2 * math.e * s.t)
        assert E <= bound * (1 + 1e-12), f"t={s.t}: E={E} exceeds {bound}"


def test_nonnegativity_preserved_when_resolvable():
    g = PeriodicGrid(dimension=1, half_width=64.0, points_per_axis=4096)
    P = poisson_propagator(g)
    u0 = box_field(g, width=2.0)
    for s in LinearFlow(P, u0).snapshots((0.5, 2.0)):
        assert s.field.values.min() >= -1e-8 * lp_norm(u0, math.inf)


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------


def test_fundamental_solution_is_poisson_kernel():
    g = PeriodicGrid(dimension=1, half_width=512.0, points_per_axis=2**15)
    P = poisson_propagator(g)
    mu = fundamental_solution(P, 1.0)
    assert mass(mu) == pytest.approx(1.0, abs=1e-10)
    assert lp_norm(mu, math.inf) == pytest.approx(1 / math.pi, rel=1e-3)
    oracle = 1.0 / (math.pi * (1.0 + g.axis**2))
    assert np.max(np.abs(mu.values - oracle)) < 2e-3 / math.pi


def test_fundamental_solution_2d_is_heat_kernel():
    # m = |xi|^2: the Gauss-Weierstrass kernel (4 pi t)^-1 e^{-|x|^2/(4t)};
    # at L = 8, t = 0.5 its periodic images and its spectrum beyond the
    # lattice edge (e^{-79}) are below roundoff
    g = PeriodicGrid(dimension=2, half_width=8.0, points_per_axis=64)
    P = LinearPropagator(g, g.half_freq_radii() ** 2)
    t = 0.5
    mu = fundamental_solution(P, t)
    x, y = np.ix_(*(g.axis,) * g.dimension)
    exact = np.exp(-(x**2 + y**2) / (4 * t)) / (4 * math.pi * t)
    assert np.unravel_index(np.argmax(mu.values), g.shape) == (32, 32)
    assert np.max(np.abs(mu.values - exact)) <= 1e-12 * exact.max()


@pytest.mark.parametrize("t", [0.5, 5.0])
def test_integrable_kernel_measure_unresolvable(t):
    # bounded multiplier: e^{-mt} never decays below the aliasing guard
    kern = LevyKernel(dimension=1, near=Bounded(c0=1.0), tail=CompactSupport())
    tab = build_symbol_table(kern)
    g = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=1024)
    P = LinearPropagator.from_table(g, tab)
    with pytest.raises(UnresolvableMeasureError):
        fundamental_solution(P, t)


def test_borderline_measure_resolvable_at_large_time():
    kern = LevyKernel(dimension=1, near=Borderline(), tail=PowerTail(alpha=2.0))
    tab = build_symbol_table(kern)
    g = PeriodicGrid(dimension=1, half_width=64.0, points_per_axis=4096)
    P = LinearPropagator.from_table(g, tab)
    mu = fundamental_solution(P, 8.0)
    assert mass(mu) == pytest.approx(1.0, abs=1e-10)
    assert np.isfinite(lp_norm(mu, math.inf))


def test_fundamental_solution_requires_positive_time():
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    P = poisson_propagator(g)
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="time must be positive and finite"):
            fundamental_solution(P, t)


# ---------------------------------------------------------------------------
# nonlinear stepper
# ---------------------------------------------------------------------------


def test_phi_law_values_and_bounds():
    phi = PhiLaw(sigma=2.0, M=3.0)
    z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(phi(z), np.array([-4.0, -0.25, 0.0, 0.25, 4.0]))
    assert phi.derivative_bound(2.0) == pytest.approx(4.0)
    ident = PhiLaw(sigma=1.0, M=1.0)
    assert np.array_equal(ident(z), z)
    with pytest.raises(DomainError):
        PhiLaw(sigma=0.5, M=1.0)
    with pytest.raises(DomainError):
        PhiLaw(sigma=2.0, M=0.0)


def test_sigma_one_matches_exact_linear_flow():
    g = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=1024)
    P = poisson_propagator(g)
    u0 = scaled_box(g, 2.0, 0.8)
    snaps = [0.25, 0.5, 1.0]
    got = NonlinearFlow(P, PhiLaw(sigma=1.0, M=1.0), u0).snapshots(snaps)
    for s, exact in zip(got, LinearFlow(P, u0).snapshots(snaps)):
        u, exact_u = s.field, exact.field
        rel = lp_norm(GridField(g, u.values - exact_u.values), 2) / lp_norm(exact_u, 2)
        assert rel < 1e-4, f"sigma=1 defect {rel:.3e} at t={s.t}"


def test_nonlinear_mass_conservation():
    g = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=1024)
    P = poisson_propagator(g)
    u0 = scaled_box(g, 2.0, 0.9)
    snaps = [0.2, 1.0, 2.0]
    for s in NonlinearFlow(P, PhiLaw(sigma=2.0, M=1.0), u0).snapshots(snaps):
        assert mass(s.field) == pytest.approx(mass(u0), abs=1e-10), f"mass drift at t={s.t}"


def test_nonlinear_sup_norm_decreases():
    g = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=1024)
    P = poisson_propagator(g)
    u0 = scaled_box(g, 2.0, 0.9)
    snaps = [0.0, 0.5, 1.0, 2.0]
    snapshots = NonlinearFlow(P, PhiLaw(sigma=2.0, M=1.0), u0).snapshots(snaps)
    sups = [lp_norm(s.field, math.inf) for s in snapshots]
    assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:])), sups


def test_snapshots_include_t0_and_land_exactly():
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=256)
    P = poisson_propagator(g)
    u0 = scaled_box(g, 2.0, 0.5)
    snaps = [0.0, 0.37, 1.0]
    snapshots = list(NonlinearFlow(P, PhiLaw(sigma=2.0, M=1.0), u0).snapshots(snaps))
    assert [s.t for s in snapshots] == snaps
    assert np.array_equal(snapshots[0].field.values, u0.values)
    # the one stream steps the flow's copy of the datum: a second is refused
    flow = NonlinearFlow(P, PhiLaw(sigma=2.0, M=1.0), u0)
    flow.snapshots(snaps)
    with pytest.raises(ContractError, match="once"):
        flow.snapshots(snaps)


@pytest.mark.parametrize("kind", ["random", "box"])
def test_nonlinear_snapshots_own_their_arrays(kind):
    # each snapshot is an array of its own, on the whole lattice as on the
    # first 2^N-th: two at one time share nothing, and writing into the
    # t = 0 field moves none of the run after it
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=256)
    P = poisson_propagator(g)
    u = datum(kind, g, 3).values
    u0 = GridField(g, 0.5 * u / np.max(np.abs(u)))
    phi = PhiLaw(sigma=2.0, M=1.0)
    a, b = (s.field.values for s in NonlinearFlow(P, phi, u0).snapshots([0.5, 0.5]))
    assert np.array_equal(a, b) and not np.shares_memory(a, b)
    want = [s.field.values for s in NonlinearFlow(P, phi, u0).snapshots([0.0, 0.5])]
    snapshots = NonlinearFlow(P, phi, u0).snapshots([0.0, 0.5])
    next(snapshots).field.values[...] *= 0.5
    assert np.array_equal(next(snapshots).field.values, want[1])


def test_evolve_nonlinear_validation():
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=256)
    P = poisson_propagator(g)
    phi = PhiLaw(sigma=2.0, M=0.5)
    u0 = scaled_box(g, 2.0, 0.4)
    flow = NonlinearFlow(P, phi, u0)
    with pytest.raises(DomainError):
        flow.snapshots([-0.5])
    with pytest.raises(DomainError):
        flow.snapshots([0.5, -1.0])
    with pytest.raises(DomainError, match="must not decrease"):
        flow.snapshots([1.0, 0.5])
    # the datum is checked at construction
    with pytest.raises(ContractError):
        # sup norm above the law's validity bound M
        NonlinearFlow(P, phi, scaled_box(g, 2.0, 0.9))
    with pytest.raises(GridMismatchError):
        NonlinearFlow(P, phi, GridField(g, np.stack([u0.values] * 2), batch=True))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_sizes_rejects_non_finite_times(bad):
    # NaN compares false and inf - inf is NaN: either would take no step
    with pytest.raises(DomainError, match="finite"):
        step_sizes([0.5, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolve_nonlinear_rejects_non_finite_times(bad):
    # else [0.5, nan] labels u(0.5) t = nan, and [inf] labels the datum t = inf
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=256)
    flow = NonlinearFlow(poisson_propagator(g), PhiLaw(sigma=2.0), scaled_box(g, 2.0, 0.4))
    with pytest.raises(DomainError, match="finite"):
        flow.snapshots([0.5, bad])
    with pytest.raises(DomainError, match="finite"):
        flow.snapshots([bad])


def test_no_transform_runs_before_the_first_snapshot_is_requested(monkeypatch):
    # the linear flow transforms its datum at construction, the stepper
    # when the first snapshot is read; each counts what it made so far
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=256)
    P = poisson_propagator(g)
    u0 = scaled_box(g, 2.0, 0.5)
    calls = count_transforms(monkeypatch)
    times = [0.5, 1.0]
    for make, made in (
        (lambda: LinearFlow(P, u0), 1),
        (lambda: NonlinearFlow(P, PhiLaw(sigma=2.0), u0), 0),
    ):
        calls.clear()
        flow = make()
        assert len(calls) == made, "transforms made at construction"
        stream = flow.snapshots(times)
        assert len(calls) == made == flow.work["spectral.fft_calls"]
        for _ in times:
            next(stream)
            assert flow.work["spectral.fft_calls"] == len(calls) > made
            made = len(calls)


def test_stepped_run_read_one_snapshot_at_a_time_holds_one_field():
    # the traced peak of a run consumed one snapshot at a time does not
    # grow with the number of snapshots over the same span
    g = PeriodicGrid(dimension=1, half_width=512.0, points_per_axis=2**14)
    P = poisson_propagator(g)
    u0 = box_field(g, width=2.0)
    peaks = []
    for count in (2, 20):
        times = np.geomspace(1.0, 10.0, count)
        tracemalloc.start()
        try:
            for snap in NonlinearFlow(P, PhiLaw(sigma=2.0), u0).snapshots(times):
                del snap
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], f"traced peaks {peaks} B"


def test_phi_functions_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    z = -np.concatenate(
        [
            np.geomspace(1e-12, 745.0, 301),
            PHI_SERIES_EDGE * (1.0 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])),
        ]
    )
    ez, phi1, phi2 = _phi_functions(z)
    worst, worst_exp = 0.0, 0.0
    with mpmath.workdps(40):
        for k, zk in enumerate(z):
            x = mpmath.mpf(zk)
            em1 = mpmath.expm1(x)
            for got, want in ((phi1[k], em1 / x), (phi2[k], (em1 - x) / x**2)):
                worst = max(worst, float(abs((got - want) / want)))
            # e^z is 1 + expm1(z): exact to roundoff of 1, the size of the
            # decay factor at frequency 0
            worst_exp = max(worst_exp, float(abs(ez[k] - mpmath.exp(x))))
    assert worst <= 1e-14, f"worst phi relative error {worst:.2e}"
    assert worst_exp <= np.finfo(float).eps, f"worst e^z error {worst_exp:.2e}"
    ez, phi1, phi2 = _phi_functions(np.zeros(1))
    assert (ez[0], phi1[0], phi2[0]) == (1.0, 1.0, 0.5)


def test_step_count_is_the_same_on_every_grid(monkeypatch):
    # one _phi_functions call per step: the stepper takes exactly the
    # steps of step_sizes, whatever the grid
    snaps = [0.5, 1.0, 2.0]
    real_phi_functions = evolve._phi_functions
    taken = []

    def recorded(z):
        taken[-1] += 1
        return real_phi_functions(z)

    monkeypatch.setattr(evolve, "_phi_functions", recorded)
    for n in (256, 4096):
        g = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=n)
        u0 = scaled_box(g, 2.0, 0.9)
        taken.append(0)
        list(NonlinearFlow(poisson_propagator(g), PhiLaw(sigma=2.0, M=1.0), u0).snapshots(snaps))
    steps = sum(len(dts) for dts in step_sizes(snaps))
    assert taken == [steps, steps] and steps > 0


@pytest.mark.parametrize("dim,n,kind", datum_cases([(1, 256), (2, 32)], "box", "random"))
def test_a_stepped_run_transforms_four_times_a_step_and_once_for_the_datum(
    monkeypatch, dim, n, kind
):
    # a snapshot's energy is read off the carried spectrum, so no snapshot
    # costs a transform, not even one that takes no step; the box runs
    # on the DCT-II pair alone, the random field on the real FFT pair;
    # the count starts once the datum is built
    g = PeriodicGrid(dimension=dim, half_width=16.0, points_per_axis=n)
    u0 = GridField(g, 0.5 * datum(kind, g, 31).values)
    calls = count_transforms(monkeypatch)
    snaps = [0.0, 0.37, 1.0, 1.0, 2.5]
    flow = NonlinearFlow(poisson_propagator(g), PhiLaw(sigma=2.0), u0)
    for _ in flow.snapshots(snaps):
        assert flow.work["spectral.fft_calls"] == len(calls)
    steps = sum(len(dts) for dts in step_sizes(snaps))
    assert flow.work["evolve.steps"] == steps > 0
    forward, inverse = ("dctn", "idctn") if kind == "box" else ("rfftn", "irfftn")
    assert set(calls) == {forward, inverse}
    assert calls.count(forward) == 2 * steps + 1
    assert calls.count(inverse) == 2 * steps


@pytest.mark.parametrize("dim,n,kind", datum_cases([(1, 256), (2, 64)], "random", "box"))
def test_stepped_energies_match_the_form_of_each_field(dim, n, kind):
    # the energy read off the carried spectrum against the spectral form
    # of the field transformed back from it, t = 0 included
    g = PeriodicGrid(dimension=dim, half_width=8.0, points_per_axis=n)
    P = poisson_propagator(g)
    u0 = GridField(g, 0.5 * datum(kind, g, 29).values)
    for s in NonlinearFlow(P, PhiLaw(sigma=1.5), u0).snapshots([0.0, 0.2, 1.0, 3.0]):
        assert s.energy == pytest.approx(dirichlet_form_spectral(P, s.field), rel=1e-12), s.t


def test_fields_match_a_step_refined_reference(monkeypatch):
    # criterion 4's porous run on a shorter domain: dx = 1/2 under pi |xi|;
    # the reference takes ten times as many steps, so its own error is
    # ~1/100 of the stepper's (ETD-RK2 is second order)
    g = PeriodicGrid(dimension=1, half_width=256.0, points_per_axis=1024)
    P = LinearPropagator(g, math.pi * g.half_freq_radii())
    u0 = box_field(g, width=2.0)
    snaps = np.geomspace(1.0, 30.0, 8)
    phi = PhiLaw(sigma=2.0, M=1.0)
    got, steps = NonlinearFlow(P, phi, u0).snapshots(snaps), step_sizes(snaps)
    monkeypatch.setattr(evolve, "STEP_FRACTION", evolve.STEP_FRACTION / 10)
    ref, ref_steps = NonlinearFlow(P, phi, u0).snapshots(snaps), step_sizes(snaps)
    assert sum(map(len, ref_steps)) > 9 * sum(map(len, steps))
    worst = max(
        lp_norm(GridField(g, u.field.values - r.field.values), 2) / lp_norm(r.field, 2)
        for u, r in zip(got, ref)
    )
    # measured 3.1e-4 (at t = 1), as on criterion 4's 2^14 and 2^16 lattices
    assert worst < 3.5e-4, f"stepper vs. refined reference {worst:.3e}"


def test_under_stabilised_run_raises_stability_error(monkeypatch):
    # m_max ~ 1600: Heun's rule (c = 0) at the accuracy rule's first step
    # amplifies the top modes; the stabiliser c = Phi' / 2 keeps them down
    g = PeriodicGrid(dimension=1, half_width=1.0, points_per_axis=1024)
    P = poisson_propagator(g)
    u0 = scaled_box(g, 0.5, 0.9)
    phi = PhiLaw(sigma=2.0, M=1.0)
    (u,) = (s.field for s in NonlinearFlow(P, phi, u0).snapshots([0.1]))
    assert lp_norm(u, math.inf) <= 0.9
    monkeypatch.setattr(PhiLaw, "derivative_bound", lambda self, amplitude: 0.0)
    with pytest.raises(StabilityError) as err:
        list(NonlinearFlow(P, phi, u0).snapshots([0.1]))
    assert err.value.dt == pytest.approx(evolve.STEP_FRACTION * evolve.STEP_T0)
