import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from levyheat import acceptance, cli, symbol
from levyheat.cli import parse_config
from levyheat.errors import DomainError, QuadratureError
from levyheat.evolve import LinearPropagator
from levyheat.kernels import (
    Borderline,
    Bounded,
    CompactSupport,
    ExponentialTail,
    FractionalPower,
    LevyKernel,
    LogPerturbed,
    Oscillating,
    PowerTail,
)
from levyheat.quadrature import adaptive_quad, gauss_panel_sums
from levyheat.spectral import PeriodicGrid
from levyheat.symbol import (
    SICI_MAX_X,
    PurePower,
    SymbolTable,
    _bounded_near,
    _exponential_tail,
    _hermite_cubic,
    _near_steps_1d,
    _parabola_slopes,
    _power_tail,
    _symbol_value_err,
    _unit_power_near,
    build_symbol_table,
    log_grid,
    symbol_quadrature,
)

PURE1 = LevyKernel(1, FractionalPower(1.0), PowerTail(1.0))
PURE2 = LevyKernel(2, FractionalPower(1.0), PowerTail(1.0))
BORDER_PT2 = LevyKernel(1, Borderline(), PowerTail(2.0))

# frozen multiplier references (exact special-function evaluations,
# 40-digit arithmetic): m = 2(ln xi + gamma - Ci(xi) + 1/2 - Re E3(-i xi))
BORDER_PT2_REF = [
    (0.7, 0.87691001525534067),
    (13.0, 7.2623892705723661),
]
# 2 pi int_0^5 (1 - J0(t))/t dt
BORDER_COMPACT_2D_AT_5 = 9.6782870205787045

# frozen multiplier references (mpmath, 30 digits), one kernel each for
# the profile paths nothing else evaluates: (kernel, [(xi, m(xi)), ...])
KERNEL_PATH_REFS = {
    # 2 int_0^1 (1 - cos xi r) log(e/r)^-p / r dr by quadrature
    "logperturbed_1d": (
        LevyKernel(1, LogPerturbed(0.5), CompactSupport()),
        [(0.7, 0.20199268256626684), (13.0, 4.1525158260056445), (200.0, 6.5256556626640813)],
    ),
    # 2 pi int_0^1 (1 - J0(xi r)) log(e/r)^-p / r dr by quadrature
    "logperturbed_2d": (
        LevyKernel(2, LogPerturbed(0.5), CompactSupport()),
        [(0.7, 0.31903810634988603), (13.0, 10.838575182258940), (200.0, 18.685945739731161)],
    ),
    # 2 pi sum_steps v int_lo^hi (1 - J0(xi r)) / r dr over the double-
    # precision band edges, step by step
    "oscillating_1_2d": (
        LevyKernel(2, Oscillating(1.0), CompactSupport()),
        [(0.7, 0.42408132486389193), (13.0, 26.038144646705484), (200.0, 67.573732716032523)],
    ),
    "oscillating_2.5_2d": (
        LevyKernel(2, Oscillating(2.5), CompactSupport()),
        [(0.7, 0.58420020321803228), (13.0, 33.458541114308034), (200.0, 73.346252880933820)],
    ),
    # 2 pi [int_0^1 (1 - J0(xi r)) / r dr + int_1^inf (1 - J0(xi r)) e^(1 - r) r dr]
    "exponential_2d": (
        LevyKernel(2, Borderline(), ExponentialTail(1.0)),
        [(0.7, 7.8339968281006132), (13.0, 27.960271017268187), (200.0, 45.128258654395474)],
    ),
    # beta = 1/2, alpha = 3/2 in closed form:
    # 2 [xi^beta pi / (2 Gamma(1 + beta) sin(pi beta / 2)) - 1/beta + Re E_{1+beta}(-i xi)]
    #   + 2 [1/alpha - Re E_{1+alpha}(-i xi)]
    "fractional_power_1d": (
        LevyKernel(1, FractionalPower(0.5), PowerTail(1.5)),
        [(0.3, 0.42925180082394037), (4.0, 7.4424934228260048), (50.0, 32.781667085102638)],
    ),
    # beta = 1 near part and exponential tail, both in closed form:
    # 2 [xi Si(xi) - 2 sin^2(xi / 2)] + 2 [1 - Re e^(i xi) / (1 - i xi)]
    "fractional_power_1_exp_1d": (
        LevyKernel(1, FractionalPower(1.0), ExponentialTail(1.0)),
        [(0.3, 0.49953608870570556), (4.0, 12.479094768645424), (50.0, 157.08037684359166)],
    ),
    # m near 1e-8 at small xi, where only a relative tolerance resolves the tail:
    # 2 [c0 (1 - sin xi / xi) + c0 (1/alpha - Re E_{1+alpha}(-i xi))]
    "bounded_power_2.3_1d": (
        LevyKernel(1, Bounded(0.7), PowerTail(2.3)),
        [(1e-4, 2.4527703494716819e-8), (1.155e-4, 3.2653445159528240e-8)],
    ),
}


@pytest.mark.parametrize("xi", [1e-3, 0.04, 1.0, 17.0, 1e4])
def test_pure_power_symbol_is_pi_xi(xi):
    m = symbol_quadrature(PURE1, xi)
    assert abs(m - math.pi * xi) < 1e-9 * math.pi * xi, f"m({xi}) = {m}"


def test_pure_power_symbol_2d():
    for xi in (1e-2, 1.0, 3e3):
        m = symbol_quadrature(PURE2, xi)
        assert abs(m - 2.0 * math.pi * xi) < 1e-9 * xi


def test_symbol_even_and_zero():
    assert symbol_quadrature(PURE1, 0.0) == 0.0
    assert symbol_quadrature(PURE1, -2.0) == symbol_quadrature(PURE1, 2.0)


@pytest.mark.parametrize("xi,ref", BORDER_PT2_REF)
def test_borderline_power_tail_reference(xi, ref):
    m = symbol_quadrature(BORDER_PT2, xi)
    assert abs(m - ref) < 1e-8 * ref, f"m({xi}) = {m!r} want {ref!r}"


@pytest.mark.parametrize(
    "kernel,xi,ref",
    [(k, xi, ref) for k, pairs in KERNEL_PATH_REFS.values() for xi, ref in pairs],
    ids=[f"{name}-{xi:g}" for name, (_, pairs) in KERNEL_PATH_REFS.items() for xi, _ in pairs],
)
def test_kernel_path_reference(kernel, xi, ref):
    m = symbol_quadrature(kernel, xi)
    assert abs(m - ref) <= 1e-9 * ref, f"m({xi}) = {m!r} want {ref!r}"


#: a parameter inside every catalog profile's range
_CATALOG_PARAM = {"beta": 0.8, "p": 0.5, "c0": 0.7, "alpha_osc": 1.0, "alpha": 1.5, "lam": 1.0}


def _catalog_kernels():
    for near_cls, near_arg in cli._NEAR.values():
        for tail_cls, tail_arg in cli._TAIL.values():
            for dim in (1, 2):
                near = near_cls(_CATALOG_PARAM[near_arg]) if near_arg else near_cls()
                tail = tail_cls(_CATALOG_PARAM[tail_arg]) if tail_arg else tail_cls()
                yield LevyKernel(dim, near, tail)


def test_every_catalog_kernel_has_a_finite_positive_even_symbol():
    kernels = list(_catalog_kernels())
    assert len(kernels) == 30
    for k in kernels:
        for xi in (0.3, 30.0):
            m = symbol_quadrature(k, xi)
            assert math.isfinite(m) and m > 0.0, (k, xi, m)
            assert symbol_quadrature(k, -xi) == m


#: frequencies on both sides of pi and of the first J0 zero, out to where the
#: remainders beyond them run as QAWO (1-D) and J0 panels (2-D)
_PINNED_XI = (0.3, 3.0, 30.0, 1e3)

#: m(xi) of every catalog kernel at _PINNED_XI, bit for bit: a change of
#: the engine's arithmetic shows here, and a moved value is re-pinned only
#: when it moved by roundoff and stays as close to an mpmath reference
_PINNED_SYMBOL = {
    "FractionalPower-PowerTail-1d": (
        0.4442337416899872, 7.401067409764958, 52.7238219646853, 889.7044537222956,
    ),
    "FractionalPower-PowerTail-2d": (
        0.7951144242287297, 14.504132579129154, 111.37850989399618, 1898.1305933121994,
    ),
    "FractionalPower-CompactSupport-1d": (
        0.07478945147142155, 5.738194573388116, 51.45657626149618, 888.3694694562023,
    ),
    "FractionalPower-CompactSupport-2d": (
        0.11756160154917598, 9.642009701389183, 107.21219590732414, 1893.9417739439943,
    ),
    "FractionalPower-ExponentialTail-1d": (
        0.48455013564168914, 8.020865077544125, 53.39043819230046, 890.3711220888725,
    ),
    "FractionalPower-ExponentialTail-2d": (
        2.1449951974251467, 23.09392884199799, 119.7542990733344, 1906.5081741114736,
    ),
    "Borderline-PowerTail-1d": (
        0.41427587731208293, 4.775269171500128, 9.290136630880632, 16.303273522838428,
    ),
    "Borderline-PowerTail-2d": (
        0.7480401844658557, 10.24145116508608, 24.831815246565192, 46.863077249609084,
    ),
    "Borderline-CompactSupport-1d": (
        0.04483158709351723, 3.112396335123284, 8.022890927691519, 14.968289256745157,
    ),
    "Borderline-CompactSupport-2d": (
        0.07048736178630204, 5.379328287346106, 20.665501259893173, 42.67425788140392,
    ),
    "Borderline-ExponentialTail-1d": (
        0.45459227126378476, 5.395066839279293, 9.956752858495795, 16.969941889415438,
    ),
    "Borderline-ExponentialTail-2d": (
        2.0979209576622724, 18.83124742795491, 33.207604425903426, 55.24065804888349,
    ),
    "LogPerturbed-PowerTail-1d": (
        0.4072150564557181, 4.206333269630109, 6.308432422545596, 9.004780556937442,
    ),
    "LogPerturbed-PowerTail-2d": (
        0.7369428145471941, 9.297164953760115, 17.65029783681477, 26.702811333077186,
    ),
    "LogPerturbed-CompactSupport-1d": (
        0.03777076623715243, 2.543460433253266, 5.041186719356483, 7.6697962908441735,
    ),
    "LogPerturbed-CompactSupport-2d": (
        0.05938999186764042, 4.435042076020143, 13.483983850142751, 22.51399196487202,
    ),
    "LogPerturbed-ExponentialTail-1d": (
        0.44753145040742, 4.826130937409276, 6.97504865016076, 9.671448923514452,
    ),
    "LogPerturbed-ExponentialTail-2d": (
        2.086823587743611, 17.88696121662895, 26.026087016153, 35.08039213235159,
    ),
    "Bounded-PowerTail-1d": (
        0.279516705400078, 2.498154981702519, 2.3331801346900454, 2.333331354908543,
    ),
    "Bounded-PowerTail-2d": (
        0.4989344166225262, 5.105514476419353, 5.132944463259644, 5.131267619054539,
    ),
    "Bounded-CompactSupport-1d": (
        0.020905702247081985, 1.3341439962387285, 1.4461081424576667, 1.3988423686432552,
    ),
    "Bounded-CompactSupport-2d": (
        0.02464744074683874, 1.702028462001374, 2.216524672589232, 2.1990940613109236,
    ),
    "Bounded-ExponentialTail-1d": (
        0.3077381811662693, 2.932013349147935, 2.79981149402066, 2.7999992115124503,
    ),
    "Bounded-ExponentialTail-2d": (
        1.443850957860018, 11.118371860427537, 10.995996888796402, 10.995574178546626,
    ),
    "Oscillating-PowerTail-1d": (
        0.41955118263559465, 5.288348338134114, 16.637386222120465, 36.21528258226951,
    ),
    "Oscillating-PowerTail-2d": (
        0.75632719599796, 11.05308685049165, 42.903711541308155, 97.8607768613875,
    ),
    "Oscillating-CompactSupport-1d": (
        0.05010689241702897, 3.62547550175727, 15.370140518931354, 34.88029831617624,
    ),
    "Oscillating-CompactSupport-2d": (
        0.07877437331840624, 6.190963972751678, 38.73739755463613, 93.67195749318236,
    ),
    "Oscillating-ExponentialTail-1d": (
        0.45986757658729654, 5.908146005913279, 17.30400244973563, 36.881950948846516,
    ),
    "Oscillating-ExponentialTail-2d": (
        2.1062079691943767, 19.642883113360483, 51.279500720646375, 106.23835766066195,
    ),
}


#: m(xi) at _PINNED_XI of the 1-D kernels whose parts are the closed forms
#: the catalog parameters miss: the beta = 1 near part, the alpha = 1 and 2
#: power tail (Si/Ci at 0.3 and 3, the continued fraction at 30 and 1e3),
#: and the exponential tail with lam = 1; pinned as _PINNED_SYMBOL is
_PINNED_CLOSED_FORMS = {
    (FractionalPower(1.0), PowerTail(1.0)): (
        0.9424777960769379, 9.424777960769378, 94.2477796076938, 3141.5926535897934,
    ),
    (FractionalPower(1.0), PowerTail(2.0)): (
        0.2815205413756383, 8.448614621503959, 93.24787068278683, 3140.5926524551533,
    ),
    (FractionalPower(1.0), ExponentialTail(1.0)): (
        0.4995360887057055, 9.394600678951926, 94.24775723240052, 3141.592654722794,
    ),
    (Bounded(1.0), PowerTail(1.0)): (
        0.8825676804659028, 4.218767780600215, 3.9997530810370865, 3.9999977405883325,
    ),
    (Bounded(0.7), PowerTail(2.0)): (
        0.15512729803522227, 2.2698231089343572, 2.099890909291081, 2.099997624163958,
    ),
}


def test_catalog_symbol_values_are_pinned():
    kernels = list(_catalog_kernels())
    assert len(kernels) == len(_PINNED_SYMBOL) == 30
    for k in kernels:
        key = f"{type(k.near).__name__}-{type(k.tail).__name__}-{k.dimension}d"
        got = tuple(float(symbol_quadrature(k, xi)) for xi in _PINNED_XI)
        assert got == _PINNED_SYMBOL[key], key
    for (near, tail), pinned in _PINNED_CLOSED_FORMS.items():
        k = LevyKernel(1, near, tail)
        got = tuple(float(symbol_quadrature(k, xi)) for xi in _PINNED_XI)
        assert got == pinned, (near, tail)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf, 5e-324])
def test_a_frequency_without_a_finite_first_zero_radius_is_a_domain_error(xi):
    # NaN returned NaN or raised a numpy warning; +-inf and 5e-324 (whose
    # pi / xi is inf) raised a bare ValueError, OverflowError or
    # ZeroDivisionError, or a numpy warning, depending on the kernel
    for k in _catalog_kernels():
        with pytest.raises(DomainError, match="multiplier needs xi > 0"):
            symbol_quadrature(k, xi)
        with pytest.raises(DomainError, match="multiplier needs xi > 0"):
            build_symbol_table(k, [xi])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_a_table_radius_that_is_not_positive_is_a_domain_error(dim, radius):
    # the engine raised a bare ZeroDivisionError or a math domain ValueError
    k = LevyKernel(dim, LogPerturbed(0.5), PowerTail(1.5))
    with pytest.raises(DomainError, match="multiplier needs xi > 0"):
        build_symbol_table(k, [radius, 1.0])


@pytest.mark.parametrize("dim", [1, 2])
def test_an_error_estimate_above_the_table_tolerance_raises(dim, monkeypatch):
    # xi = 1 lies below both first zeros, so the near part is one QUADPACK
    # call on [0, 1] and the compact tail adds nothing: the estimate is c_N
    # times the one QUADPACK reports, here inflated
    k = LevyKernel(dim, LogPerturbed(0.5), CompactSupport())
    m = symbol_quadrature(k, 1.0)
    calls = []

    def inflated(fn, a, b, **kwargs):
        calls.append((a, b))
        return adaptive_quad(fn, a, b, **kwargs)[0], 1e-3

    monkeypatch.setattr(symbol, "adaptive_quad", inflated)
    with pytest.raises(QuadratureError, match="achieved only") as info:
        symbol_quadrature(k, 1.0)
    assert calls == [(0.0, 1.0)]
    scale = 2.0 if dim == 1 else 2.0 * math.pi
    assert info.value.achieved_tol == scale * 1e-3 / m


def test_bounded_compact_closed_form_1d():
    c0 = 0.7
    k = LevyKernel(1, Bounded(c0), CompactSupport())
    for xi in (0.003, 0.9, 4.49, 250.0):
        ref = 2.0 * c0 * (1.0 - math.sin(xi) / xi)
        m = symbol_quadrature(k, xi)
        assert abs(m - ref) < 1e-8 * ref + 1e-12


def test_bounded_compact_closed_form_2d():
    c0 = 1.3
    k = LevyKernel(2, Bounded(c0), CompactSupport())
    for xi in (0.02, 2.0, 77.0):
        ref = 2.0 * math.pi * c0 * (0.5 - scipy.special.j1(xi) / xi)
        m = symbol_quadrature(k, xi)
        assert abs(m - ref) < 1e-8 * ref + 1e-12


def test_borderline_compact_2d_reference():
    k = LevyKernel(2, Borderline(), CompactSupport())
    m = symbol_quadrature(k, 5.0)
    assert abs(m - BORDER_COMPACT_2D_AT_5) < 1e-8 * BORDER_COMPACT_2D_AT_5


def test_integrable_kernel_bounded_by_twice_l1():
    # for J in L^1 the multiplier never exceeds 2 ||J||_1
    c0 = 0.7
    k = LevyKernel(1, Bounded(c0), CompactSupport())
    l1 = 2.0 * c0
    peak = symbol_quadrature(k, 4.4934)  # near the max of 1 - sin(x)/x
    assert peak <= 2.0 * l1 + 1e-10
    assert peak > l1  # and it genuinely exceeds ||J||_1 itself


def test_oscillating_symbol_log_bounded():
    # bands contribute additively: m grows like log(xi), not a power
    k = LevyKernel(1, Oscillating(1.0), ExponentialTail(0.5))
    m4 = symbol_quadrature(k, 1e4)
    m6 = symbol_quadrature(k, 1e6)
    assert m6 < 1.8 * m4, f"m(1e6)/m(1e4) = {m6 / m4}"
    assert m6 > m4  # still increasing


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_build_table_pure_power_closed_form():
    tab = build_symbol_table(PURE1)
    assert isinstance(tab.closed_form, PurePower)
    assert tab.closed_form.alpha == 1.0
    assert abs(tab.closed_form.coefficient - math.pi) < 1e-8
    xi = np.array([0.0, 0.5, 3.0, 1e5])
    out = tab.evaluate(xi)
    assert out[0] == 0.0
    assert np.allclose(out[1:], tab.closed_form.coefficient * xi[1:], rtol=1e-14)


def test_table_interpolation_accuracy():
    tab = build_symbol_table(BORDER_PT2, log_grid(1e-2, 1e2, 64))
    mid = np.sqrt(tab.radial_grid[:-1] * tab.radial_grid[1:])[::11]
    exact = np.array([symbol_quadrature(BORDER_PT2, x) for x in mid])
    got = tab.evaluate(mid)
    rel = np.max(np.abs(got - exact) / exact)
    assert rel < 5e-4, f"midpoint interpolation rel err {rel:.2e}"


def test_table_nodes_exact_and_scalar():
    tab = build_symbol_table(BORDER_PT2, log_grid(0.1, 10.0, 16))
    assert np.allclose(tab.evaluate(tab.radial_grid), tab.values, rtol=1e-12)
    assert isinstance(tab.evaluate(1.0), float) or np.ndim(tab.evaluate(1.0)) == 0
    assert tab.evaluate(0.0) == 0.0


@pytest.mark.parametrize("closed_form", [False, True])
def test_evaluate_takes_any_memory_layout(closed_form):
    # evaluate overwrites its own copy of |rho| block by block, whatever
    # the layout of rho; three rows span several blocks
    tab = build_symbol_table(PURE1) if closed_form else build_symbol_table(
        BORDER_PT2, log_grid(0.1, 10.0, 16)
    )
    rho = np.geomspace(0.1, 10.0, 3 * 2**14).reshape(3, 2**14)
    rho[0, :5] = 0.0
    rho[1, 7] = -2.0
    want = tab.evaluate(rho.ravel()).reshape(rho.shape)
    assert want[0, 0] == 0.0 and want[1, 7] == tab.evaluate(2.0)
    views = [
        (np.asfortranarray(rho), want),
        (rho.T, want.T),
        (rho[:, ::3], want[:, ::3]),
        (rho[::-1], want[::-1]),
    ]
    for view, expected in views:
        assert np.array_equal(tab.evaluate(view), expected)


def test_table_rejects_bad_data():
    g = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        SymbolTable(1, g, np.array([1.0, -1.0, 2.0]))
    with pytest.raises(DomainError, match="got m = -0 at radius 2"):
        SymbolTable(1, g, np.array([1.0, -0.0, 2.0]))
    with pytest.raises(DomainError):
        SymbolTable(1, g[::-1].copy(), np.ones(3))
    with pytest.raises(DomainError):
        SymbolTable(1, g, np.ones(4))


def test_table_quad_tol_recorded():
    tab = build_symbol_table(BORDER_PT2, log_grid(0.5, 2.0, 8))
    assert 0.0 < tab.quad_tol < 2e-7


@pytest.mark.parametrize("edge", [0, -1], ids=["zero_low_edge", "zero_high_edge"])
def test_table_raises_outside_its_range(edge):
    g = np.array([1.0, 2.0, 4.0])
    values = np.array([0.5, 1.0, 2.0])
    tab = SymbolTable(1, g, values)
    for rho in (0.5, 8.0, [0.0, 1.0, 0.5, 3.0, 9.0]):
        with pytest.raises(DomainError, match=r"outside the table's range \[1, 4\]"):
            tab.evaluate(rho)
    # rho = 0 and the ends are in range
    assert tab.evaluate(0.0) == 0.0
    assert np.isfinite(tab.evaluate([1.0, 1.5, 3.0, 4.0])).all()
    # a zero entry is refused when the table is built: with log 0 clamped
    # to log 1e-300, [0, 1, 2] on these knots read 4e37 between its nodes
    values[edge] = 0.0
    with pytest.raises(DomainError, match=f"got m = 0 at radius {g[edge]:g}"):
        SymbolTable(1, g, values)


@pytest.mark.parametrize("closed_form", [False, True])
def test_a_nan_radius_is_a_domain_error(closed_form):
    # a NaN radius read m = 0
    tab = build_symbol_table(PURE1) if closed_form else build_symbol_table(
        BORDER_PT2, log_grid(0.1, 10.0, 16)
    )
    rows = ((math.nan, 1), ([1.0, math.nan], 1), ([[math.nan, 2.0], [0.0, -math.nan]], 2))
    for rho, count in rows:
        with pytest.raises(DomainError, match=f"{count} of {np.size(rho)} radii are NaN"):
            tab.evaluate(rho)


@pytest.mark.parametrize(
    "arg,bad",
    [
        ("per_decade", math.nan),
        ("per_decade", -5),
        ("per_decade", 0),
        ("per_decade", math.inf),
        ("per_decade", 1e308),
        ("per_decade", 5e-324),
        ("hi", math.inf),
        ("hi", math.nan),
        ("hi", -0.0),
        ("lo", math.nan),
        ("lo", -1.0),
        ("lo", 0.0),
    ],
)
def test_log_grid_names_the_argument_that_makes_no_table(arg, bad):
    # nan and -5 raised a bare ValueError, inf a bare OverflowError, and
    # 0 returned one point, which no table interpolates
    with pytest.raises(DomainError, match=re.escape(f"{arg}={bad!r}")):
        log_grid(**{arg: bad})


def _quadpack(fn, a, b, breakpoints):
    # QUADPACK to a relative 1e-12 with no absolute floor, where
    # adaptive_quad stops at 1e-9 or 1e-14: its floor alone moves the
    # near part at xi = 1e-3 (about 5e-7) by 7e-10 relative; the
    # breakpoints inside (a, b), sorted, and the subdivision limit as
    # adaptive_quad's
    pts = sorted(p for p in breakpoints if a < p < b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(
            fn, a, b, points=pts or None, epsabs=0.0, epsrel=1e-12, limit=100 + 2 * len(pts)
        )
    return val


def _direct_near_part(near, xi, edges):
    # 2 int_0^1 (1 - cos xi r) J(r) dr with breakpoints at the band edges
    # and at every half period
    half_periods = np.arange(1, int(xi / math.pi) + 1) * math.pi / xi
    pts = np.union1d(edges[1:-1], half_periods[half_periods < 1.0])
    return _quadpack(lambda r: 2.0 * (1.0 - math.cos(xi * r)) * near.j(r, 1), 0.0, 1.0, pts)


@pytest.mark.parametrize("near", [Borderline(), Oscillating(1.0)], ids=["borderline", "osc"])
@pytest.mark.parametrize("xi", [1e-3, 0.1, 10.0, 1e3, 1e4])
def test_step_profile_near_part_matches_quadrature(near, xi):
    edges, _ = near.steps
    closed, bound = _near_steps_1d(near.steps, xi)
    ref = _direct_near_part(near, xi, edges)
    assert abs(2.0 * closed - ref) <= 1e-9 * ref
    assert bound <= 1e-12 * closed


def _direct_steps_part(steps, xi):
    # 2 int_0^1 (1 - cos xi r) ell(r)/r dr one constant step at a time,
    # with breakpoints at every half period; bands narrower than the
    # spacing of doubles leave no room for nodes that resolve ell across
    # a band edge, so each step carries its own value
    edges, values = steps
    half_periods = np.arange(1, int(xi / math.pi) + 1) * math.pi / xi
    total = 0.0
    for lo, hi, v in zip(edges[:-1], edges[1:], values):
        piece = _quadpack(lambda r: 4.0 * math.sin(0.5 * xi * r) ** 2 / r, lo, hi, half_periods)
        total += v * piece
    return total


@pytest.mark.parametrize("alpha_osc", [2.5, 3.0])
def test_steep_oscillating_table_matches_quadrature(alpha_osc):
    # bands of relative width 2^(-alpha_osc k), down to zero width, where
    # the differences of Cin cancel
    kernel = LevyKernel(1, Oscillating(alpha_osc), CompactSupport())
    assert build_symbol_table(kernel).quad_tol <= 1e-8
    xis = [1e-3, 0.1, 10.0, 1e3, 1e4]
    tab = build_symbol_table(kernel, xis)
    for xi, value in zip(xis, tab.values):
        ref = _direct_steps_part(kernel.near.steps, xi)
        assert abs(value - ref) <= 1e-9 * ref


@pytest.mark.parametrize("near", [Borderline(), Oscillating(1.0)], ids=["borderline", "osc"])
def test_step_profile_near_part_at_high_frequency(near):
    # adaptive quadrature needs minutes at xi = 1e6 (3e5 half periods),
    # so the reference sums 16-point Gauss panels, one per half period
    # or band piece, where the rule is exact to roundoff
    xi = 1e6
    edges, _ = near.steps
    panel_edges = np.union1d(edges, np.arange(int(xi / math.pi) + 1) * math.pi / xi)
    # in 1-D the measure ell(r) / r dr is J(r) dr
    ref = float(
        gauss_panel_sums(
            lambda r: 2.0 * (1.0 - np.cos(xi * r)) * near.j(r, 1), panel_edges
        ).sum()
    )
    closed, bound = _near_steps_1d(near.steps, xi)
    assert abs(2.0 * closed - ref) <= 1e-9 * ref
    # the roundoff bound covers the actual cancellation error
    assert abs(2.0 * closed - ref) <= 2.0 * bound + 1e-13 * ref


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _check_tail_form(form, param, xi, ref):
    """``form(param, xi, match)``, a whole 1-D tail in closed form, against
    its reference value at match = 1: error <= bound <= 1e-13 of the
    value, and a match of 1/2 halves the value exactly."""
    value, bound = form(param, xi, 1.0)
    err = abs(value - ref)
    assert err <= bound <= 1e-13 * value, (param, xi, err / ref, bound / value)
    assert form(param, xi, 0.5)[0] == 0.5 * value


def _power_tail_ref(alpha, xi):
    """int_1^inf (1 - cos xi r) r^(-1-alpha) dr = 1/alpha - Re E_{alpha+1}(-i xi)
    at 50 digits, which its cancellation (1e8-fold at xi = 1e-8) leaves
    above 40."""
    with mpmath.workdps(50):
        return float(1 / mpmath.mpf(alpha) - mpmath.re(mpmath.expint(alpha + 1, -1j * xi)))


def _si_ci_tail_ref(alpha, xi):
    """The same tail as 1/alpha - xi^alpha int_xi^inf cos(u) u^(-1-alpha) du,
    the cosine integral from Si/Ci at 50 digits."""
    with mpmath.workdps(50):
        X = mpmath.mpf(xi)
        if alpha == 1.0:
            cos_integral = mpmath.cos(X) / X - (mpmath.pi / 2 - mpmath.si(X))
        else:
            cos_integral = (
                mpmath.cos(X) / (2 * X**2) - mpmath.sin(X) / (2 * X) + mpmath.ci(X) / 2
            )
        return float(1 / mpmath.mpf(alpha) - X**alpha * cos_integral)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_power_tail_cosine_integral_matches_si_ci(alpha):
    # xi from pi to 1e7 (criterion 8's tables), and both sides of the
    # Si/Ci-to-continued-fraction switch, just below which the terms
    # cancel 24-fold (alpha = 1)
    below, above = math.nextafter(SICI_MAX_X, 0.0), math.nextafter(SICI_MAX_X, 9.0)
    for xi in [*np.geomspace(math.pi, 1e7, 61), below, SICI_MAX_X, above, 100.0]:
        _check_tail_form(_power_tail, alpha, xi, _si_ci_tail_ref(alpha, xi))


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_power_tail_head_matches_mpmath(alpha):
    # xi from 1e-8 up to the last floats below pi, where a head on
    # [1, pi / xi] would vanish: the whole tail must not notice
    xis = [*np.geomspace(1e-8, 3.0, 61), *(math.pi * (1.0 - 10.0**-k) for k in range(1, 13))]
    for xi in xis:
        _check_tail_form(_power_tail, alpha, xi, _power_tail_ref(alpha, xi))


def _exponential_tail_ref(lam, xi):
    """int_1^inf (1 - cos xi r) e^(-lam (r - 1)) dr = 1/lam - Re e^(i xi) / (lam - i xi)
    at 60 digits, which its cancellation leaves above 30."""
    with mpmath.workdps(60):
        L, X = mpmath.mpf(lam), mpmath.mpf(xi)
        return float(1 / L - mpmath.re(mpmath.expj(X) / (L - 1j * X)))


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e300])
def test_exponential_tail_matches_mpmath(lam):
    # xi over 16 decades and at 1e308, where the unscaled form overflows;
    # at lam = 1e300 the value is subnormal below xi ~ 1e-3, so that lam
    # starts at xi = 1
    lo = 1e-8 if lam <= 1e3 else 1.0
    for xi in [*np.geomspace(lo, 1e8, 65), 1e308]:
        _check_tail_form(_exponential_tail, lam, xi, _exponential_tail_ref(lam, xi))


@pytest.mark.parametrize("dim", [1, 2])
def test_bounded_near_part_closed_form(dim):
    # int_0^1 (1 - cos xi r) dr = 1 - sin xi / xi and
    # int_0^1 (1 - J0(xi r)) r dr = 1/2 - J1(xi) / xi, series side included
    c0 = 0.7
    for xi in [*np.geomspace(1e-8, 1e7, 91), 1.0, math.nextafter(1.0, 2.0)]:
        with mpmath.workdps(50):
            X = mpmath.mpf(xi)
            exact = 1 - mpmath.sin(X) / X if dim == 1 else 0.5 - mpmath.besselj(1, X) / X
            ref = float(c0 * exact)
        value, bound = _bounded_near(c0, xi, dim)
        assert abs(value - ref) <= 1e-14 * ref, (xi, value, ref)
        assert 0.0 < bound and abs(value - ref) <= bound, (xi, value, ref, bound)


def _count_quad(monkeypatch):
    """Record every scipy.integrate.quad call as (upper limit, weight)."""
    calls = []
    quad = scipy.integrate.quad

    def counted(fn, a, b, *args, **kwargs):
        calls.append((b, kwargs.get("weight")))
        return quad(fn, a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_bounded_compact_table_needs_no_quadrature(monkeypatch, dim):
    calls = _count_quad(monkeypatch)
    build_symbol_table(LevyKernel(dim, Bounded(0.7), CompactSupport()), log_grid(1e-3, 1e4, 8))
    assert calls == []


def test_lattice_and_criterion_8_tables_need_no_qawf(monkeypatch):
    # the reference lattice table and both of criterion 8's tables are all
    # closed forms: no quad call at all
    calls = _count_quad(monkeypatch)
    cfg = parse_config(Path(__file__).parents[1] / "acceptance" / "linear_alpha1.cfg")
    build_symbol_table(cfg.kernel.levy, LinearPropagator.table_grid(cfg.lattice()))
    build_symbol_table(BORDER_PT2, log_grid(1e-3, 1e7, per_decade=32))
    osc = LevyKernel(1, Oscillating(1.0), PowerTail(2.0))
    build_symbol_table(osc, log_grid(1e-3, 1e6, per_decade=32))
    assert calls == []
    # QAWF would be a quad call on an infinite interval; every tail without
    # a closed form goes to zero-to-zero panels, non-integer alpha included
    for dim in (1, 2):
        symbol_quadrature(LevyKernel(dim, Bounded(1.0), PowerTail(1.5)), 0.5)
    assert calls and [c for c in calls if c[0] == np.inf] == []


@pytest.mark.parametrize(
    "xi", [*np.geomspace(1e-8, 1e7, 76), math.pi, math.nextafter(math.pi, 4.0)]
)
def test_unit_fractional_near_part_matches_mpmath(xi):
    # int_0^1 (1 - cos xi r) r^-2 dr = xi Si(xi) - 2 sin^2(xi / 2)
    value, bound = _unit_power_near(xi)
    with mpmath.workdps(50):
        X = mpmath.mpf(xi)
        ref = X * mpmath.si(X) - 2 * mpmath.sin(X / 2) ** 2
        err = float(abs(value - ref))
    assert err <= 1e-15 * float(ref), (xi, value, ref)
    assert 0.0 < bound and err <= bound, (xi, err, bound)


def test_criterion_1_symbol_calls_no_quadrature(monkeypatch):
    # the Cauchy kernel at criterion 1's 81 frequencies: every part in closed form
    calls = _count_quad(monkeypatch)
    assert acceptance.criterion_1().passed
    assert calls == []
    # a beta other than 1 keeps QUADPACK's near route
    symbol_quadrature(LevyKernel(1, FractionalPower(0.5), PowerTail(1.0)), 4.0)
    assert calls


def _bounded_power_multiplier(c0, alpha, xi):
    """m(xi) of Bounded(c0) + PowerTail(alpha), alpha in {1, 2}, in one
    dimension, in closed form at 40 digits."""
    with mpmath.workdps(40):
        X = mpmath.mpf(xi)
        near = 1 - mpmath.sin(X) / X
        if alpha == 1.0:
            return 2 * c0 * (near + X * (mpmath.pi / 2 - mpmath.si(X)) + 1 - mpmath.cos(X))
        rest = (1 - mpmath.cos(X)) / 2 + (X * mpmath.sin(X) - X**2 * mpmath.ci(X)) / 2
        return 2 * c0 * (near + rest)


def _bounded_exponential_multiplier(c0, lam, xi):
    """m(xi) of Bounded(c0) + ExponentialTail(lam) in one dimension, in
    closed form at 60 digits."""
    with mpmath.workdps(60):
        X, L = mpmath.mpf(xi), mpmath.mpf(lam)
        near = 1 - mpmath.sin(X) / X
        return 2 * c0 * (near + 1 / L - mpmath.re(mpmath.expj(X) / (L - 1j * X)))


#: 16 frequencies a decade, and pi's neighbours up to its last float below
#: and the first float above, where a tail split at pi / xi would vanish
_HONEST_XIS = np.unique(
    [
        *log_grid(1e-5, 1e4, 16),
        *(math.pi * (1.0 - 10.0**-k) for k in range(1, 13)),
        math.nextafter(math.pi, 4.0),
    ]
)


def _closed_form_table_error(monkeypatch, kernel, multiplier):
    """The table of a 1-D kernel whose every part is a closed form, on
    ``_HONEST_XIS``, built with no quad call, and its worst relative error
    against ``multiplier(xi)``."""
    calls = _count_quad(monkeypatch)
    tab = build_symbol_table(kernel, _HONEST_XIS)
    assert calls == []
    refs = [multiplier(xi) for xi in _HONEST_XIS]
    return tab, max(float(abs(v - ref) / ref) for v, ref in zip(tab.values, refs))


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_bounded_power_table_is_closed_form_and_honest(monkeypatch, alpha):
    c0 = 0.7
    kernel = LevyKernel(1, Bounded(c0), PowerTail(alpha))
    tab, actual = _closed_form_table_error(
        monkeypatch, kernel, lambda xi: _bounded_power_multiplier(c0, alpha, xi)
    )
    assert actual <= 1e-14
    assert actual <= tab.quad_tol <= 1e-13


@pytest.mark.parametrize("lam", [1e-3, 2.0, 1e3])
def test_bounded_exponential_table_is_closed_form_and_honest(monkeypatch, lam):
    # lam over six decades; the table reports the roundoff bound of its
    # closed forms, not a quadrature estimate
    c0 = 0.7
    kernel = LevyKernel(1, Bounded(c0), ExponentialTail(lam))
    tab, actual = _closed_form_table_error(
        monkeypatch, kernel, lambda xi: _bounded_exponential_multiplier(c0, lam, xi)
    )
    assert actual <= 1e-14
    assert actual <= tab.quad_tol <= 1e-13


@pytest.mark.parametrize(
    "near",
    [Bounded(0.7), FractionalPower(1.0), Borderline(), Oscillating(1.0)],
    ids=["bounded", "unit-power", "borderline", "osc"],
)
def test_exponential_tail_tables_need_no_quadrature(monkeypatch, near):
    # every 1-D near part with a closed form, beside the exponential tail
    calls = _count_quad(monkeypatch)
    tab = build_symbol_table(LevyKernel(1, near, ExponentialTail(1.0)))
    assert calls == []
    assert tab.quad_tol <= 1e-13


def test_bounded_exponential_symbol_is_finite_at_the_largest_frequencies():
    # the exponential tail's form scales lam and xi by max(lam, xi): the
    # unscaled xi^2 and lam^2 + xi^2 overflow at xi = 1e308
    kernel = LevyKernel(1, Bounded(0.7), ExponentialTail(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (1e154, 1e308):
            m = symbol_quadrature(kernel, xi)
            assert m == pytest.approx(2.0 * 0.7 * 2.0, rel=1e-15)


#: the pure power coefficient c, m(xi) = c xi^alpha, in mpmath
_PURE_POWER_COEFF = {
    1: lambda a: mpmath.pi / (mpmath.gamma(1 + a) * mpmath.sin(mpmath.pi * a / 2)),
    2: lambda a: 2 * mpmath.pi * 2**-a * mpmath.gamma(1 - a / 2) / (a * mpmath.gamma(1 + a / 2)),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9, 1.999])
def test_pure_power_table_takes_the_closed_form_coefficient(monkeypatch, dim, alpha):
    kernel = LevyKernel(dim, FractionalPower(alpha), PowerTail(alpha))
    calls = _count_quad(monkeypatch)
    tab = build_symbol_table(kernel, log_grid(1e-2, 1e2, 4))
    assert calls == []
    coeff = tab.closed_form.coefficient
    with mpmath.workdps(30):
        ref = _PURE_POWER_COEFF[dim](mpmath.mpf(alpha))
    # the recorded quad_tol is a roundoff bound the coefficient meets
    assert tab.quad_tol < 1e-14
    assert abs(coeff - ref) <= tab.quad_tol * ref, (coeff, ref)
    # and the symbol engine agrees within its own error estimate (in 1-D
    # at alpha = 1 that value is closed forms only, elsewhere quadrature)
    value, err = _symbol_value_err(kernel, 1.0)
    assert abs(coeff - value) <= err


def _pchip_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for n in (3, 8, 40):
        x = np.sort(rng.uniform(-5.0, 5.0, n))
        cases += [
            (f"monotone-{n}", x, np.cumsum(rng.uniform(0.0, 1.0, n))),
            (f"non-monotone-{n}", x, rng.normal(size=n)),
            (f"flat-runs-{n}", x, np.round(rng.normal(size=n))),
        ]
    cases.append(("two-point", np.array([-1.0, 2.5]), np.array([0.3, -1.2])))
    return cases


@pytest.mark.parametrize("name,x,y", _pchip_cases(), ids=[c[0] for c in _pchip_cases()])
def test_monotone_cubic_is_scipy_pchip_bit_for_bit(name, x, y):
    # given PCHIP's knot slopes, the Hermite evaluation is scipy's PCHIP to
    # the last bit: coefficients, interval search and summation order
    from scipy.interpolate import PchipInterpolator

    pchip = PchipInterpolator(x, y)
    # an interval's linear coefficient is its left knot's slope; the last
    # knot's is minus the first of the mirrored data, as PCHIP is odd in x
    last = -PchipInterpolator(-x[::-1], y[::-1]).c[2, 0]
    d = np.append(pchip.c[2], last)
    z = np.concatenate([x, np.linspace(x[0], x[-1], 1001)])
    assert np.array_equal(_hermite_cubic(x, y, d)(z), pchip(z))


def _random_knots():
    rng = np.random.default_rng(2024)
    return [np.sort(rng.uniform(-5.0, 5.0, n)) for n in (3, 8, 40)]


@pytest.mark.parametrize("x", _random_knots(), ids=["3", "8", "40"])
def test_hermite_cubic_reproduces_quadratics(x):
    # each slope is a parabola's, so a quadratic comes back to roundoff;
    # PCHIP's harmonic-mean slopes do not reproduce one
    z = np.concatenate([x, np.linspace(x[0], x[-1], 1001)])
    for a, b, c in ((0.3, -1.2, 0.7), (-2.0, 0.5, -3.0), (1.0, 0.0, 1e-3)):
        q = lambda t: a + b * t + c * t * t
        scale = np.abs(q(z)).max()
        assert np.abs(_hermite_cubic(x, q(x), _parabola_slopes(x, q(x)))(z) - q(z)).max() <= 8 * np.finfo(float).eps * scale


def test_hermite_cubic_through_two_knots_is_the_line():
    x, y = np.array([-1.0, 2.5]), np.array([0.3, -1.2])
    z = np.linspace(-1.0, 2.5, 1001)
    line = 0.3 + (z + 1.0) * (-1.5 / 3.5)
    assert np.allclose(_hermite_cubic(x, y, _parabola_slopes(x, y))(z), line, rtol=0.0, atol=4 * np.finfo(float).eps)


def _midpoint_error(kernel, tab):
    """Max relative error of ``tab`` against the engine at the geometric
    midpoint of every table interval."""
    mid = np.sqrt(tab.radial_grid[:-1] * tab.radial_grid[1:])
    exact = np.array([symbol_quadrature(kernel, x) for x in mid])
    return np.max(np.abs(tab.evaluate(mid) - exact) / exact)


def test_reference_table_reads_its_multiplier_at_every_midpoint():
    # log-log PCHIP read 1.34e-4 here, the Hermite cubic 3.76e-6
    cfg = parse_config(Path(__file__).parents[1] / "acceptance" / "linear_alpha1.cfg")
    kernel = cfg.kernel.levy
    tab = build_symbol_table(kernel, LinearPropagator.table_grid(cfg.lattice()))
    assert _midpoint_error(kernel, tab) <= 1e-5


def test_2d_bounded_power_table_reads_its_multiplier_at_every_midpoint():
    # measured 1.97e-5 (PCHIP 1.27e-4); the bound leaves a 1.5x margin
    kernel = LevyKernel(2, Bounded(0.7), PowerTail(1.5))
    grid = LinearPropagator.table_grid(PeriodicGrid(2, 32.0, 128))
    assert _midpoint_error(kernel, build_symbol_table(kernel, grid)) <= 3e-5
