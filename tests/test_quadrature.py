import math

import numpy as np
import pytest

from levyheat.quadrature import (
    accelerated_panel_tail,
    adaptive_quad,
    gauss_panel_sums,
    j0_zero,
    zero_panel_edges,
)

# frozen references (40-digit arithmetic)
COS_EXP_TAIL = -0.11657079453925115  # int_1^inf cos(2.5 r) e^{-r} dr
COS_POWER_TAIL = 0.04175881678201276  # int_2^inf cos(3 r) r^{-2} dr
COS_EXP_TAIL2 = 0.039246743402603289  # int_2^inf e^{-0.7 r} cos(3 r) dr


def test_endpoint_singularity():
    val, err = adaptive_quad(lambda r: r**-0.5, 0.0, 1.0)
    assert abs(val - 2.0) < 1e-12
    assert err < 1e-10


def test_breakpoint_discontinuity():
    def step(r):
        return 3.0 if r < 0.3 else 1.0

    val, err = adaptive_quad(step, 0.0, 1.0, breakpoints=[0.3])
    assert abs(val - (0.9 + 0.7)) < 1e-12, f"step integral {val}"


def test_breakpoints_outside_interval_ignored():
    val, _ = adaptive_quad(lambda r: r, 0.0, 1.0, breakpoints=[-1.0, 0.5, 7.0])
    assert abs(val - 0.5) < 1e-13


def test_degenerate_interval():
    # the adaptive and the cosine-weighted rule share the empty-interval guard
    for omega in (None, 5.0):
        assert adaptive_quad(lambda r: r, 1.0, 1.0, omega=omega) == (0.0, 0.0)
        assert adaptive_quad(lambda r: r, 2.0, 1.0, omega=omega) == (0.0, 0.0)


def test_cos_weighted_finite():
    # int_0^pi r cos(5 r) dr = (cos(5 pi) - 1)/25 = -2/25
    val, err = adaptive_quad(lambda r: r, 0.0, math.pi, omega=5.0)
    assert abs(val - (-0.08)) < 1e-12, f"QAWO value {val}"
    # QAWO takes no breakpoints: one inside the interval is refused, not dropped
    with pytest.raises(ValueError, match="no breakpoints"):
        adaptive_quad(lambda r: r, 0.0, math.pi, breakpoints=[1.0], omega=5.0)


def test_gauss_panels_sum_to_integral():
    edges = np.linspace(0.0, math.pi, 11)
    terms = gauss_panel_sums(np.sin, edges)
    assert terms.shape == (10,)
    assert abs(terms.sum() - 2.0) < 1e-13


def test_gauss_panels_polynomial_exactness():
    # 16-point Gauss is exact through degree 31
    edges = np.array([0.0, 0.7, 1.0])
    terms = gauss_panel_sums(lambda x: 7 * x**6, edges)
    assert abs(terms.sum() - 1.0) < 1e-14


def _check_engine_cos_tail(f, a, omega, ref):
    # the 1-D engine's tail: panels from a between the cosine's zeros
    edges = zero_panel_edges(a, math.inf, omega, "cos")
    val, err = accelerated_panel_tail(lambda r: np.cos(omega * r) * f(r), edges)
    assert abs(val - ref) <= 1e-14 * abs(ref), f"panel tail {val!r} vs {ref!r}"
    assert abs(val - ref) <= err <= 1e-14


def test_cos_weighted_tail_exponential():
    _check_engine_cos_tail(lambda r: np.exp(-r), 1.0, 2.5, COS_EXP_TAIL)
    _check_engine_cos_tail(lambda r: np.exp(-0.7 * r), 2.0, 3.0, COS_EXP_TAIL2)


def test_cos_weighted_tail_power():
    _check_engine_cos_tail(lambda r: r**-2.0, 2.0, 3.0, COS_POWER_TAIL)


def test_accelerated_panel_tail_matches_qawf():
    # the reference QAWF once computed, from hand-placed edges: 2, then the
    # first 38 zeros of cos(3 r) beyond it
    edges = np.pi * (np.arange(40) + 0.5) / 3.0
    edges = np.concatenate([[2.0], edges[edges > 2.0]])
    val, err = accelerated_panel_tail(lambda r: np.cos(3.0 * r) * r**-2.0, edges)
    assert abs(val - COS_POWER_TAIL) < 1e-11, f"panel tail {val}"
    assert abs(val - COS_POWER_TAIL) <= err


def _dirichlet_panels(count):
    # int_0^inf sin(r)/r dr = pi/2 over the panels [k pi, (k+1) pi]: an
    # alternating series whose plain partial sums err by ~1/(k pi)
    return accelerated_panel_tail(lambda r: np.sinc(r / math.pi), math.pi * np.arange(count + 1))


def test_euler_sum_of_alternating_panel_series():
    # the 61 partial sums the symbol engine uses reach roundoff, and the
    # estimate covers the error without being vacuous
    val, err = _dirichlet_panels(61)
    assert abs(val - math.pi / 2) <= 1e-15
    assert abs(val - math.pi / 2) <= err <= 1e-14


def test_euler_sum_error_estimate_tracks_truncation():
    # with too few partial sums the estimate is the truncation error, to
    # within a small factor
    val, err = _dirichlet_panels(12)
    actual = abs(val - math.pi / 2)
    assert 1e-8 < actual <= err <= 4.0 * actual


def test_zero_panel_edges():
    # a finite interval keeps its ends and the breakpoints inside it
    edges = zero_panel_edges(1.0, 10.0, 2.0, "j0", breakpoints=(3.3, 12.0))
    zeros = j0_zero(np.arange(1, 8)) / 2.0
    expected = np.sort(np.concatenate([[1.0, 3.3, 10.0], zeros[(zeros > 1.0) & (zeros < 10.0)]]))
    assert np.array_equal(edges, expected)
    # a tail takes its start and the next 61 zeros of the weight
    tail = zero_panel_edges(2.0, math.inf, 3.0, "cos")
    assert tail.size == 62 and tail[0] == 2.0 and (np.diff(tail) > 0).all()
    assert np.abs(np.cos(3.0 * tail[1:])).max() < 1e-13


J0_ZEROS = [
    (1, 2.404825557695773),
    (2, 5.520078110286311),
    (3, 8.653727912911013),
    (10, 30.634606468431975),
    (100, 313.37426607752786),
]


@pytest.mark.parametrize("k,true", J0_ZEROS)
def test_j0_zero_mcmahon(k, true):
    approx = j0_zero(k)
    # panel edges only need to straddle the true zeros
    assert abs(approx - true) < 2e-3 / k, f"zero {k}: {approx} vs {true}"


def test_j0_zero_vectorized():
    ks = np.arange(1, 50)
    zs = j0_zero(ks)
    assert (np.diff(zs) > 3.1).all() and (np.diff(zs) < 3.2).all()
