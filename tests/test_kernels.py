import math

import numpy as np
import pytest

from levyheat.errors import DomainError
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


def kernel(near, tail, dim=1):
    return LevyKernel(dimension=dim, near=near, tail=tail)


# ---------------------------------------------------------------------------
# pointwise kernel values
# ---------------------------------------------------------------------------


def test_fractional_power_pointwise():
    k = kernel(FractionalPower(0.5), CompactSupport())
    assert abs(k.eval_radial(0.5) - 2.0 * math.sqrt(2.0)) < 1e-14


def test_borderline_pointwise_2d():
    k = kernel(Borderline(), CompactSupport(), dim=2)
    assert abs(k.eval_radial(0.5) - 4.0) < 1e-14


def test_eval_kernel_vectorized_and_signed():
    k = kernel(FractionalPower(1.0), PowerTail(1.0))
    z = np.array([-0.5, 0.5, 2.0, -2.0])
    vals = k.eval_radial(np.abs(z))
    assert np.allclose(vals[0], vals[1]) and np.allclose(vals[2], vals[3])
    # pure power continues across the matching radius
    assert np.allclose(vals, np.abs(z) ** -2.0)


def test_eval_kernel_rejects_origin():
    k = kernel(Borderline(), CompactSupport())
    with pytest.raises(DomainError):
        k.eval_radial(0.0)


def test_compact_support_vanishes_beyond_one():
    k = kernel(Bounded(1.0), CompactSupport())
    assert k.eval_radial(1.5) == 0.0
    assert k.eval_radial(1.0) == 1.0


def test_exponential_tail_continuity():
    for dim in (1, 2):
        k = kernel(FractionalPower(1.2), ExponentialTail(1.5), dim=dim)
        left = k.eval_radial(1.0 - 1e-12)
        right = k.eval_radial(1.0 + 1e-12)
        assert abs(left - right) < 1e-9 * left, f"dim {dim}: {left} vs {right}"


def test_exponential_matching_constant():
    k = kernel(FractionalPower(1.0), ExponentialTail(1.5))
    # the tail is written from |z| = 1, so the match is the pure power
    # profile's ell(1) = 1 itself, with no e^lam factor to overflow
    assert k.matching_constant == 1.0
    assert kernel(FractionalPower(1.0), ExponentialTail(1000.0)).matching_constant == 1.0


# ---------------------------------------------------------------------------
# radial profile ell
# ---------------------------------------------------------------------------


def test_ell_constant_for_borderline():
    k = kernel(Borderline(), PowerTail(1.0), dim=2)
    r = np.geomspace(1e-6, 1.0, 50)
    assert np.allclose(k.near.ell(r), 1.0)


def test_ell_oscillating_band_value():
    k = kernel(Oscillating(1.0), CompactSupport())
    # inside the k=2 band (3/16, 1/4] the profile sits at 2^2 = 4
    assert abs(k.near.ell(0.21875) - 4.0) < 1e-14
    assert abs(k.near.ell(0.25) - 4.0) < 1e-14  # right band edge included
    assert abs(k.near.ell(0.26) - 1.0) < 1e-14  # just outside


def test_ell_oscillating_band_invariants():
    osc = Oscillating(1.0)
    for lo, hi, val in osc.bands:
        assert 0.0 < lo < hi <= 0.5
        assert val > 2.0, f"band ({lo}, {hi}] has non-admissible height {val}"


@pytest.mark.parametrize("alpha_osc,count", [(2.0, 26), (3.0, 17)])
def test_oscillating_bands_stop_before_the_first_empty_one(alpha_osc, count):
    # from alpha_osc * k = 54 on, 1 - 2^-(alpha_osc k) rounds to 1 and the
    # band (2^-k (1 - 1/b_k), 2^-k] is empty in double precision
    bands = Oscillating(alpha_osc).bands
    assert all(lo < hi for lo, hi, _ in bands)
    assert len(bands) == count


# ---------------------------------------------------------------------------
# psi functionals, read off the near profiles' closed forms:
# psi1(r) = int_r^1 ell(s)/s ds = near.int_symbol_measure(r)
# ---------------------------------------------------------------------------


def test_psi1_borderline_log():
    k = kernel(Borderline(), CompactSupport())
    assert abs(k.near.int_symbol_measure(0.1) - math.log(10.0)) < 1e-13


def test_psi1_fractional_power():
    k = kernel(FractionalPower(0.5), CompactSupport())
    # (r^{-1/2} - 1)/(1/2) at r = 1/4
    assert abs(k.near.int_symbol_measure(0.25) - 2.0) < 1e-13


@pytest.mark.parametrize(
    "p,ref",
    [(0.5, 1.6346031931940222), (1.0, 1.1947055233182953)],
)
def test_psi1_log_perturbed(p, ref):
    k = kernel(LogPerturbed(p), CompactSupport())
    val = k.near.int_symbol_measure(0.1)
    assert abs(val - ref) < 1e-10, f"psi1 logpert({p}) = {val}"


def test_psi1_oscillating_linear_growth():
    # along the odd band edges psi1 grows at most linearly in the band index
    k = kernel(Oscillating(1.0), CompactSupport())
    for idx in range(2, 16):
        b = 2.0**idx
        edge = 2.0**-idx * (1.0 - 1.0 / b)
        val = k.near.int_symbol_measure(edge)
        assert val <= 3.0 * idx, f"psi1 at band {idx} edge = {val}"
        assert val >= math.log(1.0 / edge) - 1e-12


def test_tail_exponent_capped_at_two():
    assert kernel(Borderline(), PowerTail(3.0)).tail.exponent() == 2.0
    assert kernel(Borderline(), PowerTail(0.5)).tail.exponent() == 0.5
    assert kernel(Borderline(), CompactSupport()).tail.exponent() == 2.0
    assert kernel(Borderline(), ExponentialTail(1.0)).tail.exponent() == 2.0


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        FractionalPower(0.0)
    with pytest.raises(DomainError):
        FractionalPower(-1.0)
    with pytest.raises(DomainError):
        FractionalPower(2.0)
    with pytest.raises(DomainError):
        FractionalPower(float("nan"))
    with pytest.raises(DomainError):
        PowerTail(0.0)
    with pytest.raises(DomainError):
        Bounded(-2.0)
    with pytest.raises(DomainError):
        ExponentialTail(0.0)
    with pytest.raises(DomainError):
        LogPerturbed(1.5)


def test_bad_dimension_rejected():
    with pytest.raises(DomainError):
        LevyKernel(dimension=3, near=Borderline(), tail=CompactSupport())
