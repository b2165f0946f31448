import numpy as np
import pytest
import scipy.special

from levyheat.symbol import _one_minus_j0 as one_minus_j0
from levyheat.symbol import j0

# high-precision references (40-digit arithmetic, rounded to double)
J0_REF = [
    (0.5, 0.9384698072408129),
    (4.0, -0.39714980986384737),
    (13.0, 0.20692610237706781),
    (40.0, 0.0073668905842372896),
    (123.456, -0.071030062418370727),
]

ONE_MINUS_J0_REF = [
    (1e-8, 2.5e-17),
    (0.001, 2.4999998437500043e-7),
    (0.5, 0.061530192759187096),
    (3.0, 1.2600519549019334),
    (11.5, 1.0676539481116652),
]


@pytest.mark.parametrize("x,ref", J0_REF)
def test_j0_reference_values(x, ref):
    got = j0(x)
    assert abs(got - ref) < 1e-11, f"j0({x}) = {got!r}, want {ref!r}"


def test_j0_against_scipy_dense():
    # a dense grid from 0 to 5e4
    x = np.concatenate(
        [
            np.linspace(0.0, 12.0, 1201),
            np.linspace(11.9, 13.1, 241),
            np.geomspace(12.0, 5e4, 2000),
        ]
    )
    ours = j0(x)
    ref = scipy.special.j0(x)
    # absolute accuracy everywhere; relative accuracy away from the
    # zeros, where cancellation in any fixed-precision series caps it
    assert np.max(np.abs(ours - ref)) < 1e-10
    big = np.abs(ref) >= 0.05
    rel = np.abs(ours[big] - ref[big]) / np.abs(ref[big])
    assert np.max(rel) < 1e-10, f"worst rel err {np.max(rel):.3e}"
    near = np.abs(ref) >= 1e-3
    rel_near = np.abs(ours[near] - ref[near]) / np.abs(ref[near])
    assert np.max(rel_near) < 1e-9, f"near-zero rel err {np.max(rel_near):.3e}"


@pytest.mark.parametrize("x,ref", ONE_MINUS_J0_REF)
def test_one_minus_j0_no_cancellation(x, ref):
    got = one_minus_j0(x)
    assert got >= 0.0
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-300) + 1e-18, (
        f"1-J0 at {x}: {got!r} vs {ref!r}"
    )


def test_one_minus_j0_tiny_argument_quadratic():
    # below double rounding of 1 - j0 the series must still resolve x^2/4
    for x in (1e-12, 1e-10, 1e-6):
        got = one_minus_j0(x)
        assert got == pytest.approx(x**2 / 4.0, rel=1e-10)
        assert got > 0


def test_scalar_and_array_shapes():
    assert isinstance(j0(1.0), float)
    assert isinstance(one_minus_j0(1.0), float)
    out = j0(np.ones((3, 4)))
    assert out.shape == (3, 4)
    for x in np.linspace(0, 30, 7).tolist():
        assert isinstance(one_minus_j0(x), float)


def test_j0_at_zero_and_symmetry_range():
    assert j0(0.0) == 1.0
    assert one_minus_j0(0.0) == 0.0
    x = np.linspace(0, 200, 5001)
    assert np.max(np.abs(j0(x))) <= 1.0 + 1e-12


def test_one_minus_j0_scalar_path_matches_array_path():
    # the series and the plain difference agree with 1 - J0 on both
    # sides of their handover at |x| = 1
    x = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.999999, 1.0, 1.000001]])
    got = np.array([one_minus_j0(v) for v in x.tolist()])
    assert np.allclose(got, 1.0 - scipy.special.j0(x), rtol=0.0, atol=1e-15)
