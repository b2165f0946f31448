import math
import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.special import erf

from levyheat import spectral
from levyheat.analysis import NASH_BOX_EDGE_WIDTH, NASH_BOX_HALF_WIDTH, NASH_SCALES
from levyheat.errors import ContractError, DomainError, GridMismatchError
from levyheat.spectral import (
    ERF_SATURATES,
    GridField,
    PeriodicGrid,
    box_field,
    delta_surrogate,
    field_norms,
    gaussian_field,
    lp_norm,
    mass,
    mollified_box_field,
    random_band_limited,
    random_nonnegative,
    write_field_csv,
)
from lattice import freq_axis, mode_field


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------


def test_grid_geometry():
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    assert g.spacing == 0.25
    assert g.axis[0] == -8.0
    assert g.axis[-1] == 8.0 - 0.25
    assert g.max_frequency == pytest.approx(math.pi / 0.25, rel=1e-15)
    # frequencies are integer multiples of pi/L
    ratio = np.sort(freq_axis(g)) / (math.pi / g.half_width)
    assert np.allclose(ratio, np.round(ratio), atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 1024, 2**20])
@pytest.mark.parametrize("half_width", [8.0, 3.7])
def test_1d_half_lattice_radii_are_the_nonnegative_fft_frequencies(n, half_width):
    # computed alone, Nyquist included, and bit for bit; 3.7 makes a
    # spacing that is no power of two; the grid caches nothing
    g = PeriodicGrid(dimension=1, half_width=half_width, points_per_axis=n)
    want = np.abs(2.0 * math.pi * np.fft.fftfreq(n, g.spacing))[: n // 2 + 1]
    assert np.array_equal(g.half_freq_radii(), want)
    assert set(vars(g)) == {"dimension", "half_width", "points_per_axis"}


@pytest.mark.parametrize("n", [2**k for k in range(1, 11)])
@pytest.mark.parametrize("half_width", [8.0, 3.7])
def test_2d_half_lattice_radii_are_the_fft_frequencies(n, half_width):
    # bit for bit: np.hypot of the two axes' radian FFT frequencies, the
    # last axis cut to its first n // 2 + 1 columns (Nyquist included)
    g = PeriodicGrid(dimension=2, half_width=half_width, points_per_axis=n)
    f = 2.0 * math.pi * np.fft.fftfreq(n, g.spacing)
    want = np.hypot(f[:, None], f[None, : n // 2 + 1])
    assert np.array_equal(g.half_freq_radii(), want)


@pytest.mark.parametrize(
    "dim,L,n",
    [(3, 1.0, 64), (1, 0.0, 64), (1, 1.0, 48), (1, 1.0, 0), (2, -2.0, 32), (1, math.inf, 64),
     (2, math.nan, 32), (1, 1e308, 64), (2, 5e-324, 64)],
)
def test_grid_rejects_bad_parameters(dim, L, n):
    with pytest.raises(DomainError):
        PeriodicGrid(dimension=dim, half_width=L, points_per_axis=n)


def test_field_value_validation():
    g = PeriodicGrid(dimension=1, half_width=1.0, points_per_axis=16)
    with pytest.raises(GridMismatchError):
        GridField(g, np.zeros(8))
    # a stack of fields is taken only when declared a batch
    with pytest.raises(GridMismatchError):
        GridField(g, np.zeros((16, 16)))
    assert GridField(g, np.zeros((3, 16)), batch=True).values.shape == (3, 16)
    for shape in [(16,), (3, 8), (3, 2, 16)]:
        with pytest.raises(GridMismatchError):
            GridField(g, np.zeros(shape), batch=True)
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ContractError):
        GridField(g, bad)
    bad[3] = np.inf
    with pytest.raises(ContractError):
        GridField(g, bad)


# ---------------------------------------------------------------------------
# norms and mass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_unit_indicator_has_unit_norm(p):
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=128)  # dx = 1/16
    f = box_field(g, width=1.0)
    assert lp_norm(f, p) == pytest.approx(1.0, abs=1e-14)


def test_constant_field_norm():
    g = PeriodicGrid(dimension=1, half_width=3.0, points_per_axis=64)
    c = 1.7
    f = GridField(g, np.full(g.shape, c))
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(f, p) == pytest.approx(c * 6.0 ** (1 / p), rel=1e-13)
    assert lp_norm(f, math.inf) == c


def test_norm_homogeneity_and_domain():
    g = PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=64)
    rng = np.random.default_rng(3)
    f = GridField(g, rng.standard_normal(g.shape))
    g2 = GridField(g, 2.0 * f.values)
    assert lp_norm(g2, 1.5) == pytest.approx(2 * lp_norm(f, 1.5), rel=1e-13)
    with pytest.raises(DomainError):
        lp_norm(f, 0.5)


def test_string_p_is_rejected():
    # p is a number; the norm of p = inf is asked for with math.inf
    f = GridField(PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=64), np.ones(64))
    with pytest.raises(DomainError, match="p must be"):
        lp_norm(f, "inf")


def test_nan_p_is_rejected():
    f = GridField(PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=64), np.ones(64))
    with pytest.raises(DomainError, match="p must be"):
        lp_norm(f, math.nan)
    with pytest.raises(DomainError, match="p must be"):
        field_norms(f, extra=(math.nan,))


def test_norms_nondecreasing_in_p_on_indicator():
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=256)
    f = box_field(g, width=0.5)  # support measure 1/2 <= 1
    ps = [1.0, 1.25, 2.0, 3.0, 6.0, math.inf]
    norms = [lp_norm(f, p) for p in ps]
    assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:])), norms


def test_mass():
    g = PeriodicGrid(dimension=2, half_width=2.0, points_per_axis=32)
    f = GridField(g, 3.0 * box_field(g, width=1.0).values)
    assert mass(f) == pytest.approx(3.0, abs=1e-13)
    assert mass(GridField(g, np.zeros(g.shape))) == 0.0
    h = gaussian_field(g, sigma=0.3)
    both = GridField(g, f.values + h.values)
    assert mass(both) == pytest.approx(mass(f) + mass(h), rel=1e-13)
    # mass is the zero Fourier coefficient
    zero_coeff = g.cell_volume * np.fft.fftn(h.values)[0, 0].real
    assert mass(h) == pytest.approx(zero_coeff, rel=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 3.0, 1.5, math.inf])
def test_lp_norm_matches_generic_formula(dim, n, p):
    # the exact-product paths (p = 1, 2, 4) and the pow path agree with
    # (dx^N sum |v|^p)^(1/p) on signed random fields
    g = PeriodicGrid(dimension=dim, half_width=3.0, points_per_axis=n)
    rng = np.random.default_rng(17 + dim)
    for _ in range(3):
        f = GridField(g, rng.standard_normal(g.shape) * rng.uniform(0.1, 10.0))
        a = np.abs(f.values)
        want = a.max() if p == math.inf else (g.cell_volume * np.sum(a**p)) ** (1.0 / p)
        assert lp_norm(f, p) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_general_p_norm_is_exactly_the_power_sum(p):
    # powering only the nonzero samples leaves the sum bit-identical,
    # on a box with exact zeros and on a dense signed field
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=1024)
    rng = np.random.default_rng(23)
    box = GridField(g, 1.7 * box_field(g, width=3.0).values)
    for f in (box, GridField(g, rng.standard_normal(g.shape))):
        want = (g.cell_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p)
        assert lp_norm(f, p) == want


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_field_norms_equal_the_single_scalars(dim, n):
    g = PeriodicGrid(dimension=dim, half_width=3.0, points_per_axis=n)
    f = GridField(g, np.random.default_rng(5).standard_normal(g.shape))
    got = field_norms(f, extra=(3.0, 2.0))
    assert got.mass == mass(f)
    assert set(got.lp) == {1.0, 2.0, 3.0, 4.0, math.inf}
    for p, value in got.lp.items():
        assert value == lp_norm(f, p), p
    a = np.abs(f.values)
    faces = a[0].max() if dim == 1 else max(a[0].max(), a[:, 0].max())
    assert got.face_ratio == faces / a.max()
    assert field_norms(GridField(g, np.zeros(g.shape))).face_ratio == 0.0


# ---------------------------------------------------------------------------
# field constructors
# ---------------------------------------------------------------------------


def test_delta_surrogate_mass_one():
    g = PeriodicGrid(dimension=1, half_width=16.0, points_per_axis=2048)
    d = delta_surrogate(g)
    assert mass(d) == pytest.approx(1.0, abs=1e-14)
    # unit-mass Gaussian of width 3 dx peaks at 1/(3 dx sqrt(2 pi))
    peak = 1.0 / (3.0 * g.spacing * math.sqrt(2 * math.pi))
    assert lp_norm(d, math.inf) == pytest.approx(peak, rel=1e-3)


def test_mode_field_spectrum():
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=128)
    A = 0.8
    F = g.cell_volume * np.fft.fftn(mode_field(g, 5, amplitude=A).values)
    k = np.argmin(np.abs(freq_axis(g) - 5 * math.pi / g.half_width))
    # cosine splits into two conjugate spikes of weight A(2L)/2 = A L
    assert abs(F[k]) == pytest.approx(A * g.half_width, rel=1e-12)


def test_mollified_box_dilation_family():
    g = PeriodicGrid(dimension=1, half_width=32.0, points_per_axis=4096)
    base = mollified_box_field(g)
    m0, l2_0 = mass(base), lp_norm(base, 2)
    for lam in (0.5, 2.0, 4.0):
        f = mollified_box_field(g, scale=lam)
        assert mass(f) == pytest.approx(m0, rel=1e-12), f"mass drifts at lambda={lam}"
        # ||lambda f(lambda x)||_2^2 = lambda ||f||_2^2 in N=1
        assert lp_norm(f, 2) ** 2 == pytest.approx(lam * l2_0**2, rel=1e-6)


def test_erf_is_exactly_one_from_the_saturation_edge():
    # mollified_box_field skips erf beyond this edge; a scipy whose erf
    # stops saturating there must fail here, not move fields silently
    z = np.concatenate([np.arange(ERF_SATURATES, 40.0, 1e-5), [40.0, 1e300, np.inf]])
    assert np.all(erf(z) == 1.0)
    assert np.all(erf(-z) == -1.0)


#: (shape, axes) of the transforms levyheat makes: 1-D lattices up to
#: 2^20 points, criterion 6's batches of 256-point fields, 2-D lattices
TRANSFORM_SHAPES = [((2**k,), (0,)) for k in range(1, 21)] + [
    ((1000, 256), (1,)),
    ((500, 256), (1,)),
    ((256, 256), (0, 1)),
    ((512, 512), (0, 1)),
]


@pytest.mark.parametrize("shape,axes", TRANSFORM_SHAPES, ids=[str(s) for s, _ in TRANSFORM_SHAPES])
def test_numpy_fft_is_bit_identical_to_scipy_fft(shape, axes):
    # levyheat transforms by numpy.fft, and scipy.fft wraps the same
    # pocketfft; a numpy or scipy whose transforms differ must fail here,
    # not move outputs silently
    x = np.random.default_rng(len(shape) * 100 + shape[-1]).standard_normal(shape)
    spectrum = np.fft.rfftn(x, axes=axes)
    assert np.array_equal(spectrum, scipy.fft.rfftn(x, axes=axes))
    s = [shape[a] for a in axes]
    back = np.fft.irfftn(spectrum, s=s, axes=axes)
    assert np.array_equal(back, scipy.fft.irfftn(spectrum, s=s, axes=axes))


def _box_mask(grid, width):
    # the centred box as an indicator mask over the whole lattice
    mask = np.ones(grid.shape, dtype=bool)
    for ax in np.ix_(*(grid.axis,) * grid.dimension):
        mask &= (ax >= -0.5 * width) & (ax < 0.5 * width)
    return mask.astype(float)


@pytest.mark.parametrize("dim,n", [(1, 2), (1, 4), (1, 64), (1, 2**16), (2, 2), (2, 4), (2, 64)])
def test_box_is_bit_identical_to_its_indicator_mask(dim, n):
    L = 8.0
    g = PeriodicGrid(dimension=dim, half_width=L, points_per_axis=n)
    for width in (0.0, 0.3 * g.spacing, 4.0, 2 * L, 3 * L, -1.0, 1e300):
        got = box_field(g, width=width).values
        want = _box_mask(g, width)
        # tobytes tells +0.0 from -0.0
        assert got.tobytes() == want.tobytes(), width
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_box_and_mollified_box_take_numpy_scalars_that_overflow():
    # edges whose node index overflows lie outside the lattice, with no
    # numpy overflow warning (an error in this suite)
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    huge = np.float64(1.7e308)
    assert not box_field(g, width=-huge).values.any()
    assert box_field(g, width=huge).values.all()
    tiny = mollified_box_field(g, scale=np.float64(1e-310))
    assert tiny.values.tobytes() == mollified_box_field(g, scale=1e-310).values.tobytes()


def test_box_rejects_non_finite_arguments():
    g = PeriodicGrid(dimension=2, half_width=8.0, points_per_axis=16)
    for w in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="width"):
            box_field(g, width=w)


def _gaussian_everywhere(grid, sigma):
    # the squares summed over the whole lattice
    sq = np.zeros(grid.shape)
    for ax in np.ix_(*(grid.axis,) * grid.dimension):
        sq = sq + ax**2
    return np.exp(-0.5 * sq / sigma**2)


@pytest.mark.parametrize("dim,n", [(1, 2), (1, 64), (1, 2**16), (2, 4), (2, 64)])
def test_gaussian_is_bit_identical_to_its_whole_lattice_formula(dim, n):
    g = PeriodicGrid(dimension=dim, half_width=8.0, points_per_axis=n)
    for sigma in (1.0, -0.7, 0.01, 3):
        got = gaussian_field(g, sigma=sigma).values
        assert got.tobytes() == _gaussian_everywhere(g, sigma).tobytes(), sigma
    want = _gaussian_everywhere(g, 3.0 * g.spacing)
    want = want / (g.cell_volume * np.sum(want))
    assert delta_surrogate(g).values.tobytes() == want.tobytes()


def test_gaussian_rejects_bad_arguments():
    # sigma^2 = 0 (sigma 0 or 1e-200) or inf once divided a lattice array
    # with a numpy warning; a NaN failed as a ContractError naming nothing
    g = PeriodicGrid(dimension=2, half_width=8.0, points_per_axis=16)
    for sigma in (0.0, -0.0, 1e-200, 1e300, np.float64(1e300), np.nan, np.inf):
        with pytest.raises(DomainError, match="sigma"):
            gaussian_field(g, sigma=sigma)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("sigma", [1e-155, 1.5e-154], ids=["subnormal_var", "normal_var"])
def test_gaussian_of_a_vanishing_width_is_its_limit(dim, sigma):
    # sigma^2 is positive and finite, but x^2 / (2 sigma^2) overflows off
    # the centre node, which raised numpy's overflow RuntimeWarning; the
    # limit 1 at the centre and 0 elsewhere comes without one
    g = PeriodicGrid(dimension=dim, half_width=8.0, points_per_axis=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = gaussian_field(g, sigma=sigma).values
    centre = (g.points_per_axis // 2,) * dim
    assert g.axis[centre[0]] == 0.0 and vals[centre] == 1.0
    assert np.count_nonzero(vals) == 1


def _mollified_box_everywhere(grid, half_width, edge_width, scale):
    # the profile with erf evaluated at every sample, centred on the cell
    # at -dx/2: at x_j + dx/2
    vals = np.full(grid.shape, float(scale) ** grid.dimension)
    centres = grid.axis + 0.5 * grid.spacing
    for ax in np.ix_(*(centres,) * grid.dimension):
        y = scale * ax
        vals = vals * 0.5 * (erf((y + half_width) / edge_width) - erf((y - half_width) / edge_width))
    return vals


def _assert_mollified_box_is_bit_identical(g, half_width, edge_width, scales):
    for lam in scales:
        got = mollified_box_field(g, half_width=half_width, edge_width=edge_width, scale=lam)
        want = _mollified_box_everywhere(g, half_width, edge_width, lam)
        # tobytes tells +0.0 from -0.0
        assert got.values.tobytes() == want.tobytes(), f"lambda = {lam}"


# n = 2 and 4: the padded band reaches both lattice ends
@pytest.mark.parametrize("dim,n", [(1, 4096), (2, 64), (1, 2), (1, 4), (2, 2), (2, 4)])
@pytest.mark.parametrize(
    "half_width,edge_width,scales",
    [
        (1.0, 0.25, NASH_SCALES),  # the sweep's family
        (3.0, 0.1, (0.37, 1.0, 2.0)),  # a plateau: h > 6 w
        (1.0, 0.25, (1e-3,)),  # support wider than the domain
        (-1.0, 0.25, NASH_SCALES),  # negative widths flip the profile's sign
        (1.0, -0.25, NASH_SCALES),
        (-3.0, -0.1, (0.37, 1.0, 2.0, 1e-3)),
    ],
)
def test_mollified_box_is_bit_identical_to_erf_everywhere(dim, n, half_width, edge_width, scales):
    g = PeriodicGrid(dimension=dim, half_width=8.0, points_per_axis=n)
    _assert_mollified_box_is_bit_identical(g, half_width, edge_width, scales)


@pytest.mark.parametrize("exponent", [17, 18])
def test_mollified_box_is_bit_identical_to_erf_on_the_nash_criterion_grids(exponent):
    # criterion 7 sweeps the family on L = 256 at 2^17 and 2^18 points
    g = PeriodicGrid(dimension=1, half_width=256.0, points_per_axis=2**exponent)
    _assert_mollified_box_is_bit_identical(
        g, NASH_BOX_HALF_WIDTH, NASH_BOX_EDGE_WIDTH, NASH_SCALES
    )


def test_mollified_box_needs_a_positive_scale():
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=64)
    bad = [{"scale": lam} for lam in (0.0, -1.0, np.nan, np.inf)]
    bad += [{"edge_width": w} for w in (0.0, -0.0, np.nan, np.inf, -np.inf)]
    bad += [{"half_width": h} for h in (np.nan, np.inf, -np.inf)]
    for kwargs in bad:
        (name,) = kwargs
        with pytest.raises(DomainError, match=name):
            mollified_box_field(g, **kwargs)


def test_random_band_limited_is_band_limited_and_seeded():
    g = PeriodicGrid(dimension=1, half_width=8.0, points_per_axis=512)
    f = random_band_limited(g, np.random.default_rng(42), band_fraction=0.25)
    assert lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-13)
    F = g.cell_volume * np.fft.fftn(f.values)
    outside = np.abs(freq_axis(g)) > 0.25 * g.max_frequency + 1e-9
    leak = np.max(np.abs(F[outside]))
    assert leak < 1e-10, f"spectral leak outside band: {leak:.3e}"
    f2 = random_band_limited(g, np.random.default_rng(42), band_fraction=0.25)
    assert np.array_equal(f.values, f2.values)
    with pytest.raises(DomainError):
        random_band_limited(g, np.random.default_rng(0), band_fraction=1.5)


def test_random_nonnegative_floor():
    g = PeriodicGrid(dimension=2, half_width=4.0, points_per_axis=32)
    f = random_nonnegative(g, [9, 10])
    assert f.batch and f.values.shape == (2, 32, 32)
    assert np.min(f.values, axis=(1, 2)) == pytest.approx(0.05, abs=1e-15)


def test_single_field_functions_refuse_a_batch(tmp_path):
    g = PeriodicGrid(dimension=1, half_width=4.0, points_per_axis=64)
    batch = random_nonnegative(g, range(3))
    calls = [
        lambda: lp_norm(batch, 2),
        lambda: lp_norm(batch, math.inf),
        lambda: mass(batch),
        lambda: field_norms(batch),
        lambda: write_field_csv(batch, tmp_path / "batch.csv"),
    ]
    for call in calls:
        with pytest.raises(GridMismatchError):
            call()
    assert not (tmp_path / "batch.csv").exists()


def test_write_field_csv_roundtrips(tmp_path):
    g = PeriodicGrid(dimension=1, half_width=2.0, points_per_axis=32)
    f = gaussian_field(g, sigma=0.7)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (32, 2)
    assert np.array_equal(data[:, 0], g.axis)
    assert np.array_equal(data[:, 1], f.values), "17-digit output must round-trip"


@pytest.mark.parametrize("dim", [1, 2])
def test_write_field_csv_writes_the_rows_of_any_block_size(tmp_path, monkeypatch, dim):
    g = PeriodicGrid(dimension=dim, half_width=2.0, points_per_axis=32 if dim == 1 else 8)
    f = random_band_limited(g, np.random.default_rng(3), band_fraction=0.5)
    if dim == 1:
        rows = [f"{x:.17g},{u:.17g}" for x, u in zip(g.axis, f.values)]
    else:
        rows = [
            f"{x:.17g},{y:.17g},{f.values[i, j]:.17g}"
            for i, x in enumerate(g.axis)
            for j, y in enumerate(g.axis)
        ]
    expected = "\n".join(["x,u" if dim == 1 else "x,y,u"] + rows) + "\n"
    monkeypatch.setattr(spectral, "CSV_BLOCK_ROWS", 5)  # 32 rows: six blocks, the last short
    write_field_csv(f, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_text() == expected
