"""Golden config hashes and the exact wording of every ConfigError that
parsing raises: the hash is the experiment's identity in each manifest,
and the messages are what a user reads on exit 2."""

import configparser
import math
from pathlib import Path

import numpy as np
import pytest

from levyheat.cli import parse_config
from levyheat.errors import ConfigError
from levyheat.symbol import build_symbol_table

REFERENCE = Path(__file__).parents[1] / "acceptance" / "linear_alpha1.cfg"

BASE = """\
[experiment]
name = golden
seed = 11

[kernel]
dimension = 1
near = fractional
near_param = 1.0
tail = power
tail_param = 1.0

[grid]
half_width = 64
points = 2048

[flow]
kind = linear
snapshots = 1 2 4

[initial]
kind = box
width = 2.0
"""


def _config(tmp_path, edits=(), extra=""):
    text = BASE
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new, 1)
    path = tmp_path / "golden.cfg"
    path.write_text(text + extra)
    return path


#: config_sha256 of the reference config and of variants (edits of BASE,
#: extra sections) that between them reach every default and every
#: optional section
VARIANTS = {
    # seed, sigma, mass_bound and the box width at their defaults
    "linear-defaults": ([("seed = 11\n", ""), ("width = 2.0\n", "")], ""),
    "nonlinear-gaussian-window": (
        [
            ("kind = linear", "kind = nonlinear\nsigma = 1.5\nmass_bound = inf"),
            ("kind = box\nwidth = 2.0", "kind = gaussian"),
        ],
        "\n[decay]\nnorms = 2 inf\nq = 1.25\nwindow = 1.50 4\n",
    ),
    "random-nash-interpolation": (
        [
            ("kind = linear", "kind = linear\nmass_bound = 2.5"),
            ("kind = box\nwidth = 2.0", "kind = random"),
        ],
        "\n[nash]\nd = 0.5\n\n[interpolation]\nr = 1.25\ns = 2\n",
    ),
    "delta-regularity-2d": (
        [
            ("seed = 11", "seed = 3\noutput = elsewhere"),
            ("dimension = 1", "dimension = 2"),
            ("near = fractional\nnear_param = 1.0", "near = borderline"),
            ("tail = power\ntail_param = 1.0", "tail = compact"),
            ("points = 2048", "points = 64"),
            ("kind = box\nwidth = 2.0", "kind = delta"),
        ],
        "\n[regularity]\ntimes = 0.5 5\n\n[nash]\nd = 0.25\nr = 1.5\n",
    ),
    "targets-with-tolerance": (
        [
            ("near = fractional\nnear_param = 1.0", "near = oscillating\nnear_param = 0.5"),
            ("tail = power\ntail_param = 1.0", "tail = exponential\ntail_param = 2"),
            ("kind = box\nwidth = 2.0", "kind = random\nband = 0.5"),
        ],
        "\n[decay]\nnorms = 2 4\nwindow = auto\ntargets = 0.5 0.75\ntolerance = 0.25\n",
    ),
    "gaussian-scale-logperturbed": (
        [
            ("near = fractional\nnear_param = 1.0", "near = logperturbed\nnear_param = 0.75"),
            ("kind = box\nwidth = 2.0", "kind = gaussian\nscale = 3.5"),
        ],
        "",
    ),
}

GOLDEN_HASHES = {
    "reference": "7c2c5b52fb74e3c1245412353d8d8dd0b5a79184b05f9edcc394562fbc07a432",
    "delta-regularity-2d": "462426c3e42031a3c81b75f92947e3b17aec97edc00ae1ae43d749b4b9086eac",
    "gaussian-scale-logperturbed": "751b18e51cb1fb3c8fb36382b2e713f1e733adc6a79e60f8d1ebf7c18479bd21",
    "linear-defaults": "742e122560c14bd90b7b92721d89bcada0ae067efc164e5bf835ae0c2a39125c",
    "nonlinear-gaussian-window": "5de97a22d9bf7f60cdc149df52eb4e59be60bf3fa4a7076fdae92feb0fc7aead",
    "random-nash-interpolation": "0c3630b6871e5ca5183fd047926de6cb21a4a629ce397281165029c47cb9a2b0",
    "targets-with-tolerance": "12bf9a8513c79e6a320136a02467656c6e00b1ab06dc7b907827d49404bcf792",
}


def test_reference_config_hash():
    assert parse_config(REFERENCE).config_hash() == GOLDEN_HASHES["reference"]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_config_hash(tmp_path, name):
    edits, extra = VARIANTS[name]
    assert parse_config(_config(tmp_path, edits, extra)).config_hash() == GOLDEN_HASHES[name]


def _decay(*lines):
    return "\n[decay]\n" + "\n".join(lines) + "\n"


NONLINEAR = ("kind = linear", "kind = nonlinear\nsigma = 2")
AT_ZERO = ("snapshots = 1 2 4", "snapshots = 0 1 2 4")

#: (edits of BASE, extra sections, the exact message)
MESSAGES = [
    # reading values
    ([("1 2 4", "1 two 4")], "", "[flow].snapshots: expected space-separated numbers, got '1 two 4'"),
    ([("1 2 4", "")], "", "[flow].snapshots: empty value"),
    ([("1 2 4", "1 2 inf")], "", "[flow].snapshots: inf is not allowed (got '1 2 inf')"),
    ([("half_width = 64", "half_width = nan")], "", "[grid].half_width: nan is not allowed (got 'nan')"),
    ([("seed = 11", "seed = 1e400")], "", "[experiment].seed: inf is not allowed (got '1e400')"),
    ([("half_width = 64", "half_width = wide")], "", "[grid].half_width: not a number: 'wide'"),
    ([("points = 2048", "points = 2048.5")], "", "[grid].points: expected an integer, got 2048.5"),
    (
        [("width = 2.0", "width = 2.0\nwobble = 3")],
        "",
        "[initial]: unknown keys ['wobble']; allowed: ['band', 'kind', 'scale', 'width']",
    ),
    (
        [("seed = 11", "seed = 11\nplot = yes")],
        "",
        "[experiment]: unknown keys ['plot']; allowed: ['name', 'output', 'seed']",
    ),
    # missing keys and sections
    ([("name = golden\n", "")], "", "[experiment]: missing required key 'name'"),
    ([("dimension = 1\n", "")], "", "[kernel]: missing required key 'dimension'"),
    ([("half_width = 64\n", "")], "", "[grid]: missing required key 'half_width'"),
    ([("near_param = 1.0\n", "")], "", "[kernel]: missing required key 'near_param'"),
    ([("tail_param = 1.0\n", "")], "", "[kernel]: missing required key 'tail_param'"),
    ([("snapshots = 1 2 4\n", "")], "", "[flow]: missing required key 'snapshots'"),
    ([("kind = linear", "kind = nonlinear")], "", "[flow]: missing required key 'sigma'"),
    ([], _decay("q = 0.5"), "[decay]: missing required key 'norms'"),
    ([], _decay("norms = 2", "targets = 0.5"), "[decay]: missing required key 'tolerance'"),
    ([], "\n[nash]\nr = 1.5\n", "[nash]: missing required key 'd'"),
    ([], "\n[regularity]\n", "[regularity]: missing required key 'times'"),
    ([], "\n[interpolation]\nr = 1.5\n", "[interpolation]: missing required key 's'"),
    ([], "\n[plotting]\ndpi = 300\n", "unknown sections ['plotting']"),
    ([("[initial]\nkind = box\nwidth = 2.0\n", "")], "", "missing required section [initial]"),
    # kernel
    (
        [("near = fractional", "near = cauchy")],
        "",
        "[kernel].near: unknown profile 'cauchy'; choices "
        "['borderline', 'bounded', 'fractional', 'logperturbed', 'oscillating']",
    ),
    (
        [("tail = power", "tail = heavy")],
        "",
        "[kernel].tail: unknown profile 'heavy'; choices ['compact', 'exponential', 'power']",
    ),
    (
        [("near = fractional", "near = borderline")],
        "",
        "[kernel].near_param: profile 'borderline' takes no parameter",
    ),
    (
        [("tail = power", "tail = compact")],
        "",
        "[kernel].tail_param: profile 'compact' takes no parameter",
    ),
    ([("near_param = 1.0", "near_param = 2.5")], "", "[kernel]: FractionalPower needs beta in (0, 2), got 2.5"),
    ([("dimension = 1", "dimension = 3")], "", "[kernel]: dimension must be 1 or 2, got 3"),
    # grid
    ([("points = 2048", "points = 1000")], "", "[grid]: points_per_axis must be a power of two >= 2, got 1000"),
    ([("half_width = 64", "half_width = -1")], "", "[grid]: half_width must be positive, got -1.0"),
    # flow
    ([("kind = linear", "kind = porous")], "", "[flow].kind must be 'linear' or 'nonlinear', got 'porous'"),
    ([("kind = linear", "kind = linear\nsigma = 1")], "", "[flow].sigma: only meaningful for kind = nonlinear"),
    ([("1 2 4", "1 0.5")], "", "[flow].snapshots must be nonnegative and strictly increasing"),
    ([("1 2 4", "-1 2")], "", "[flow].snapshots must be nonnegative and strictly increasing"),
    ([("kind = linear", "kind = nonlinear\nsigma = 0.5")], "", "[flow]: sigma must be >= 1, got 0.5"),
    ([("kind = linear", "kind = linear\nmass_bound = 0")], "", "[flow]: M must be positive, got 0.0"),
    # initial datum
    ([("width = 2.0", "width = 0")], "", "[initial].width must be positive, got 0"),
    (
        [("kind = box\nwidth = 2.0", "kind = gaussian\nscale = -1.5")],
        "",
        "[initial].scale must be positive, got -1.5",
    ),
    (
        [("kind = box\nwidth = 2.0", "kind = random\nband = 1.5")],
        "",
        "[initial].band must lie in (0, 1], got 1.5",
    ),
    (
        [("kind = box\nwidth = 2.0", "kind = dirac")],
        "",
        "[initial].kind: unknown datum 'dirac'; choices ['box', 'delta', 'gaussian', 'random']",
    ),
    # decay
    ([], _decay("norms = 0.5"), "[decay].norms: fitted norms need p >= 1"),
    ([], _decay("norms = 2", "window = 1"), "[decay].window: expected 'auto' or two increasing times"),
    ([], _decay("norms = 2", "window = 4 2"), "[decay].window: expected 'auto' or two increasing times"),
    ([], _decay("norms = 2", "window = 1 nan"), "[decay].window: nan is not allowed (got '1 nan')"),
    (
        [AT_ZERO],
        _decay("norms = 2"),
        "[decay]: a power-law fit needs positive times, but the window 'auto' includes "
        "the snapshot at t = 0",
    ),
    (
        [AT_ZERO],
        _decay("norms = 2", "window = 0.0  8"),
        "[decay]: a power-law fit needs positive times, but the window '0.0  8' includes "
        "the snapshot at t = 0",
    ),
    (
        [],
        _decay("norms = 2 4", "targets = 0.5", "tolerance = 0.1"),
        "[decay].targets must align with [decay].norms",
    ),
    ([], _decay("norms = 2", "targets = 0.5", "tolerance = 0"), "[decay].tolerance must be positive"),
    (
        [NONLINEAR],
        _decay("norms = 2", "q = 1"),
        "[decay].q: the nonlinear decay estimate holds on the range sigma - 1 < q < p; "
        "got sigma - 1 = 1 >= q = 1",
    ),
    (
        [],
        _decay("norms = 4 2", "q = 2"),
        "[decay]: the decay estimate needs q < p; got q = 2, p = 2",
    ),
    # nash, regularity, interpolation
    ([], "\n[nash]\nd = 0\n", "[nash].d must be positive, got 0.0"),
    ([], "\n[nash]\nd = 1\nr = 2\n", "[nash].r must lie in [1, 2), got 2.0"),
    ([], "\n[regularity]\ntimes = 0 1\n", "[regularity].times must be positive"),
    (
        [],
        "\n[interpolation]\nr = 1\ns = 2\n",
        "[interpolation].r: r = 1 is the open case -- the two-monomial bound covers only "
        "1 < r < s <= 2, and no constant is claimed at the endpoint",
    ),
    (
        [],
        "\n[interpolation]\nr = 1.5\ns = 1.25\n",
        "[interpolation]: exponents must satisfy 1 < r < s <= 2, got r = 1.5, s = 1.25",
    ),
]


@pytest.mark.parametrize("edits,extra,message", MESSAGES, ids=[m[2] for m in MESSAGES])
def test_config_error_message(tmp_path, edits, extra, message):
    path = _config(tmp_path, edits, extra)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == message


def test_interpolation_exponents_one_ulp_apart_parse(tmp_path):
    # theta1 - theta2 = 2 gamma r (s - r) / (s (2 - r) (N (2 - r) + gamma r))
    # > 0 for every r < s; here the two round to the same number
    edits = [("dimension = 1", "dimension = 2"), ("tail_param = 1.0", "tail_param = 0.5")]
    extra = "\n[interpolation]\nr = 1.5\ns = 1.5000000000000002\n"
    cfg = parse_config(_config(tmp_path, edits, extra))
    assert cfg.interpolation.s == math.nextafter(1.5, 2.0)


def test_exponential_tail_of_large_rate_builds_a_finite_table(tmp_path):
    # lam = 1000 is inside the documented range lam > 0; e^lam would overflow
    edits = [("tail = power\ntail_param = 1.0", "tail = exponential\ntail_param = 1000")]
    tab = build_symbol_table(parse_config(_config(tmp_path, edits)).kernel.levy)
    assert np.isfinite(tab.values).all() and (tab.values > 0).all()


def test_missing_file_message(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(tmp_path / "nope.cfg")
    assert str(err.value) == f"config file not found: {tmp_path / 'nope.cfg'}"


def test_unreadable_file_message(tmp_path):
    path = tmp_path / "garbled.cfg"
    path.write_text("name = no section\n" + BASE)
    with pytest.raises(configparser.Error) as want:
        configparser.ConfigParser(interpolation=None).read_string(path.read_text())
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}: {want.value}"
