"""Config parsing, validation wording, pipeline artifacts, determinism."""

import ctypes
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import types
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from levyheat import acceptance, cli, evolve, spectral
from levyheat.analysis import dirichlet_form_spectral
from levyheat.cli import ExperimentConfig, main, parse_config, run
from levyheat.errors import ConfigError, PipelineError
from levyheat.evolve import LinearFlow, LinearPropagator, NonlinearFlow, PhiLaw
from levyheat.spectral import GridField, PeriodicGrid, field_norms
from levyheat.symbol import build_symbol_table
from lattice import TRANSFORMS, count_transforms, full_lattice_radii

BASE = """\
[experiment]
name = unit-run
output = {out}
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
snapshots = 1 1.5 2.3 3.4 5.1 7.7

[initial]
kind = box
width = 2.0
"""


def write_cfg(tmp_path, body=None, **extra_sections):
    text = (body or BASE).format(out=tmp_path / "out")
    for header, lines in extra_sections.items():
        text += f"\n[{header}]\n" + "\n".join(lines) + "\n"
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_fills_typed_fields(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.experiment.name == "unit-run"
    assert cfg.experiment.seed == 11
    assert cfg.kernel.near == "fractional" and cfg.kernel.near_param == 1.0
    assert cfg.flow.snapshots == (1.0, 1.5, 2.3, 3.4, 5.1, 7.7)
    assert cfg.flow.kind == "linear" and cfg.flow.sigma == 1.0


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("width = 2.0", "width = 2.0\nwobble = 3"))
    with pytest.raises(ConfigError, match="unknown keys.*wobble"):
        parse_config(path)


def test_removed_cfl_key_is_rejected_as_unknown(tmp_path, capsys):
    # the nonlinear stepper's steps are set by accuracy; [flow].cfl is gone
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("kind = linear", "kind = linear\ncfl = 0.5"))
    assert main(["evolve", "--config", str(path)]) == 2
    assert "unknown keys ['cfl']" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown sections"):
        parse_config(write_cfg(tmp_path, plotting=["dpi = 300"]))


def test_missing_required_section(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[experiment]\nname = x\n")
    with pytest.raises(ConfigError, match=r"missing required section \[kernel\]"):
        parse_config(path)


def test_kernel_range_error_surfaces_at_validation(tmp_path):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("near_param = 1.0", "near_param = -1.0"))
    with pytest.raises(ConfigError, match=r"\[kernel\]"):
        parse_config(path)


def test_unordered_snapshots_rejected(tmp_path):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("1 1.5 2.3 3.4 5.1 7.7", "1 0.5"))
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(path)


def test_sigma_key_on_linear_flow_rejected(tmp_path):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("kind = linear", "kind = linear\nsigma = 2"))
    with pytest.raises(ConfigError, match="only meaningful for kind = nonlinear"):
        parse_config(path)


def test_interpolation_r_equal_one_cites_open_case(tmp_path):
    path = write_cfg(tmp_path, interpolation=["r = 1.0", "s = 2.0"])
    with pytest.raises(ConfigError, match="open case"):
        parse_config(path)


def test_interpolation_range_checked_against_kernel_order(tmp_path):
    # r = 1.2, s = 1.1 violates r < s
    path = write_cfg(tmp_path, interpolation=["r = 1.2", "s = 1.1"])
    with pytest.raises(ConfigError, match=r"1 < r < s <= 2"):
        parse_config(path)


def test_nonlinear_decay_needs_q_above_sigma_minus_one(tmp_path):
    path = write_cfg(tmp_path, decay=["norms = 2", "q = 1.0"])
    text = path.read_text().replace("kind = linear", "kind = nonlinear\nsigma = 2.5")
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"sigma - 1 <= q, q < p; got q=1.0, p=2.0, sigma=2.5"):
        parse_config(path)


def test_decay_q_must_stay_below_fitted_norm(tmp_path):
    path = write_cfg(tmp_path, decay=["norms = 2", "q = 2.0"])
    with pytest.raises(ConfigError, match="q < p"):
        parse_config(path)


def test_canonical_hash_ignores_output_directory(tmp_path):
    cfg_a = parse_config(write_cfg(tmp_path))
    other = tmp_path / "elsewhere"
    other.mkdir()
    cfg_b = parse_config(write_cfg(other))
    assert cfg_a.config_hash() == cfg_b.config_hash()


def test_canonical_hash_sees_the_seed(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    reseeded = replace(cfg, experiment=replace(cfg.experiment, seed=12))
    assert cfg.config_hash() != reseeded.config_hash()


# ---------------------------------------------------------------------------
# pipeline artifacts
# ---------------------------------------------------------------------------


def test_evolve_writes_fields_norms_manifest(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["evolve", "--config", str(path)]) == 0
    out = tmp_path / "out"
    fields = sorted(p.name for p in out.glob("field_*.csv"))
    assert fields == [f"field_{i:04d}.csv" for i in range(6)]
    manifest = json.loads((out / "manifest.json").read_text())
    # a heavy-tail flow on a 64-wide box reaches the boundary well above
    # the guard threshold; the manifest must say so honestly
    assert manifest["escape_guard"]["passed"] is False
    assert manifest["escape_guard"]["max_boundary_ratio"] > 1e-6
    assert manifest["tolerances"]["table_rtol"] == 1e-8
    assert set(manifest["artifacts"]) == {"norms.csv", *fields}

    header, *rows = (out / "norms.csv").read_text().splitlines()
    assert header == "t,l1,l2,linf,energy"
    assert len(rows) == 6
    # 17-significant-digit round trip
    parsed = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)
    assert np.isfinite(parsed).all() and parsed.shape == (6, 5)


def test_nonlinear_manifest_records_the_stepper_work(tmp_path):
    body = BASE.replace("kind = linear", "kind = nonlinear\nsigma = 2")
    path = write_cfg(tmp_path, body=body.replace("points = 2048", "points = 256"))
    assert main(["evolve", "--config", str(path)]) == 0
    work = json.loads((tmp_path / "out" / "manifest.json").read_text())["work"]
    assert set(work) == {
        "evolve.steps",
        "evolve.dt_min",
        "evolve.dt_max",
        "spectral.fft_calls",
        "spectral.fft_points",
    }
    # the rule dt = 0.05 max(t, 0.05), clipped to each snapshot
    t, dts = 0.0, []
    for target in (1, 1.5, 2.3, 3.4, 5.1, 7.7):
        while t < target - 1e-13 * target:
            dts.append(min(0.05 * max(t, 0.05), target - t))
            t += dts[-1]
        t = target
    assert work["evolve.steps"] == len(dts) == 127
    assert work["evolve.dt_min"] == pytest.approx(min(dts), rel=1e-12)
    assert work["evolve.dt_max"] == pytest.approx(max(dts), rel=1e-12)
    # the box [-1, 1) has its edges on nodes: the flow runs on half the
    # lattice, four transforms a step and one for the datum
    assert work["spectral.fft_calls"] == 4 * 127 + 1
    assert work["spectral.fft_points"] == 128
    # a linear run takes no steps, one transform for the datum and one
    # for each of its 6 snapshots
    assert main(["evolve", "--config", str(write_cfg(tmp_path))]) == 0
    work = json.loads((tmp_path / "out" / "manifest.json").read_text())["work"]
    assert work == {"spectral.fft_calls": 7, "spectral.fft_points": 1024}


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("initial", ["box", "random"])
def test_manifest_counts_the_transforms_the_flow_takes(tmp_path, monkeypatch, kind, initial):
    # the box [-1, 1) has its edges on nodes and runs on the DCT-II pair
    # over half the lattice; the random field on the real FFT pair.  The
    # flow picks its pair once, and the stepper its steps once, whose
    # counts the manifest reads off the flow; the count starts once the
    # datum is built, since the random datum transforms too
    calls = count_transforms(monkeypatch)
    decided = []
    for module, name in ((spectral, "_mirrored"), (evolve, "step_sizes")):

        def recorded(*args, _real=getattr(module, name), _name=name):
            decided.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, recorded)
    real_initial = cli._initial_field

    def datum_uncounted(cfg, grid):
        u0 = real_initial(cfg, grid)
        calls.clear()
        return u0

    monkeypatch.setattr(cli, "_initial_field", datum_uncounted)
    body = BASE.replace("points = 2048", "points = 256")
    body = body.replace("snapshots = 1 1.5", "snapshots = 0.2 0.3")
    if kind == "nonlinear":
        body = body.replace("kind = linear", "kind = nonlinear\nsigma = 2")
    if initial == "random":
        body = body.replace("kind = box\nwidth = 2.0", "kind = random\nband = 0.25")
    assert main(["evolve", "--config", str(write_cfg(tmp_path, body=body))]) == 0
    work = json.loads((tmp_path / "out" / "manifest.json").read_text())["work"]
    assert work["spectral.fft_calls"] == len(calls)
    pair, points = ({"dctn", "idctn"}, 128) if initial == "box" else ({"rfftn", "irfftn"}, 256)
    assert set(calls) == pair
    assert work["spectral.fft_points"] == points
    assert sorted(decided) == ["_mirrored"] + ["step_sizes"] * (kind == "nonlinear")


@pytest.mark.parametrize("dim,n", [(1, 2), (1, 2048), (2, 32), (1, 2**20), (2, 2), (2, 512)])
def test_table_spans_the_lattice_radii(dim, n):
    grid = PeriodicGrid(dimension=dim, half_width=64.0, points_per_axis=n)
    radii = full_lattice_radii(grid)
    lo, hi = radii[radii > 0].min(), radii.max()
    table = LinearPropagator.table_grid(grid)
    # a lone radius (1-D, n = 2) gets a second point an octave above it
    assert table[0] == lo and table[-1] == max(hi, 2.0 * lo)
    assert table.size >= 2


def test_two_point_grid_runs(tmp_path):
    # a 1-D n = 2 lattice has one nonzero radius; the bounded kernel has no
    # closed form, so its table is built over that radius
    body = BASE.replace("near = fractional\nnear_param = 1.0", "near = bounded\nnear_param = 0.7")
    body = body.replace("tail = power\ntail_param = 1.0", "tail = compact")
    path = write_cfg(tmp_path, body=body.replace("points = 2048", "points = 2"))
    assert main(["evolve", "--config", str(path)]) == 0
    parsed = np.loadtxt(tmp_path / "out" / "norms.csv", delimiter=",", skiprows=1)
    assert np.isfinite(parsed).all() and parsed.shape == (6, 5)


def test_escape_guard_passes_for_compact_kernel(tmp_path):
    body = BASE.replace("near = fractional\nnear_param = 1.0", "near = bounded\nnear_param = 0.7")
    body = body.replace("tail = power\ntail_param = 1.0", "tail = compact")
    path = write_cfg(tmp_path, body=body)
    assert main(["evolve", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["escape_guard"]["passed"] is True
    assert manifest["escape_guard"]["max_boundary_ratio"] < 1e-6


def test_interpolation_section_writes_report(tmp_path):
    path = write_cfg(tmp_path, interpolation=["r = 1.5", "s = 2.0"])
    assert main(["evolve", "--config", str(path)]) == 0
    out = tmp_path / "out"
    lines = (out / "interpolation.txt").read_text().splitlines()
    report = dict(line.split(" = ") for line in lines)
    assert np.isfinite(float(report["required_constant"]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert "interpolation.txt" in manifest["artifacts"]


def test_decay_fit_report_on_cauchy_flow(tmp_path):
    # wide domain so the periodic wraparound floor does not bend the fit
    body = BASE.replace("half_width = 64", "half_width = 2048").replace(
        "points = 2048", "points = 8192"
    )
    body = body.replace(
        "snapshots = 1 1.5 2.3 3.4 5.1 7.7",
        "snapshots = 1 1.4 2 2.8 3.9 5.4 7.5 10.4 14.4 20",
    )
    path = write_cfg(
        tmp_path,
        body=body,
        decay=["norms = 2", "q = 1", "tolerance = 0.15"],
    )
    assert main(["decay-fit", "--config", str(path)]) == 0
    report = (tmp_path / "out" / "decay_fit.txt").read_text()
    assert "norm_2_target = 0.5\nnorm_2_within_tolerance = yes\n" in report, report
    assert "all_within_tolerance = yes" in report
    exponent = float(report.split("norm_2_exponent = ")[1].splitlines()[0])
    assert abs(exponent - 0.5) < 0.075, f"fitted exponent {exponent} far from 1/2"


def test_decay_fit_without_tolerance_reports_targets_and_no_verdict(tmp_path):
    # nothing is checked, so no line says that everything is within it;
    # at p = inf the target is the limit N / (alpha q) of the formula
    path = write_cfg(tmp_path, decay=["norms = 2 inf", "q = 1"])
    assert main(["decay-fit", "--config", str(path)]) == 0
    report = (tmp_path / "out" / "decay_fit.txt").read_text()
    assert "norm_2_target = 0.5\n" in report and "norm_inf_target = 1\n" in report, report
    assert "within" not in report


def test_nonlinear_decay_fit_admits_q_equal_to_sigma_minus_one(tmp_path):
    # criterion 11's setting: sigma = 2, q = 1 lies on the closed range
    path = write_cfg(tmp_path, decay=["norms = 2", "q = 1"])
    text = path.read_text().replace("kind = linear", "kind = nonlinear\nsigma = 2")
    path.write_text(text)
    assert main(["decay-fit", "--config", str(path)]) == 0
    report = (tmp_path / "out" / "decay_fit.txt").read_text()
    assert "norm_2_target = 0.25\n" in report, report


def test_symbol_writes_closed_form_table(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["symbol", "--config", str(path)]) == 0
    table = np.loadtxt(tmp_path / "out" / "table.csv", delimiter=",", skiprows=1)
    xi, m = table[:, 0], table[:, 1]
    assert np.allclose(m, np.pi * xi, rtol=1e-10), "alpha = 1 table should be pi xi"


def test_nash_check_rows_and_branches(tmp_path):
    body = BASE.replace("half_width = 64", "half_width = 256").replace(
        "points = 2048", "points = 16384"
    )
    path = write_cfg(tmp_path, body=body, nash=["d = 0.3333333333333333", "r = 1.5"])
    assert main(["nash-check", "--config", str(path)]) == 0
    rows = (tmp_path / "out" / "nash_rows.csv").read_text().splitlines()
    assert rows[0] == "sample_id,scale,ratio,branch"
    branches = {line.split(",")[3] for line in rows[1:]}
    assert branches == {"poincare", "nash"}, f"both branches expected, got {branches}"
    summary = (tmp_path / "out" / "nash.txt").read_text()
    assert "passed = yes" in summary


def test_regularity_report_verdicts(tmp_path):
    body = BASE.replace("near = fractional\nnear_param = 1.0", "near = bounded\nnear_param = 0.7")
    body = body.replace("tail = power\ntail_param = 1.0", "tail = compact")
    path = write_cfg(tmp_path, body=body, regularity=["times = 0.5 5"])
    assert main(["regularity", "--config", str(path)]) == 0
    text = (tmp_path / "out" / "regularity.txt").read_text()
    assert text.count("classification = DIVERGENT") == 2, text


def test_seed_override_changes_manifest_and_fields(tmp_path):
    body = BASE.replace("kind = box\nwidth = 2.0", "kind = random\nband = 0.25")
    path = write_cfg(tmp_path, body=body)
    assert main(["evolve", "--config", str(path), "--output", str(tmp_path / "a")]) == 0
    assert (
        main(["evolve", "--config", str(path), "--output", str(tmp_path / "b"), "--seed", "99"])
        == 0
    )
    man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert man_a["seed"] == 11 and man_b["seed"] == 99
    assert man_a["config_sha256"] != man_b["config_sha256"]
    field_a = (tmp_path / "a" / "field_0000.csv").read_text()
    field_b = (tmp_path / "b" / "field_0000.csv").read_text()
    assert field_a != field_b, "different seeds must move the random datum"


def test_negative_seed_override_fails_before_any_computation(tmp_path, monkeypatch, capsys):
    # --seed goes through the section's own check, as the config key does
    body = BASE.replace("kind = box\nwidth = 2.0", "kind = random\nband = 0.25")
    path = write_cfg(tmp_path, body=body)

    def no_table(*args, **kwargs):
        raise AssertionError("the symbol table was built before the seed check")

    monkeypatch.setattr(cli, "build_symbol_table", no_table)
    assert main(["evolve", "--config", str(path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: [experiment].seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def test_outputs_byte_reproducible(tmp_path):
    body = BASE.replace("kind = box\nwidth = 2.0", "kind = random\nband = 0.25")
    body_2d = body.replace("dimension = 1", "dimension = 2").replace("points = 2048", "points = 8")
    for dim, text in ((1, body), (2, body_2d)):
        root = tmp_path / f"{dim}d"
        root.mkdir()
        path = write_cfg(root, body=text)
        for sub in ("a", "b"):
            assert main(["evolve", "--config", str(path), "--output", str(root / sub)]) == 0
        manifest = json.loads((root / "a" / "manifest.json").read_text())
        for name in ["manifest.json", *manifest["artifacts"]]:
            bytes_a = (root / "a" / name).read_bytes()
            bytes_b = (root / "b" / name).read_bytes()
            assert bytes_a == bytes_b, f"{dim}-D {name} differs between identical runs"
    # the 2-D snapshot format: header x,y,u, then the n^2 nodes with x
    # outer, each value parsing back to the field exactly
    cfg = parse_config(path)
    grid = cfg.lattice()
    P = LinearPropagator.from_table(
        grid, build_symbol_table(cfg.kernel.levy, LinearPropagator.table_grid(grid))
    )
    snapshots = LinearFlow(P, cli._initial_field(cfg, grid)).snapshots(cfg.flow.snapshots)
    x, y = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    for i, snap in enumerate(snapshots):
        header, *rows = (root / "a" / f"field_{i:04d}.csv").read_text().splitlines()
        assert header == "x,y,u"
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert parsed.shape == (64, 3)
        assert np.array_equal(parsed[:, 0], x.ravel()) and np.array_equal(parsed[:, 1], y.ravel())
        assert np.array_equal(parsed[:, 2], snap.field.values.ravel())
    assert i == len(cfg.flow.snapshots) - 1


#: small configs with every section, so that each command writes every
#: artifact it can: a 1-D linear flow whose table is interpolated, and a
#: 2-D nonlinear flow from a random datum
PIN_CONFIGS = {
    "1d": """\
[experiment]
name = pin-1d
seed = 3

[kernel]
dimension = 1
near = bounded
near_param = 0.7
tail = power
tail_param = 1.5

[grid]
half_width = 64
points = 512

[flow]
kind = linear
snapshots = 0.5 1 2 4 8

[initial]
kind = box
width = 2.0

[decay]
norms = 2 4
tolerance = 0.5

[nash]
d = 1.5

[regularity]
times = 0.5 2

[interpolation]
r = 1.5
s = 2
""",
    "2d": """\
[experiment]
name = pin-2d
seed = 5

[kernel]
dimension = 2
near = logperturbed
near_param = 0.5
tail = exponential
tail_param = 1

[grid]
half_width = 16
points = 32

[flow]
kind = nonlinear
sigma = 2
snapshots = 0.5 1 1.5 2 3 4

[initial]
kind = random
band = 0.5

[decay]
norms = 2 4
q = 1.5
window = 0.5 4

[nash]
d = 2

[regularity]
times = 1

[interpolation]
r = 1.5
s = 2
""",
}


def _artifact_digests(tmp_path, command):
    """{config: {artifact: sha256}} of ``command`` run on each of PIN_CONFIGS."""
    digests = {}
    for name, body in PIN_CONFIGS.items():
        root = tmp_path / name
        root.mkdir()
        path = write_cfg(root, body=body)
        assert main([command, "--config", str(path), "--output", str(root / "run")]) == 0
        digests[name] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((root / "run").iterdir())
        }
    return digests


#: sha256 of every artifact of each command on each of PIN_CONFIGS
PINNED_DIGESTS = {
    "decay-fit": {
        "1d": {
            "decay_fit.txt": "e0dcbb2f2b0524592914a86c64f93a383a61bd6d4979a79d1489b299a118192b",
            "interpolation.txt": "588b6c35ebf0c7aa80c1cd7f80389e1c7a7b5e733fc0d3c50982f3404514b3ee",
            "manifest.json": "4ab013202d2394340834c9fca6c036bce09c2c8c1aefc2dae6bb5db7058d6976",
            "norms.csv": "735484ee3ab0c5423070c4d2ad5414d8ed6bec58ff2e2522f1ddcdde75db51d5",
        },
        "2d": {
            "decay_fit.txt": "7a701812c04d44c2cf6ddc56289ac9aaed1f52c4b65e2c9ca2f663692150e356",
            "interpolation.txt": "ac494d6a7e3e78124092c12926f21954cddc949862c7e734ca2450fde36e1981",
            "manifest.json": "3e7a2dfaeeebb9bbbdcbc7c7c69dee42d1a111c127499f606e96296d55e9ec21",
            "norms.csv": "3409ea7eab8b03ec7c2a0e8fdf4964c7585d7201e945335e1eb063844d60e6e2",
        },
    },
    "evolve": {
        "1d": {
            "field_0000.csv": "6c7a5096967d285f8f00a384d246456eae802eb4a7ab55660b70af06a938a8e1",
            "field_0001.csv": "3853ecb36d19f045752e80c8dce836ff33eed29c5045aab72b94e6a0e9a68593",
            "field_0002.csv": "7f07730a9b73c011ddac9bc0c00d4cee02a493ed2d66cbc1244df673ff76fa6b",
            "field_0003.csv": "22a295f3358359688b0f78447487577c16a8d01d65b3e64b3643e0dc1e828e39",
            "field_0004.csv": "d8a16dc56c89c292901f368fe28a868af6375facd159b0a22ab8dd36d7a26751",
            "interpolation.txt": "588b6c35ebf0c7aa80c1cd7f80389e1c7a7b5e733fc0d3c50982f3404514b3ee",
            "manifest.json": "643a2b5c7ae41070cfb9ba0165432651314100d919861d996622302cc757d97c",
            "norms.csv": "735484ee3ab0c5423070c4d2ad5414d8ed6bec58ff2e2522f1ddcdde75db51d5",
        },
        "2d": {
            "field_0000.csv": "183228e19485efc869d327e80a845669eda1900c57509bfdbd929bb53fb9d819",
            "field_0001.csv": "46efc63872a06cd18002689629b9bb49dda731ef366b8dc83d69f2573681c8d8",
            "field_0002.csv": "95524239929b74cf91d40be650a7b240c6011cc576a0fe563690fa73405d8728",
            "field_0003.csv": "d5cd1ea4fda4db6d1673b67ccb9d637980a9d80f5cff824bd095885024560b45",
            "field_0004.csv": "ee59e99eb49cf6bc5b13987352515db38ecb9174ad91bf2fb6ad7ea7d5ee1f3b",
            "field_0005.csv": "d3e43e757822e3e9ba6ce6b2bd235a7c52610c64d3cbefde7198a45a7510c357",
            "interpolation.txt": "ac494d6a7e3e78124092c12926f21954cddc949862c7e734ca2450fde36e1981",
            "manifest.json": "e69933bc9ab7cd47163e262c96934379948cf2020e5c5e7b2bce79c103fb5281",
            "norms.csv": "3409ea7eab8b03ec7c2a0e8fdf4964c7585d7201e945335e1eb063844d60e6e2",
        },
    },
    "nash-check": {
        "1d": {
            "manifest.json": "3b0c1071db67df4ddaeb9fc08a5cb101d1d7dd96394291e3af9da3e769445949",
            "nash.txt": "33c2753ae650598e16c46b214f7dd71cd237721f925103dee6e29be172ae31be",
            "nash_rows.csv": "d95eed89d64c981c6735b5d19fab734ff6d3d8f772e975c4120c078beb053993",
        },
        "2d": {
            "manifest.json": "e67ef313f13ce4ce95bc44a6baa4c2261c010f55f0f4337d9184313c25ed273c",
            "nash.txt": "5856f48b56bb8deb4eb2315d0927a46855ddd8efcf7795edc9814f14c0e094ba",
            "nash_rows.csv": "609b50f756e219f14326a9e048a4b6415dc5a483c50ff97c9f0f24d0a256f239",
        },
    },
    "regularity": {
        "1d": {
            "manifest.json": "c58d96ce238f54d280bdba2c06e325ffa0d2e3f875d626e9d562a89dd7a223bd",
            "regularity.txt": "65525c5bbde835f929f2afa3c14e045946cc704b5d197e7d56ad23eed4d83678",
        },
        "2d": {
            "manifest.json": "d1597dc798ea4f3f482aa0779065078ef05b29f74574a129a47a06ec5845e64d",
            "regularity.txt": "b3528c48cfc497c9b8d7de77b1b1f4f70a6837bed0a30551bb7bfecb879d5281",
        },
    },
    "symbol": {
        "1d": {
            "manifest.json": "f8cb1037901cd6ef40d714dd1f8a83fcd6aa105a5cb4e7107d6b5977366b164e",
            "table.csv": "4d25a123e6c25846112c905809fa85cff8ad75c536d95c5a72d4a6cd12401b8a",
        },
        "2d": {
            "manifest.json": "22c022aae6f030177f8ade6efe4d2da509cc23eff537215686658ee3649ca16a",
            "table.csv": "78d45dfdca18709b4356a3a95f6fb8bdee3ec23855c4baf3bc4c71c52fefa2f0",
        },
    },
}


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_text_artifacts_are_pinned(tmp_path, command):
    # every byte each command writes, so that a change to how a value is
    # rendered, or to the lattice it is computed on, cannot pass unseen
    assert _artifact_digests(tmp_path, command) == PINNED_DIGESTS[command]


def test_pipeline_failure_names_stage_and_cleans_up(tmp_path):
    # four snapshots cannot support a five-point decay fit: the analysis
    # stage fails after norms.csv was already written
    path = write_cfg(tmp_path, decay=["norms = 2", "q = 1"])
    text = path.read_text().replace("1 1.5 2.3 3.4 5.1 7.7", "1 2 3 4")
    path.write_text(text)
    cfg = parse_config(path)
    with pytest.raises(PipelineError) as err:
        run(cfg, "decay-fit")
    assert err.value.stage == "analysis"
    leftover = list((tmp_path / "out").glob("*")) if (tmp_path / "out").exists() else []
    assert leftover == [], f"partial outputs not removed: {leftover}"


@pytest.mark.parametrize("flow", ["linear", "nonlinear"])
def test_evolve_energy_column_is_the_form_of_each_field(tmp_path, flow):
    # linear runs read the energies off the datum's spectrum, nonlinear
    # runs off the spectrum the stepper carries; both must be E(u) of the
    # written snapshot
    body = BASE.replace("snapshots = 1 1.5 2.3 3.4 5.1 7.7", "snapshots = 0 0.1 0.25 0.5")
    if flow == "nonlinear":
        body = body.replace("kind = linear", "kind = nonlinear\nsigma = 2")
    path = write_cfg(tmp_path, body=body)
    assert main(["evolve", "--config", str(path)]) == 0
    cfg = parse_config(path)
    grid = cfg.lattice()
    tab = build_symbol_table(cfg.kernel.levy, LinearPropagator.table_grid(grid))
    P = LinearPropagator.from_table(grid, tab)
    out = tmp_path / "out"
    energies = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)[:, 4]
    assert energies.shape == (4,)
    for i, energy in enumerate(energies):
        values = np.loadtxt(out / f"field_{i:04d}.csv", delimiter=",", skiprows=1)[:, -1]
        want = dirichlet_form_spectral(P, GridField(grid, values))
        assert energy == pytest.approx(want, rel=1e-12), i


def test_snapshot_failure_is_stage_evolve_and_cleans_up(tmp_path, monkeypatch):
    # the third snapshot fails after two field files were written
    real_snapshots = LinearFlow.snapshots

    def failing_snapshots(self, times):
        snapshots = real_snapshots(self, times)
        yield next(snapshots)
        yield next(snapshots)
        raise FloatingPointError("snapshot 2 overflowed")

    monkeypatch.setattr(LinearFlow, "snapshots", failing_snapshots)
    cfg = parse_config(write_cfg(tmp_path))
    with pytest.raises(PipelineError, match="overflowed") as err:
        run(cfg, "evolve")
    assert err.value.stage == "evolve"
    assert list((tmp_path / "out").glob("*")) == []


def test_stability_error_mid_nonlinear_evolve_is_stage_evolve_and_cleans_up(
    tmp_path, monkeypatch, capsys
):
    # stabilised over the first snapshot interval only: the unstabilised
    # steps (c = 0) that follow blow up once some fields were written
    real_bound, bounds = PhiLaw.derivative_bound, []

    def first_bound_only(self, amplitude):
        bounds.append(amplitude)
        return real_bound(self, amplitude) if len(bounds) == 1 else 0.0

    real_write, written = cli.write_field_csv, []

    def recorded_write(u, path):
        written.append(path.name)
        real_write(u, path)

    monkeypatch.setattr(PhiLaw, "derivative_bound", first_bound_only)
    monkeypatch.setattr(cli, "write_field_csv", recorded_write)
    path = write_cfg(tmp_path, body=BASE.replace("kind = linear", "kind = nonlinear\nsigma = 2"))
    assert main(["evolve", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "stage 'evolve'" in err and "sup-norm grew" in err
    assert 0 < len(written) < 6
    assert list((tmp_path / "out").glob("*")) == []


def test_snapshot_passes_hold_one_field_at_a_time(tmp_path, monkeypatch):
    # both flows make every record through evolve.Snapshot, and work
    # toward the next one starts with a transform in spectral: by then
    # neither the flow nor its consumer may still hold the part of the
    # record before, so that only one snapshot is alive at a time.  A
    # whole-lattice field is made only for a file: evolve makes one per
    # snapshot, and decay-fit without [interpolation] makes none
    real_snapshot, real_field = evolve.Snapshot, spectral._Lattice.field
    previous, released, fields = [], [], []

    def checked_snapshot(t, part, energy, lattice):
        previous.append(weakref.ref(part))
        return real_snapshot(t, part, energy, lattice)

    def counted_field(self, v):
        fields.append(v.shape)
        return real_field(self, v)

    def checked(transform):
        def first_checks(*args, **kwargs):
            if previous:
                released.append(previous.pop()() is None)
            return transform(*args, **kwargs)

        return first_checks

    def one_at_a_time(count):
        ok = released == [True] * (count - 1)
        previous.clear()
        released.clear()
        return ok

    monkeypatch.setattr(evolve, "Snapshot", checked_snapshot)
    monkeypatch.setattr(spectral._Lattice, "field", counted_field)
    for name in TRANSFORMS:
        monkeypatch.setattr(spectral, name, checked(getattr(spectral, name)))
    linear = write_cfg(tmp_path, decay=["norms = 2", "q = 1"])
    nonlinear = linear.with_name("nonlinear.cfg")
    text = linear.read_text().replace("kind = linear", "kind = nonlinear\nsigma = 2")
    nonlinear.write_text(text.replace("q = 1", "q = 1.5"))
    for path in (linear, nonlinear):
        cfg = parse_config(path)
        for command, made in (("evolve", len(cfg.flow.snapshots)), ("decay-fit", 0)):
            fields.clear()
            run(cfg, command)
            assert one_at_a_time(len(cfg.flow.snapshots)), (cfg.flow.kind, command)
            assert len(fields) == made, (cfg.flow.kind, command)
    grid = cfg.lattice()
    P = LinearPropagator(grid, grid.half_freq_radii())
    u0 = GridField(grid, np.cos(grid.axis))
    times = cfg.flow.snapshots
    for snapshots in (
        LinearFlow(P, u0).snapshots(times),
        NonlinearFlow(P, PhiLaw(2.0), u0).snapshots(times),
    ):
        acceptance._norm_bookkeeping(field_norms(u0), snapshots)
        assert one_at_a_time(len(times))
    assert fields == []


def test_linear_runs_let_go_of_the_datum(tmp_path, monkeypatch):
    # by the first snapshot the datum is gone: the flow holds its spectrum
    real_initial, real_snapshots = cli._initial_field, LinearFlow.snapshots
    data, alive = [], []

    def recorded_initial(cfg, grid):
        u0 = real_initial(cfg, grid)
        data.append(weakref.ref(u0.values))
        return u0

    def checked_snapshots(self, times):
        alive.append(data[-1]() is not None)
        yield from real_snapshots(self, times)

    monkeypatch.setattr(cli, "_initial_field", recorded_initial)
    monkeypatch.setattr(LinearFlow, "snapshots", checked_snapshots)
    cfg = parse_config(write_cfg(tmp_path, decay=["norms = 2", "q = 1"]))
    for command in ("evolve", "decay-fit"):
        run(cfg, command)
    assert alive == [False, False]


@pytest.mark.parametrize(
    "command,section", [("decay-fit", "decay"), ("nash-check", "nash"), ("regularity", "regularity")]
)
def test_missing_command_section_fails_before_any_computation(
    tmp_path, monkeypatch, capsys, command, section
):
    def no_table(*args, **kwargs):
        raise AssertionError("the symbol table was built before the config check")

    monkeypatch.setattr(cli, "build_symbol_table", no_table)
    path = write_cfg(tmp_path)
    assert main([command, "--config", str(path)]) == 2
    assert f"{command} needs a [{section}] section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old,new",
    [
        (f"{key} = {val}", f"{key} = {bad}")
        for key, val in (("points", "2048"), ("dimension", "1"), ("seed", "11"))
        for bad in ("inf", "nan", "1e400")
    ]
    + [
        ("half_width = 64", "half_width = inf"),
        ("1 1.5 2.3 3.4 5.1 7.7", "1 1.5 nan"),
        ("1 1.5 2.3 3.4 5.1 7.7", "1 1.5 inf"),
    ],
)
def test_non_finite_numbers_fail_before_any_computation(tmp_path, monkeypatch, capsys, old, new):
    def no_table(*args, **kwargs):
        raise AssertionError("the symbol table was built before the config check")

    monkeypatch.setattr(cli, "build_symbol_table", no_table)
    path = write_cfg(tmp_path)
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    assert main(["evolve", "--config", str(path)]) == 2
    assert "is not allowed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinity_stays_valid_for_norms_and_mass_bound(tmp_path):
    path = write_cfg(tmp_path, decay=["norms = 2 inf", "q = 1"])
    path.write_text(path.read_text().replace("kind = linear", "kind = linear\nmass_bound = inf"))
    cfg = parse_config(path)
    assert cfg.decay.norms == (2.0, np.inf)
    assert cfg.flow.mass_bound == np.inf


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("width = 2.0", f"width = {bad}", "[initial].width must be positive")
        for bad in ("0", "-1")
    ]
    + [
        ("kind = box", f"kind = gaussian\nscale = {bad}", "[initial].scale must be positive")
        for bad in ("0", "-1")
    ]
    + [
        ("near_param = 1.0", f"near_param = {bad}", "needs beta in (0, 2)")
        for bad in ("2", "2.5")
    ]
    + [("kind = linear", "kind = nonlinear\nsigma = 0.5", "sigma must be >= 1")]
    + [
        (
            "snapshots = 1 1.5 2.3 3.4 5.1 7.7",
            f"snapshots = 0 1 1.5 2.3 3.4 5.1 7.7\n\n[decay]\nnorms = 2{window}",
            "includes the snapshot at t = 0",
        )
        for window in ("", "\nwindow = auto", "\nwindow = 0 8", "\nwindow = -1 8")
    ],
)
def test_out_of_range_datum_or_order_fails_before_any_computation(
    tmp_path, monkeypatch, capsys, old, new, message
):
    def no_table(*args, **kwargs):
        raise AssertionError("the symbol table was built before the config check")

    monkeypatch.setattr(cli, "build_symbol_table", no_table)
    path = write_cfg(tmp_path)
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    assert main(["evolve", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "new,message",
    [
        ("kind = box\nscale = 7", "[initial].scale: only meaningful for kind = gaussian"),
        ("kind = box\nband = 0.5", "[initial].band: only meaningful for kind = random"),
        ("kind = gaussian\nwidth = 2.0", "[initial].width: only meaningful for kind = box"),
        ("kind = random\nscale = 2.0", "[initial].scale: only meaningful for kind = gaussian"),
        ("kind = delta\nwidth = 2.0", "[initial].width: only meaningful for kind = box"),
        ("kind = delta\nband = 0.5", "[initial].band: only meaningful for kind = random"),
    ],
)
def test_keys_the_kind_never_reads_fail_before_any_computation(
    tmp_path, monkeypatch, capsys, new, message
):
    # such keys were once parsed, dropped and left out of the hash
    def no_table(*args, **kwargs):
        raise AssertionError("the symbol table was built before the config check")

    monkeypatch.setattr(cli, "build_symbol_table", no_table)
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("kind = box\nwidth = 2.0", new))
    assert main(["evolve", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_reference_config_is_criterion_3(tmp_path):
    # the reference decay-fit and criterion 3 are one run, table included:
    # the same kernel, snapshot times and norms, and the criterion's targets
    path = Path(__file__).parents[1] / "acceptance" / "linear_alpha1.cfg"
    cfg = parse_config(path)
    run = acceptance._bounded_tail_run()
    assert cfg.kernel.levy == run["kernel"] and cfg.decay.norms == (2.0, 4.0)
    assert cfg.decay_targets() == (0.5, 0.75) and cfg.decay.tolerance == 0.10
    assert main(["decay-fit", "--config", str(path), "--output", str(tmp_path)]) == 0
    rows = (tmp_path / "norms.csv").read_text().splitlines()
    assert rows[0] == "t,l1,l2,linf,energy"
    t, _, l2, linf, _ = np.array([[float(v) for v in row.split(",")] for row in rows[1:]]).T
    assert np.array_equal(t, run["times"])
    assert np.array_equal(l2, run["l2"])
    assert np.array_equal(linf, run["sups"])


#: scipy modules that importing the command line loads none of: scipy.fft,
#: which only a flow on a mirror-symmetric datum loads (its DCT-II pair;
#: every other lattice transform is numpy.fft's), and the modules a
#: closed-form run has no use for (with scipy.linalg and scipy.sparse,
#: which they load, 0.24-0.34 s and ~24 MiB of RSS in a cold interpreter
#: on a 2-core host)
UNUSED_BY_CLOSED_FORMS = ("scipy.fft", "scipy.integrate", "scipy.interpolate", "scipy.optimize")


@functools.cache
def _fresh_run(code):
    """(stdout, the modules of UNUSED_BY_CLOSED_FORMS in sys.modules after
    it) of ``code`` run in a fresh interpreter that imports levyheat from
    this checkout."""
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = f"import sys\nprint(' '.join(m for m in {UNUSED_BY_CLOSED_FORMS!r} if m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code + "\n" + probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    *out, loaded = result.stdout.splitlines()
    return "\n".join(out), loaded.split()


def _modules_loaded_by(code):
    return _fresh_run(code)[1]


COLD_VERIFY = "import levyheat.cli\nassert levyheat.cli.main(['verify']) == 0"


def test_cli_import_leaves_quadpack_and_interpolation_unloaded():
    assert _modules_loaded_by("import levyheat.cli") == []


def test_verify_loads_scipy_fft_alone():
    # the tail, porous and sigma = 1 runs start from boxes with their
    # edges on nodes and transform by scipy.fft's DCT-II pair
    assert _modules_loaded_by(COLD_VERIFY) == ["scipy.fft"]


def test_cold_verify_prints_the_serial_table():
    # the power-tail run overlaps the other criteria, and the table is
    # still that of run_criterion(1..12) one after the other
    serial = [acceptance.run_criterion(n) for n in acceptance.CRITERION_NUMBERS]
    assert _fresh_run(COLD_VERIFY)[0] == acceptance.summary_table(serial)


def test_tail_run_readers_are_exactly_the_criteria_that_read_the_run():
    code = """from levyheat import acceptance
def unavailable():
    raise RuntimeError("no tail run")
acceptance._bounded_tail_run = unavailable
for n in acceptance.CRITERION_NUMBERS:
    try:
        print(n, acceptance.run_criterion(n).passed)
    except RuntimeError:
        print(n, "raised")
"""
    readers = acceptance.TAIL_RUN_READERS
    want = [f"{n} {'raised' if n in readers else True}" for n in acceptance.CRITERION_NUMBERS]
    assert _fresh_run(code)[0].splitlines() == want


def test_criterion_1_runs_without_quadpack():
    # the Cauchy kernel's symbol is closed forms only, near part included
    code = "from levyheat import acceptance\nassert acceptance.run_criterion(1).passed"
    assert _modules_loaded_by(code) == []


def _small_reference_run(tmp_path, initial=None):
    """The modules of UNUSED_BY_CLOSED_FORMS that a cold decay-fit of the
    reference config on a 2048-point grid loads, with the [initial]
    section's body replaced by ``initial`` if given, and its manifest."""
    text = (Path(__file__).parents[1] / "acceptance" / "linear_alpha1.cfg").read_text()
    text = text.replace("half_width = 262144", "half_width = 512")
    text = text.replace("points = 1048576", "points = 2048")
    if initial is not None:
        text = text.replace("kind = box\nwidth = 4.0", initial)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(text)
    argv = ["decay-fit", "--config", str(cfg), "--output", str(tmp_path / "out")]
    code = f"import levyheat.cli\nassert levyheat.cli.main({argv!r}) == 0"
    loaded = _modules_loaded_by(code)
    return loaded, json.loads((tmp_path / "out" / "manifest.json").read_text())


def test_reference_decay_fit_runs_without_quadpack_or_interpolation(tmp_path):
    # the reference kernel (bounded + power tail alpha = 1) on a small grid:
    # its table is all closed forms and its interpolation is numpy; its
    # box datum has its edges on nodes and flows by scipy.fft's DCT-II
    loaded, manifest = _small_reference_run(tmp_path)
    assert loaded == ["scipy.fft"]
    assert manifest["tolerances"]["quad_tol_achieved"] <= 1e-13
    assert manifest["work"]["spectral.fft_points"] == 1024


def test_a_flow_on_a_datum_without_mirror_symmetry_leaves_scipy_fft_unloaded(tmp_path):
    # the delta surrogate is symmetric about the node x = 0, not about
    # index (n - 1) / 2: it flows on numpy.fft's real pair
    loaded, manifest = _small_reference_run(tmp_path, initial="kind = delta")
    assert loaded == []
    assert manifest["work"]["spectral.fft_points"] == 2048


@pytest.mark.skipif(
    sys.platform == "win32" or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="the C library has no mallopt",
)
def test_a_repeated_run_reuses_the_memory_it_freed(tmp_path):
    # the reference run at 2^18 points: each transform frees 4 MiB at
    # the top of the heap, which the C allocator would hand back to the
    # kernel and fault in again (~9000 page faults a run)
    text = (Path(__file__).parents[1] / "acceptance" / "linear_alpha1.cfg").read_text()
    text = text.replace("half_width = 262144", "half_width = 65536")
    text = text.replace("points = 1048576", "points = 262144")
    text = re.sub(r"snapshots = .*", "snapshots = 1 2 4 8 16 30", text)
    cfg = tmp_path / "2to18.cfg"
    cfg.write_text(text)
    argv = ["decay-fit", "--config", str(cfg), "--output", str(tmp_path / "out")]
    code = f"""import contextlib, io, resource
import levyheat.cli
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert levyheat.cli.main({argv!r}) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)"""
    faults = int(_fresh_run(code)[0])
    assert faults < 1000, f"{faults} page faults in the second run"


@pytest.mark.parametrize("lookup", ["no library", "no mallopt"])
def test_main_runs_where_the_c_library_has_no_mallopt(tmp_path, monkeypatch, lookup):
    def cdll(name):
        if lookup == "no library":
            raise OSError("no C library")
        return types.SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert main(["evolve", "--config", str(write_cfg(tmp_path))]) == 0


def test_schema_doc_lists_every_config_key():
    text = (Path(__file__).parents[1] / "docs" / "config-schema.txt").read_text()
    # a line opening with [section] starts that section's block, whose
    # keys sit at two spaces' indent; the last block ends at the artifacts
    text = text.split("\nArtifacts\n")[0]
    blocks = {block.split()[0]: block for block in re.split(r"^(?=\[)", text, flags=re.M)}
    for section, cls in cli._SECTIONS.items():
        keys = {f.name for f in fields(cls) if f.init}
        documented = set(re.findall(r"^  (\w+) ", blocks[f"[{section}]"], flags=re.M))
        assert keys <= documented, f"[{section}] undocumented: {sorted(keys - documented)}"
        assert documented <= keys, f"[{section}] documents non-keys: {sorted(documented - keys)}"


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, interpolation=["r = 1.0", "s = 2.0"])
    assert main(["decay-fit", "--config", str(bad)]) == 2
    assert "open case" in capsys.readouterr().err

    path = write_cfg(tmp_path, decay=["norms = 2", "q = 1"])
    path.write_text(path.read_text().replace("1 1.5 2.3 3.4 5.1 7.7", "1 2 3 4"))
    assert main(["decay-fit", "--config", str(path)]) == 3
    assert "stage 'analysis'" in capsys.readouterr().err


def test_verify_subcommand_passes(capsys):
    # criterion results are memoized per process, so after the acceptance
    # tests this only re-prints the table
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "12/12 criteria passed" in out


def test_verify_raises_a_failed_tail_run_at_criterion_3(monkeypatch):
    # the other criteria run first, in battery order, while the run is out
    def unavailable():
        raise RuntimeError("no tail run")

    asked = []

    def stub(number):
        asked.append(number)
        return acceptance.CriterionResult(number, f"stub {number}", True, "ok")

    monkeypatch.setattr(acceptance, "_bounded_tail_run", unavailable)
    monkeypatch.setattr(acceptance, "run_criterion", stub)
    with pytest.raises(RuntimeError, match="no tail run"):
        main(["verify"])
    assert asked == [1, 2, 6, 7, 8, 9, 10, 11]


def test_runs_other_than_verify_start_no_thread(tmp_path, monkeypatch):
    def no_thread(self):
        raise AssertionError(f"a thread started outside verify: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    path = write_cfg(tmp_path, decay=["norms = 2", "window = auto"])
    for command in ("symbol", "evolve", "decay-fit"):
        assert main([command, "--config", str(path), "--output", str(tmp_path / command)]) == 0


def test_verify_reports_seconds_per_criterion_on_stderr(monkeypatch, capsys):
    # stub criteria on a fake clock: criterion k takes k / 8 s and
    # criterion 5 fails; the table alone goes to stdout
    clock = [0.0]

    def stub(number):
        clock[0] += number / 8
        return acceptance.CriterionResult(number, f"stub {number}", number != 5, "ok")

    monkeypatch.setattr(acceptance, "run_criterion", stub)
    monkeypatch.setattr(acceptance, "_bounded_tail_run", dict)
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    numbers = list(acceptance.CRITERION_NUMBERS)
    assert numbers == list(range(1, 13))
    want = acceptance.summary_table([stub(n) for n in numbers])
    assert captured.out == want + "\n"
    assert captured.err.splitlines() == [f"criterion {n}: {n / 8:.3f} s" for n in numbers]
