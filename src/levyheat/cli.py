"""Command-line experiment runner.

A config file is a flat INI-style description of one experiment: a
kernel, a grid, a flow, an initial datum, and the analyses to run (see
``docs/config-schema.txt`` for every key).  Configs are validated in
full before any computation starts; a run is deterministic given the
seed and byte-reproduces its artifacts, which always include a
``manifest.json`` recording the config hash, the effective seed, the
tolerances in force, and the periodic-domain escape-guard verdict.

Subcommands::

    levyheat symbol      --config FILE   radial multiplier table
    levyheat evolve      --config FILE   snapshot fields + norms file
    levyheat decay-fit   --config FILE   norm decay-rate report
    levyheat nash-check  --config FILE   dilation-sweep report
    levyheat regularity  --config FILE   smoothing trichotomy report
    levyheat verify                      full acceptance battery (seconds
                                         per criterion on stderr)

Any module error aborts the run with the failing stage named and all
partial outputs removed.  ``--seed`` overrides the configured seed;
every number is printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import acceptance
from .analysis import (
    dirichlet_form_spectral,
    fit_decay_exponent,
    fit_late_decay,
    interpolation_check,
    nash_dilation_sweep,
    regularizing_diagnostic,
    theta_exponents,
)
from .errors import ConfigError, PipelineError
from .evolve import LinearFlow, LinearPropagator, PhiLaw, evolve_nonlinear
from .kernels import (
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
from .spectral import (
    PeriodicGrid,
    box_field,
    delta_surrogate,
    field_norms,
    gaussian_field,
    random_band_limited,
    write_field_csv,
)
from .symbol import TABLE_RTOL, build_symbol_table

#: commands that bind the multiplier to the configured grid's lattice
_LATTICE_COMMANDS = ("evolve", "decay-fit", "nash-check")
#: every command, with the config section it cannot run without
_COMMAND_SECTION = {
    "symbol": None,
    "evolve": None,
    "decay-fit": "decay",
    "nash-check": "nash",
    "regularity": "regularity",
}

_NEAR = {
    "fractional": (FractionalPower, "beta"),
    "borderline": (Borderline, None),
    "logperturbed": (LogPerturbed, "p"),
    "bounded": (Bounded, "c0"),
    "oscillating": (Oscillating, "alpha_osc"),
}
_TAIL = {
    "power": (PowerTail, "alpha"),
    "compact": (CompactSupport, None),
    "exponential": (ExponentialTail, "lam"),
}

_SECTION_KEYS = {
    "experiment": {"name", "output", "seed"},
    "kernel": {"dimension", "near", "near_param", "tail", "tail_param"},
    "grid": {"half_width", "points"},
    "flow": {"kind", "sigma", "mass_bound", "snapshots"},
    "initial": {"kind", "width", "scale", "band"},
    "decay": {"norms", "q", "window", "targets", "tolerance"},
    "nash": {"d", "r"},
    "regularity": {"times"},
    "interpolation": {"r", "s"},
}


#: the only keys that take infinity: the sup norm, and no bound on the datum
_INFINITE_KEYS = ("[decay].norms", "[flow].mass_bound")


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecaySpec:
    norms: tuple
    q: float
    window: tuple | None  # None = late window by max-r^2
    targets: tuple | None
    tolerance: float | None


@dataclass(frozen=True)
class NashSpec:
    d: float
    r: float


@dataclass(frozen=True)
class RegularitySpec:
    times: tuple


@dataclass(frozen=True)
class InterpolationSpec:
    r: float
    s: float


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    output: str
    seed: int
    dimension: int
    near: str
    near_param: float | None
    tail: str
    tail_param: float | None
    half_width: float
    points: int
    flow: str
    sigma: float
    mass_bound: float
    snapshots: tuple
    datum: str
    datum_param: float | None
    decay: DecaySpec | None = None
    nash: NashSpec | None = None
    regularity: RegularitySpec | None = None
    interpolation: InterpolationSpec | None = None

    def kernel(self) -> LevyKernel:
        near_cls, near_arg = _NEAR[self.near]
        tail_cls, tail_arg = _TAIL[self.tail]
        near = near_cls(self.near_param) if near_arg else near_cls()
        tail = tail_cls(self.tail_param) if tail_arg else tail_cls()
        return LevyKernel(dimension=self.dimension, near=near, tail=tail)

    def grid(self) -> PeriodicGrid:
        return PeriodicGrid(
            dimension=self.dimension,
            half_width=self.half_width,
            points_per_axis=self.points,
        )

    def canonical_text(self) -> str:
        """Normalized key-value rendering (the hashing basis).

        The output directory is deliberately excluded so that the same
        experiment re-run elsewhere hashes identically.
        """
        rows = [
            ("experiment.name", self.name),
            ("experiment.seed", str(self.seed)),
            ("kernel.dimension", str(self.dimension)),
            ("kernel.near", self.near),
            ("kernel.tail", self.tail),
            ("grid.half_width", _fmt(self.half_width)),
            ("grid.points", str(self.points)),
            ("flow.kind", self.flow),
            ("flow.sigma", _fmt(self.sigma)),
            ("flow.mass_bound", _fmt(self.mass_bound)),
            ("flow.snapshots", " ".join(_fmt(t) for t in self.snapshots)),
            ("initial.kind", self.datum),
        ]
        if self.near_param is not None:
            rows.append(("kernel.near_param", _fmt(self.near_param)))
        if self.tail_param is not None:
            rows.append(("kernel.tail_param", _fmt(self.tail_param)))
        if self.datum_param is not None:
            rows.append(("initial.param", _fmt(self.datum_param)))
        if self.decay:
            rows += [
                ("decay.norms", " ".join(_fmt(p) for p in self.decay.norms)),
                ("decay.q", _fmt(self.decay.q)),
            ]
            if self.decay.window:
                rows.append(("decay.window", " ".join(_fmt(t) for t in self.decay.window)))
            if self.decay.targets:
                rows += [
                    ("decay.targets", " ".join(_fmt(t) for t in self.decay.targets)),
                    ("decay.tolerance", _fmt(self.decay.tolerance)),
                ]
        if self.nash:
            rows += [("nash.d", _fmt(self.nash.d)), ("nash.r", _fmt(self.nash.r))]
        if self.regularity:
            rows.append(("regularity.times", " ".join(_fmt(t) for t in self.regularity.times)))
        if self.interpolation:
            rows += [
                ("interpolation.r", _fmt(self.interpolation.r)),
                ("interpolation.s", _fmt(self.interpolation.s)),
            ]
        return "\n".join(f"{k} = {v}" for k, v in sorted(rows)) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _floats(raw: str, *, key: str):
    try:
        vals = tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(f"{key}: expected space-separated numbers, got {raw!r}")
    if not vals:
        raise ConfigError(f"{key}: empty value")
    _check_finite(vals, raw, key)
    return vals


def _check_finite(vals, raw, key):
    """NaN is never a config number, and infinity only under ``_INFINITE_KEYS``."""
    for v in vals:
        if math.isnan(v) or (math.isinf(v) and key not in _INFINITE_KEYS):
            raise ConfigError(f"{key}: {v} is not allowed (got {raw!r})")


class _Section:
    """One config section with typed access and unknown-key rejection."""

    def __init__(self, name, mapping):
        self.name = name
        self.mapping = dict(mapping)
        unknown = set(self.mapping) - _SECTION_KEYS[name]
        if unknown:
            raise ConfigError(
                f"[{name}]: unknown keys {sorted(unknown)}; "
                f"allowed: {sorted(_SECTION_KEYS[name])}"
            )

    def get(self, key, default=None):
        return self.mapping.get(key, default)

    def require(self, key):
        if key not in self.mapping:
            raise ConfigError(f"[{self.name}]: missing required key '{key}'")
        return self.mapping[key]

    def number(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}]: missing required key '{key}'")
            return default
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}].{key}: not a number: {raw!r}")
        _check_finite((val,), raw, f"[{self.name}].{key}")
        return val

    def integer(self, key, default=None):
        val = self.number(key, default)
        if val != int(val):
            raise ConfigError(f"[{self.name}].{key}: expected an integer, got {val}")
        return int(val)


def parse_config(path) -> ExperimentConfig:
    """Read and fully validate a config file; no computation happens here."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")

    unknown = set(cp.sections()) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    for required in ("experiment", "kernel", "grid", "flow", "initial"):
        if required not in cp:
            raise ConfigError(f"missing required section [{required}]")
    sec = {name: _Section(name, cp[name]) for name in cp.sections()}

    exp = sec["experiment"]
    name = exp.require("name")
    output = exp.get("output", f"runs/{name}")
    seed = exp.integer("seed", 0)

    kern = sec["kernel"]
    dimension = kern.integer("dimension")
    near = kern.require("near")
    if near not in _NEAR:
        raise ConfigError(f"[kernel].near: unknown profile {near!r}; choices {sorted(_NEAR)}")
    tail = kern.require("tail")
    if tail not in _TAIL:
        raise ConfigError(f"[kernel].tail: unknown profile {tail!r}; choices {sorted(_TAIL)}")
    near_param = kern.number("near_param") if _NEAR[near][1] else None
    if _NEAR[near][1] is None and "near_param" in kern.mapping:
        raise ConfigError(f"[kernel].near_param: profile {near!r} takes no parameter")
    tail_param = kern.number("tail_param") if _TAIL[tail][1] else None
    if _TAIL[tail][1] is None and "tail_param" in kern.mapping:
        raise ConfigError(f"[kernel].tail_param: profile {tail!r} takes no parameter")

    grd = sec["grid"]
    half_width = grd.number("half_width")
    points = grd.integer("points")

    flow_sec = sec["flow"]
    flow = flow_sec.require("kind")
    if flow not in ("linear", "nonlinear"):
        raise ConfigError(f"[flow].kind must be 'linear' or 'nonlinear', got {flow!r}")
    if flow == "linear":
        if "sigma" in flow_sec.mapping:
            raise ConfigError("[flow].sigma: only meaningful for kind = nonlinear")
        sigma = 1.0
    else:
        sigma = flow_sec.number("sigma")
    mass_bound = flow_sec.number("mass_bound", 1.0)
    snapshots = _floats(flow_sec.require("snapshots"), key="[flow].snapshots")
    if any(t < 0 for t in snapshots) or any(
        b <= a for a, b in zip(snapshots, snapshots[1:])
    ):
        raise ConfigError("[flow].snapshots must be nonnegative and strictly increasing")

    init = sec["initial"]
    datum = init.require("kind")
    if datum in ("box", "gaussian"):
        key = "width" if datum == "box" else "scale"
        datum_param = init.number(key, 1.0)
        if not datum_param > 0:
            raise ConfigError(f"[initial].{key} must be positive, got {_fmt(datum_param)}")
    elif datum == "delta":
        datum_param = None
    elif datum == "random":
        datum_param = init.number("band", 0.25)
        if not 0 < datum_param <= 1:
            raise ConfigError(f"[initial].band must lie in (0, 1], got {datum_param}")
    else:
        raise ConfigError(
            f"[initial].kind: unknown datum {datum!r}; "
            "choices ['box', 'delta', 'gaussian', 'random']"
        )

    decay = None
    if "decay" in sec:
        d = sec["decay"]
        norms = _floats(d.require("norms"), key="[decay].norms")
        if any(p < 1 for p in norms):
            raise ConfigError("[decay].norms: fitted norms need p >= 1")
        q = d.number("q", 1.0)
        window_raw = d.get("window", "auto")
        window = None if window_raw == "auto" else _floats(window_raw, key="[decay].window")
        if window is not None and (len(window) != 2 or window[0] >= window[1]):
            raise ConfigError("[decay].window: expected 'auto' or two increasing times")
        if snapshots[0] == 0.0 and (window is None or window[0] <= 0.0 <= window[1]):
            raise ConfigError(
                "[decay]: a power-law fit needs positive times, but the window "
                f"{window_raw!r} includes the snapshot at t = 0"
            )
        targets = d.get("targets")
        tolerance = None
        if targets is not None:
            targets = _floats(targets, key="[decay].targets")
            if len(targets) != len(norms):
                raise ConfigError("[decay].targets must align with [decay].norms")
            tolerance = d.number("tolerance")
            if not tolerance > 0:
                raise ConfigError("[decay].tolerance must be positive")
        # admissible range of the decay estimate: sigma - 1 < q < p
        if flow == "nonlinear" and sigma - 1.0 >= q:
            raise ConfigError(
                f"[decay].q: the nonlinear decay estimate holds on the range "
                f"sigma - 1 < q < p; got sigma - 1 = {_fmt(sigma - 1.0)} >= q = {_fmt(q)}"
            )
        for p in norms:
            if not q < p:
                raise ConfigError(
                    f"[decay]: the decay estimate needs q < p; got q = {_fmt(q)}, "
                    f"p = {_fmt(p)}"
                )
        decay = DecaySpec(norms, q, window, targets, tolerance)

    nash = None
    if "nash" in sec:
        nsec = sec["nash"]
        d_par = nsec.number("d")
        r_par = nsec.number("r", 1.0)
        if not d_par > 0:
            raise ConfigError(f"[nash].d must be positive, got {d_par}")
        if not 1.0 <= r_par < 2.0:
            raise ConfigError(f"[nash].r must lie in [1, 2), got {r_par}")
        nash = NashSpec(d_par, r_par)

    regularity = None
    if "regularity" in sec:
        times = _floats(sec["regularity"].require("times"), key="[regularity].times")
        if any(t <= 0 for t in times):
            raise ConfigError("[regularity].times must be positive")
        regularity = RegularitySpec(times)

    interpolation = None
    if "interpolation" in sec:
        isec = sec["interpolation"]
        r = isec.number("r")
        s = isec.number("s")
        if r == 1.0:
            raise ConfigError(
                "[interpolation].r: r = 1 is the open case -- the two-monomial "
                "bound covers only 1 < r < s <= 2, and no constant is claimed "
                "at the endpoint"
            )
        if not 1.0 < r < s <= 2.0:
            raise ConfigError(
                f"[interpolation]: exponents must satisfy 1 < r < s <= 2, "
                f"got r = {_fmt(r)}, s = {_fmt(s)}"
            )
        interpolation = InterpolationSpec(r, s)

    cfg = ExperimentConfig(
        name=name,
        output=output,
        seed=seed,
        dimension=dimension,
        near=near,
        near_param=near_param,
        tail=tail,
        tail_param=tail_param,
        half_width=half_width,
        points=points,
        flow=flow,
        sigma=sigma,
        mass_bound=mass_bound,
        snapshots=snapshots,
        datum=datum,
        datum_param=datum_param,
        decay=decay,
        nash=nash,
        regularity=regularity,
        interpolation=interpolation,
    )
    _validate_objects(cfg)
    return cfg


def _validate_objects(cfg: ExperimentConfig):
    """Construct every referenced object once so bad parameter ranges
    surface as ConfigError before any real computation."""
    try:
        cfg.kernel()
    except Exception as exc:
        raise ConfigError(f"[kernel]: {exc}")
    try:
        cfg.grid()
    except Exception as exc:
        raise ConfigError(f"[grid]: {exc}")
    try:
        PhiLaw(cfg.sigma, M=cfg.mass_bound)
    except Exception as exc:
        raise ConfigError(f"[flow]: {exc}")
    if cfg.interpolation is not None:
        try:
            theta_exponents(
                cfg.interpolation.r,
                cfg.interpolation.s,
                cfg.kernel().tail.exponent(),
                cfg.dimension,
            )
        except Exception as exc:
            raise ConfigError(f"[interpolation]: {exc}")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class _Artifacts:
    """Names of the files written so far, for the manifest and so that a
    failed run can sweep them away."""

    def __init__(self, root: Path):
        self.root = root
        self.names = []

    def target(self, name) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        self.names.append(name)
        return self.root / name

    def write_text(self, name, text):
        self.target(name).write_text(text)

    def discard_all(self):
        for name in self.names:
            try:
                (self.root / name).unlink()
            except FileNotFoundError:
                pass


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(f"stage '{name}' failed: {exc}", stage=name) from exc


def _initial_field(cfg: ExperimentConfig, grid: PeriodicGrid):
    if cfg.datum == "box":
        return box_field(grid, width=cfg.datum_param, height=1.0)
    if cfg.datum == "gaussian":
        return gaussian_field(grid, sigma=cfg.datum_param, height=1.0)
    if cfg.datum == "delta":
        return delta_surrogate(grid)
    rng = np.random.default_rng(cfg.seed)
    return random_band_limited(grid, rng, band_fraction=cfg.datum_param)


def _flow(cfg, P, u0):
    """Iterators over the snapshot fields and their Dirichlet energies,
    and the stepper's work counters (None for the linear flow): the
    linear flow reads every energy off the datum's spectrum, the
    nonlinear flow's fields are measured one by one."""
    if cfg.flow == "linear":
        flow = LinearFlow(P, u0)
        return flow.fields(cfg.snapshots), iter(flow.energies(cfg.snapshots)), None
    phi = PhiLaw(cfg.sigma, M=cfg.mass_bound)
    fields = evolve_nonlinear(P, phi, u0, cfg.snapshots)
    return iter(fields), (dirichlet_form_spectral(P, u) for u in fields), fields.work()


def _snapshot_pass(cfg, flow, command, art):
    """Analyse the snapshots of ``flow`` (what ``_flow`` returns) in one
    pass (a linear run holds one field at a time; the nonlinear stepper
    returns all of them); writes norms.csv (and, for ``evolve``, each
    field as it comes) and returns the decay series by p, the
    escape-guard ratio, the last field and the stepper's work counters."""
    fields, energies, work = flow
    fit_ps = cfg.decay.norms if command == "decay-fit" else ()
    rows = ["t,l1,l2,linf,energy"]
    series = {p: [] for p in fit_ps}
    guard_ratio = 0.0
    for i, t in enumerate(cfg.snapshots):
        u = None  # release the previous field before the next is computed
        u = _stage("evolve", next, fields)
        norms = _stage("analysis", field_norms, u, fit_ps)
        energy = _stage("analysis", next, energies)
        lp = norms.lp
        rows.append(",".join(_fmt(x) for x in (t, lp[1], lp[2], lp[np.inf], energy)))
        for p in fit_ps:
            series[p].append((t, lp[p]))
        guard_ratio = max(guard_ratio, norms.face_ratio)
        if command == "evolve":
            fname = f"field_{i:04d}.csv"
            _stage("write", write_field_csv, u, art.target(fname))
    art.write_text("norms.csv", "\n".join(rows) + "\n")
    return series, guard_ratio, u, work


def _decay_report(cfg, series):
    lines = [f"name = {cfg.name}", f"q = {_fmt(cfg.decay.q)}"]
    all_within = True
    for i, p in enumerate(cfg.decay.norms):
        if cfg.decay.window is None:
            fit = fit_late_decay(series[p])
        else:
            fit = fit_decay_exponent(series[p], window=cfg.decay.window)
        tag = f"norm_{p:g}"
        lines += [
            f"{tag}_exponent = {_fmt(fit.exponent)}",
            f"{tag}_prefactor = {_fmt(fit.prefactor)}",
            f"{tag}_r_squared = {_fmt(fit.r_squared)}",
            f"{tag}_window = {_fmt(fit.window[0])} {_fmt(fit.window[1])}",
        ]
        if cfg.decay.targets is not None:
            target = cfg.decay.targets[i]
            within = abs(fit.exponent - target) <= cfg.decay.tolerance * target
            all_within &= within
            lines += [
                f"{tag}_target = {_fmt(target)}",
                f"{tag}_within_tolerance = {'yes' if within else 'NO'}",
            ]
    lines.append(f"all_within_tolerance = {'yes' if all_within else 'NO'}")
    return "\n".join(lines) + "\n", all_within


def _nash_report(cfg, P):
    rep = nash_dilation_sweep(P, cfg.nash.d, r_norm=cfg.nash.r)
    rows = ["sample_id,scale,ratio,branch"]
    for i, (lam, ratio, branch) in enumerate(zip(rep.scales, rep.ratios, rep.branches)):
        rows.append(f"{i},{_fmt(lam)},{_fmt(ratio)},{branch}")
    text = "\n".join(
        [
            f"name = {cfg.name}",
            f"d = {_fmt(cfg.nash.d)}",
            f"r = {_fmt(cfg.nash.r)}",
            f"samples = {len(rep.ratios)}",
            f"branch_poincare = {rep.branch_poincare}",
            f"branch_nash = {rep.branch_nash}",
            f"min_ratio = {_fmt(rep.min_ratio)}",
            f"passed = {'yes' if rep.passed else 'NO'}",
        ]
    )
    return text + "\n", "\n".join(rows) + "\n"


def _regularity_report(cfg, tab):
    blocks = [f"name = {cfg.name}"]
    for t in cfg.regularity.times:
        rep = regularizing_diagnostic(tab, t)
        blocks += [
            "",
            f"time = {_fmt(t)}",
            f"classification = {rep.classification}",
            f"ck_order = {'none' if rep.ck_order is None else rep.ck_order}",
        ]
    return "\n".join(blocks) + "\n"


def _interpolation_report(cfg, P, u):
    gamma = cfg.kernel().tail.exponent()
    rep = interpolation_check(P, u, cfg.interpolation.r, cfg.interpolation.s, gamma)
    return (
        "\n".join(
            [
                f"name = {cfg.name}",
                f"r = {_fmt(cfg.interpolation.r)}",
                f"s = {_fmt(cfg.interpolation.s)}",
                f"theta1 = {_fmt(rep.theta1)}",
                f"theta2 = {_fmt(rep.theta2)}",
                f"required_constant = {_fmt(rep.required_constant)}",
            ]
        )
        + "\n"
    )


def run(cfg: ExperimentConfig, command: str, output_override=None) -> dict:
    """Execute one pipeline scope; returns the manifest dictionary.

    The command and the config section it needs are checked before any
    computation.  Stages run in a fixed order (kernel, grid,
    symbol-table, initial-datum, then evolve, analysis and write once
    per snapshot).  Commands that run on
    the grid tabulate the multiplier over exactly its lattice's radii;
    the others use the default range.  The first failure is re-raised
    as a PipelineError naming the stage, with everything already
    written removed.
    """
    if command not in _COMMAND_SECTION:
        raise ConfigError(f"unknown command {command!r}")
    section = _COMMAND_SECTION[command]
    if section is not None and getattr(cfg, section) is None:
        raise ConfigError(f"{command} needs a [{section}] section")
    out_dir = Path(output_override or cfg.output)
    art = _Artifacts(out_dir)
    guard = work = None
    try:
        kernel = _stage("kernel", cfg.kernel)
        grid = _stage("grid", cfg.grid) if command in _LATTICE_COMMANDS else None
        radii = None if grid is None else LinearPropagator.table_grid(grid)
        tab = _stage("symbol-table", build_symbol_table, kernel, radii)

        if command == "symbol":
            rows = ["xi,m"]
            rows += [
                f"{_fmt(x)},{_fmt(v)}" for x, v in zip(tab.radial_grid, tab.values)
            ]
            art.write_text("table.csv", "\n".join(rows) + "\n")

        elif command in ("evolve", "decay-fit"):
            P = _stage("symbol-table", LinearPropagator.from_table, grid, tab)
            u0 = _stage("initial-datum", _initial_field, cfg, grid)
            flow = _stage("evolve", _flow, cfg, P, u0)
            del u0  # the linear flow reads only the datum's spectrum from here on
            series, guard_ratio, last, work = _snapshot_pass(cfg, flow, command, art)
            guard = {
                "max_boundary_ratio": guard_ratio,
                "passed": bool(guard_ratio <= acceptance.ESCAPE_GUARD),
            }
            if command == "decay-fit":
                text, _ = _stage("analysis", _decay_report, cfg, series)
                art.write_text("decay_fit.txt", text)
            if cfg.interpolation is not None:
                text = _stage("analysis", _interpolation_report, cfg, P, last)
                art.write_text("interpolation.txt", text)

        elif command == "nash-check":
            P = _stage("symbol-table", LinearPropagator.from_table, grid, tab)
            text, rows = _stage("analysis", _nash_report, cfg, P)
            art.write_text("nash.txt", text)
            art.write_text("nash_rows.csv", rows)

        else:
            text = _stage("analysis", _regularity_report, cfg, tab)
            art.write_text("regularity.txt", text)

        manifest = {
            "name": cfg.name,
            "command": command,
            "config_sha256": cfg.config_hash(),
            "seed": cfg.seed,
            "tolerances": {
                "table_rtol": TABLE_RTOL,
                "escape_guard": acceptance.ESCAPE_GUARD,
                "quad_tol_achieved": float(tab.quad_tol),
            },
            "escape_guard": guard,
            "artifacts": sorted(art.names),
        }
        if work is not None:
            manifest["work"] = work
        art.write_text("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return manifest
    except (ConfigError, PipelineError):
        art.discard_all()
        raise
    except Exception as exc:  # belt and braces: name the write stage
        art.discard_all()
        raise PipelineError(f"stage 'write' failed: {exc}", stage="write") from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_config_args(sub):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--output", default=None, help="override the output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="levyheat",
        description="nonlocal heat-flow experiments from declarative configs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("symbol", "tabulate the Fourier multiplier of the configured kernel"),
        ("evolve", "run the flow and write snapshot fields plus a norms file"),
        ("decay-fit", "run the flow and fit norm decay exponents"),
        ("nash-check", "dilation sweep of the Nash-profile lower bound"),
        ("regularity", "smoothing trichotomy diagnostic at the configured times"),
    ):
        _add_config_args(subs.add_parser(name, help=blurb))
    subs.add_parser("verify", help="run the full acceptance battery")
    return parser


def _verify() -> int:
    """The battery's table on stdout, then each criterion's wall seconds
    on stderr; a criterion that first requests a shared memoized run
    carries that run's cost."""
    results, seconds = [], []
    for number in acceptance.CRITERION_NUMBERS:
        start = time.perf_counter()
        results.append(acceptance.run_criterion(number))
        seconds.append(time.perf_counter() - start)
    print(acceptance.summary_table(results))
    for result, spent in zip(results, seconds):
        print(f"criterion {result.number}: {spent:.3f} s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "verify":
        return _verify()

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        manifest = run(cfg, args.command, output_override=args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    out_dir = args.output or cfg.output
    for name in manifest["artifacts"] + ["manifest.json"]:
        print(f"wrote {Path(out_dir) / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
