"""Command-line experiment runner.

A config file is a flat INI-style description of one experiment: a
kernel, a grid, a flow, an initial datum, and the analyses to run (see
``docs/config-schema.txt`` for every key).  Each section is a frozen
dataclass whose fields are its keys and which checks its own ranges;
``ExperimentConfig`` holds them and checks what spans two sections.
Configs are validated in full before any computation starts, and a key
that the section's kind never reads is rejected, not ignored.  A run
is deterministic given the seed and byte-reproduces its artifacts,
which always include a ``manifest.json`` recording the config hash,
the effective seed, the tolerances in force, and the periodic-domain
escape-guard verdict.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
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
from .errors import ConfigError, DomainError, PipelineError
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
#: each datum's parameter key and its default; kind = delta takes none
_DATUM_PARAM = {"box": ("width", 1.0), "gaussian": ("scale", 1.0), "random": ("band", 0.25)}


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _read(kind, raw, key, infinite=False):
    """The text ``raw`` of config key ``key`` read as ``kind``: "str",
    "int", "float" or "tuple" (of floats).  NaN is never a config number,
    and infinity only where ``infinite``."""
    if kind == "str":
        return raw
    try:
        vals = tuple(map(float, raw.split())) if kind == "tuple" else (float(raw),)
    except ValueError:
        if kind == "tuple":
            raise ConfigError(f"{key}: expected space-separated numbers, got {raw!r}") from None
        raise ConfigError(f"{key}: not a number: {raw!r}") from None
    if not vals:
        raise ConfigError(f"{key}: empty value")
    for v in vals:
        if math.isnan(v) or (math.isinf(v) and not infinite):
            raise ConfigError(f"{key}: {v} is not allowed (got {raw!r})")
    if kind == "tuple":
        return vals
    if kind == "int" and vals[0] != int(vals[0]):
        raise ConfigError(f"{key}: expected an integer, got {vals[0]}")
    return int(vals[0]) if kind == "int" else vals[0]


class Section:
    """A config section: a frozen dataclass named after it.

    Its init fields are its keys: a field without a default is a
    required key, and the first word of its annotation says how the
    value is read (see ``_read``).  Each section polices its own ranges
    in ``__post_init__``.  Every field that is set (not None) gives one
    row of the canonical text, named by its ``metadata["key"]`` or else
    its own name, unless it is declared ``compare=False``.
    """

    #: the keys that may be inf
    INFINITE = ()

    @classmethod
    def parse(cls, mapping):
        name = cls.__name__.lower()
        keys = {f.name: f for f in fields(cls) if f.init}
        unknown = set(mapping) - set(keys)
        if unknown:
            raise ConfigError(f"[{name}]: unknown keys {sorted(unknown)}; allowed: {sorted(keys)}")
        values = {}
        for key, f in keys.items():
            if key in mapping:
                kind = f.type.split()[0]
                values[key] = _read(kind, mapping[key], f"[{name}].{key}", key in cls.INFINITE)
            elif f.default is MISSING:
                raise ConfigError(f"[{name}]: missing required key '{key}'")
        return cls(**values)

    def rows(self):
        name = type(self).__name__.lower()
        return [
            (f"{name}.{f.metadata.get('key', f.name)}", _text(value))
            for f in fields(self)
            if f.compare and (value := getattr(self, f.name)) is not None
        ]


def _text(value) -> str:
    """A value as the canonical text writes it."""
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    return str(value) if isinstance(value, (str, int)) else _fmt(value)


@dataclass(frozen=True)
class Experiment(Section):
    name: str
    #: the artifact directory, left out of the hash (default runs/<name>)
    output: str | None = field(default=None, compare=False)
    seed: int = 0

    def __post_init__(self):
        if self.output is None:
            object.__setattr__(self, "output", f"runs/{self.name}")


@dataclass(frozen=True)
class Kernel(Section):
    dimension: int
    near: str
    tail: str
    near_param: float | None = None
    tail_param: float | None = None
    levy: LevyKernel = field(init=False, compare=False)

    def __post_init__(self):
        profiles = []
        for part, choices in (("near", _NEAR), ("tail", _TAIL)):
            profile, param = getattr(self, part), getattr(self, f"{part}_param")
            if profile not in choices:
                raise ConfigError(
                    f"[kernel].{part}: unknown profile {profile!r}; choices {sorted(choices)}"
                )
            cls, takes_param = choices[profile]
            if not takes_param and param is not None:
                raise ConfigError(f"[kernel].{part}_param: profile {profile!r} takes no parameter")
            if takes_param and param is None:
                raise ConfigError(f"[kernel]: missing required key '{part}_param'")
            profiles.append((cls, param))
        try:
            near, tail = (cls() if param is None else cls(param) for cls, param in profiles)
            levy = LevyKernel(dimension=self.dimension, near=near, tail=tail)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"[kernel]: {exc}") from None
        object.__setattr__(self, "levy", levy)


@dataclass(frozen=True)
class Grid(Section):
    # policed by PeriodicGrid, which needs the kernel's dimension
    half_width: float
    points: int


@dataclass(frozen=True)
class Flow(Section):
    kind: str
    snapshots: tuple
    #: nonlinear only; a linear flow is sigma = 1
    sigma: float | None = None
    mass_bound: float = 1.0
    phi: PhiLaw = field(init=False, compare=False)
    INFINITE = ("mass_bound",)

    def __post_init__(self):
        if self.kind not in ("linear", "nonlinear"):
            raise ConfigError(f"[flow].kind must be 'linear' or 'nonlinear', got {self.kind!r}")
        if self.kind == "linear":
            if self.sigma is not None:
                raise ConfigError("[flow].sigma: only meaningful for kind = nonlinear")
            object.__setattr__(self, "sigma", 1.0)
        elif self.sigma is None:
            raise ConfigError("[flow]: missing required key 'sigma'")
        times = self.snapshots
        if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("[flow].snapshots must be nonnegative and strictly increasing")
        try:
            object.__setattr__(self, "phi", PhiLaw(self.sigma, M=self.mass_bound))
        except DomainError as exc:
            raise ConfigError(f"[flow]: {exc}") from None


@dataclass(frozen=True)
class Initial(Section):
    kind: str
    width: float | None = field(default=None, compare=False)
    scale: float | None = field(default=None, compare=False)
    band: float | None = field(default=None, compare=False)
    #: the kind's parameter (its default when absent), None for delta
    param: float | None = field(init=False)

    def __post_init__(self):
        if self.kind not in (*_DATUM_PARAM, "delta"):
            raise ConfigError(
                f"[initial].kind: unknown datum {self.kind!r}; "
                f"choices {sorted([*_DATUM_PARAM, 'delta'])}"
            )
        param = None
        if self.kind != "delta":
            key, default = _DATUM_PARAM[self.kind]
            param = default if getattr(self, key) is None else getattr(self, key)
            if key == "band" and not 0 < param <= 1:
                raise ConfigError(f"[initial].band must lie in (0, 1], got {param}")
            if not param > 0:
                raise ConfigError(f"[initial].{key} must be positive, got {_fmt(param)}")
        for kind, (key, _) in _DATUM_PARAM.items():
            if kind != self.kind and getattr(self, key) is not None:
                raise ConfigError(f"[initial].{key}: only meaningful for kind = {kind}")
        object.__setattr__(self, "param", param)


@dataclass(frozen=True)
class Decay(Section):
    norms: tuple
    q: float = 1.0
    #: 'auto' (the late window by max r^2) or two times, as written
    window: str = field(default="auto", compare=False)
    targets: tuple | None = None
    tolerance: float | None = None
    #: the window's two times, None for auto
    span: tuple | None = field(init=False, metadata={"key": "window"})
    INFINITE = ("norms",)

    def __post_init__(self):
        if any(p < 1 for p in self.norms):
            raise ConfigError("[decay].norms: fitted norms need p >= 1")
        span = None if self.window == "auto" else _read("tuple", self.window, "[decay].window")
        if span is not None and (len(span) != 2 or span[0] >= span[1]):
            raise ConfigError("[decay].window: expected 'auto' or two increasing times")
        object.__setattr__(self, "span", span)
        if self.targets is None:
            if self.tolerance is not None:
                raise ConfigError("[decay].tolerance: only meaningful with targets")
        elif len(self.targets) != len(self.norms):
            raise ConfigError("[decay].targets must align with [decay].norms")
        elif self.tolerance is None:
            raise ConfigError("[decay]: missing required key 'tolerance'")
        elif not self.tolerance > 0:
            raise ConfigError("[decay].tolerance must be positive")
        for p in self.norms:
            if not self.q < p:
                raise ConfigError(
                    f"[decay]: the decay estimate needs q < p; got q = {_fmt(self.q)}, "
                    f"p = {_fmt(p)}"
                )


@dataclass(frozen=True)
class Nash(Section):
    d: float
    r: float = 1.0

    def __post_init__(self):
        if not self.d > 0:
            raise ConfigError(f"[nash].d must be positive, got {self.d}")
        if not 1.0 <= self.r < 2.0:
            raise ConfigError(f"[nash].r must lie in [1, 2), got {self.r}")


@dataclass(frozen=True)
class Regularity(Section):
    times: tuple

    def __post_init__(self):
        if any(t <= 0 for t in self.times):
            raise ConfigError("[regularity].times must be positive")


@dataclass(frozen=True)
class Interpolation(Section):
    r: float
    s: float

    def __post_init__(self):
        if self.r == 1.0:
            raise ConfigError(
                "[interpolation].r: r = 1 is the open case -- the two-monomial "
                "bound covers only 1 < r < s <= 2, and no constant is claimed "
                "at the endpoint"
            )
        if not 1.0 < self.r < self.s <= 2.0:
            raise ConfigError(
                f"[interpolation]: exponents must satisfy 1 < r < s <= 2, "
                f"got r = {_fmt(self.r)}, s = {_fmt(self.s)}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, a field per section (None for an absent optional
    one); ``__post_init__`` checks what spans two sections."""

    experiment: Experiment
    kernel: Kernel
    grid: Grid
    flow: Flow
    initial: Initial
    decay: Decay | None = None
    nash: Nash | None = None
    regularity: Regularity | None = None
    interpolation: Interpolation | None = None

    def __post_init__(self):
        try:
            self.lattice()
        except DomainError as exc:
            raise ConfigError(f"[grid]: {exc}") from None
        decay, flow = self.decay, self.flow
        if decay is not None:
            span = decay.span
            if flow.snapshots[0] == 0.0 and (span is None or span[0] <= 0.0 <= span[1]):
                raise ConfigError(
                    "[decay]: a power-law fit needs positive times, but the window "
                    f"{decay.window!r} includes the snapshot at t = 0"
                )
            # admissible range of the decay estimate: sigma - 1 < q < p
            if flow.kind == "nonlinear" and flow.sigma - 1.0 >= decay.q:
                raise ConfigError(
                    "[decay].q: the nonlinear decay estimate holds on the range "
                    f"sigma - 1 < q < p; got sigma - 1 = {_fmt(flow.sigma - 1.0)} "
                    f">= q = {_fmt(decay.q)}"
                )
        if self.interpolation is not None:
            r, s = self.interpolation.r, self.interpolation.s
            try:
                theta_exponents(r, s, self.kernel.levy.tail.exponent(), self.kernel.dimension)
            except ValueError as exc:
                raise ConfigError(f"[interpolation]: {exc}") from None

    def lattice(self) -> PeriodicGrid:
        return PeriodicGrid(
            dimension=self.kernel.dimension,
            half_width=self.grid.half_width,
            points_per_axis=self.grid.points,
        )

    def canonical_text(self) -> str:
        """Normalized key-value rendering (the hashing basis).

        The output directory is deliberately excluded so that the same
        experiment re-run elsewhere hashes identically.
        """
        sections = [getattr(self, f.name) for f in fields(self)]
        rows = [row for section in sections if section is not None for row in section.rows()]
        return "\n".join(f"{k} = {v}" for k, v in sorted(rows)) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


#: each section's class, named by the annotation of its ExperimentConfig field
_SECTIONS = {f.name: globals()[f.type.split()[0]] for f in fields(ExperimentConfig)}


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

    unknown = set(cp.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in cp:
            raise ConfigError(f"missing required section [{f.name}]")
    return ExperimentConfig(
        **{name: cls.parse(cp[name]) for name, cls in _SECTIONS.items() if name in cp}
    )


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
    kind, param = cfg.initial.kind, cfg.initial.param
    if kind == "box":
        return box_field(grid, width=param, height=1.0)
    if kind == "gaussian":
        return gaussian_field(grid, sigma=param, height=1.0)
    if kind == "delta":
        return delta_surrogate(grid)
    rng = np.random.default_rng(cfg.experiment.seed)
    return random_band_limited(grid, rng, band_fraction=param)


def _flow(cfg, P, u0):
    """Iterators over the snapshot fields and their Dirichlet energies,
    and the stepper's work counters (None for the linear flow): the
    linear flow reads every energy off the datum's spectrum, the
    nonlinear flow's fields are measured one by one."""
    times = cfg.flow.snapshots
    if cfg.flow.kind == "linear":
        flow = LinearFlow(P, u0)
        return flow.fields(times), iter(flow.energies(times)), None
    stepped = evolve_nonlinear(P, cfg.flow.phi, u0, times)
    return iter(stepped), (dirichlet_form_spectral(P, u) for u in stepped), stepped.work()


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
    for i, t in enumerate(cfg.flow.snapshots):
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
    lines = [f"name = {cfg.experiment.name}", f"q = {_fmt(cfg.decay.q)}"]
    all_within = True
    for i, p in enumerate(cfg.decay.norms):
        if cfg.decay.span is None:
            fit = fit_late_decay(series[p])
        else:
            fit = fit_decay_exponent(series[p], window=cfg.decay.span)
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
            f"name = {cfg.experiment.name}",
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
    blocks = [f"name = {cfg.experiment.name}"]
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
    gamma = cfg.kernel.levy.tail.exponent()
    rep = interpolation_check(P, u, cfg.interpolation.r, cfg.interpolation.s, gamma)
    return (
        "\n".join(
            [
                f"name = {cfg.experiment.name}",
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
    computation.  Stages run in a fixed order (grid, symbol-table,
    initial-datum, then evolve, analysis and write once per snapshot;
    the kernel was built with the config).  Commands that run on
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
    out_dir = Path(output_override or cfg.experiment.output)
    art = _Artifacts(out_dir)
    guard = work = None
    try:
        grid = _stage("grid", cfg.lattice) if command in _LATTICE_COMMANDS else None
        radii = None if grid is None else LinearPropagator.table_grid(grid)
        tab = _stage("symbol-table", build_symbol_table, cfg.kernel.levy, radii)

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
            "name": cfg.experiment.name,
            "command": command,
            "config_sha256": cfg.config_hash(),
            "seed": cfg.experiment.seed,
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
    on stderr, both in the order 1..12.

    The power-tail run starts on one worker thread at battery start.
    Meanwhile the calling thread evaluates every criterion outside
    ``acceptance.TAIL_RUN_READERS``, then each reader after waiting for
    the run: a failure of the run raises at criterion 3, whose seconds
    are mostly that wait.  A criterion that first requests a shared
    memoized run carries that run's cost."""
    readers = acceptance.TAIL_RUN_READERS
    order = [n for n in acceptance.CRITERION_NUMBERS if n not in readers] + list(readers)
    results, seconds = {}, {}
    with ThreadPoolExecutor(max_workers=1) as pool:
        tail_run = pool.submit(acceptance._bounded_tail_run)
        for number in order:
            start = time.perf_counter()
            if number in readers:
                tail_run.result()
            results[number] = acceptance.run_criterion(number)
            seconds[number] = time.perf_counter() - start
    table = [results[n] for n in acceptance.CRITERION_NUMBERS]
    print(acceptance.summary_table(table))
    for result in table:
        print(f"criterion {result.number}: {seconds[result.number]:.3f} s", file=sys.stderr)
    return 0 if all(r.passed for r in table) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "verify":
        return _verify()

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, experiment=replace(cfg.experiment, seed=args.seed))
        manifest = run(cfg, args.command, output_override=args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    out_dir = args.output or cfg.experiment.output
    for name in manifest["artifacts"] + ["manifest.json"]:
        print(f"wrote {Path(out_dir) / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
