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

``run`` and the parser read the commands from one table, ``_COMMANDS``.
``_text`` renders every value of every text artifact, each number with
17 significant digits, as ``key = value`` lines (``_kv``) or CSV rows
(``_csv``).  ``verify`` prints what ``acceptance.run_battery`` returns.

Any module error aborts the run with the failing stage named and all
partial outputs removed.  ``--seed`` overrides the configured seed.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import hashlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import acceptance
from .analysis import (
    fit_decay_exponent,
    fit_late_decay,
    interpolation_check,
    nash_dilation_sweep,
    regularizing_diagnostic,
    rho_eps,
    theta_exponents,
)
from .errors import ConfigError, DomainError, PipelineError
from .evolve import LinearFlow, LinearPropagator, NonlinearFlow, PhiLaw
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
    gaussian_field,
    random_band_limited,
    write_field_csv,
)
from .symbol import TABLE_RTOL, build_symbol_table
#: every command that runs a config: (the config section it cannot run
#: without, whether it binds the multiplier to the grid's lattice, help)
_COMMANDS = {
    "symbol": (None, False, "tabulate the Fourier multiplier of the configured kernel"),
    "evolve": (None, True, "run the flow and write snapshot fields plus a norms file"),
    "decay-fit": ("decay", True, "run the flow and fit norm decay exponents"),
    "nash-check": ("nash", True, "dilation sweep of the Nash-profile lower bound"),
    "regularity": ("regularity", False, "smoothing trichotomy diagnostic at the configured times"),
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
            (f"{name}.{f.metadata.get('key', f.name)}", value)
            for f in fields(self)
            if f.compare and (value := getattr(self, f.name)) is not None
        ]


def _text(value) -> str:
    """A value as every text artifact writes it: a string or an integer
    as is, a number with 17 significant digits, a tuple of numbers
    space-separated."""
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    return str(value) if isinstance(value, (str, int)) else _fmt(value)


def _kv(*blocks) -> str:
    """``key = value`` lines, one per (key, value) pair of each block of
    pairs, with a blank line between blocks."""
    return "\n".join("".join(f"{k} = {_text(v)}\n" for k, v in pairs) for pairs in blocks)


def _csv(header, rows) -> str:
    """A CSV table: the ``header`` line, then one line per row of values."""
    lines = [header, *(",".join(map(_text, row)) for row in rows)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Experiment(Section):
    name: str
    #: the artifact directory, left out of the hash (default runs/<name>)
    output: str | None = field(default=None, compare=False)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"[experiment].seed must be a non-negative integer, got {self.seed}")
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
    # q and norms are policed by rho_eps, which needs the kernel and the flow
    norms: tuple
    q: float = 1.0
    #: 'auto' (the late window by max r^2) or two times, as written
    window: str = field(default="auto", compare=False)
    tolerance: float | None = None
    #: the window's two times, None for auto
    span: tuple | None = field(init=False, metadata={"key": "window"})
    INFINITE = ("norms",)

    def __post_init__(self):
        repeated = next((p for k, p in enumerate(self.norms) if p in self.norms[:k]), None)
        if repeated is not None:
            raise ConfigError(f"[decay].norms must be distinct, got p = {_fmt(repeated)} twice")
        span = None if self.window == "auto" else _read("tuple", self.window, "[decay].window")
        if span is not None and (len(span) != 2 or span[0] >= span[1]):
            raise ConfigError("[decay].window: expected 'auto' or two increasing times")
        object.__setattr__(self, "span", span)
        if self.tolerance is not None and not self.tolerance > 0:
            raise ConfigError("[decay].tolerance must be positive")


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
            try:
                self.decay_targets()
            except DomainError as exc:
                raise ConfigError(f"[decay]: {exc}") from None
        if self.interpolation is not None:
            r, s = self.interpolation.r, self.interpolation.s
            try:
                theta_exponents(r, s, self.kernel.levy.tail.exponent(), self.kernel.dimension)
            except DomainError as exc:
                raise ConfigError(f"[interpolation]: {exc}") from None

    def lattice(self) -> PeriodicGrid:
        return PeriodicGrid(
            dimension=self.kernel.dimension,
            half_width=self.grid.half_width,
            points_per_axis=self.grid.points,
        )

    def decay_targets(self) -> tuple:
        """The paper's decay exponent of each fitted norm: ``rho_eps`` of
        q, the kernel's dimension and tail order, and the flow's sigma,
        which also polices their range."""
        decay, kernel, gamma = self.decay, self.kernel, self.kernel.levy.tail.exponent()
        rho, _ = rho_eps(decay.q, np.asarray(decay.norms), kernel.dimension, gamma, self.flow.sigma)
        return tuple(map(float, rho))

    def canonical_text(self) -> str:
        """Normalized key-value rendering (the hashing basis).

        The output directory is deliberately excluded so that the same
        experiment re-run elsewhere hashes identically.
        """
        sections = [getattr(self, f.name) for f in fields(self)]
        rows = [row for section in sections if section is not None for row in section.rows()]
        return _kv(sorted(rows))

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
        return box_field(grid, width=param)
    if kind == "gaussian":
        return gaussian_field(grid, sigma=param)
    if kind == "delta":
        return delta_surrogate(grid)
    rng = np.random.default_rng(cfg.experiment.seed)
    return random_band_limited(grid, rng, band_fraction=param)


def _flow(cfg, P, u0):
    """The run's flow from the datum ``u0``, which counts its own work."""
    if cfg.flow.kind == "linear":
        return LinearFlow(P, u0)
    return NonlinearFlow(P, cfg.flow.phi, u0)


def _snapshot_pass(cfg, snapshots, command, art):
    """Analyse the ``Snapshot`` stream ``snapshots`` in one pass, holding
    one snapshot at a time and reading its norms off the part of the
    lattice the flow runs on; writes norms.csv (and, for ``evolve``,
    each field as it comes, the only fields made) and returns the decay
    series by p, the escape-guard ratio and the last snapshot.  A
    failure of the flow itself surfaces here, as stage ``evolve``."""
    fit_ps = cfg.decay.norms if command == "decay-fit" else ()
    rows = []
    series = {p: [] for p in fit_ps}
    guard_ratio = 0.0
    for i in range(len(cfg.flow.snapshots)):
        snap = None  # release the previous snapshot before the next is computed
        snap = _stage("evolve", next, snapshots)
        norms = _stage("analysis", snap.norms, fit_ps)
        lp = norms.lp
        rows.append((snap.t, lp[1], lp[2], lp[np.inf], snap.energy))
        for p in fit_ps:
            series[p].append((snap.t, lp[p]))
        guard_ratio = max(guard_ratio, norms.face_ratio)
        if command == "evolve":
            fname = f"field_{i:04d}.csv"
            _stage("write", write_field_csv, snap.field, art.target(fname))
    art.write_text("norms.csv", _csv("t,l1,l2,linf,energy", rows))
    return series, guard_ratio, snap


def _decay_report(cfg, series):
    pairs = [("name", cfg.experiment.name), ("q", cfg.decay.q)]
    tolerance = cfg.decay.tolerance
    all_within = True
    for p, target in zip(cfg.decay.norms, cfg.decay_targets()):
        if cfg.decay.span is None:
            fit = fit_late_decay(series[p])
        else:
            fit = fit_decay_exponent(series[p], window=cfg.decay.span)
        tag = f"norm_{p:g}"
        pairs += [
            (f"{tag}_exponent", fit.exponent),
            (f"{tag}_prefactor", fit.prefactor),
            (f"{tag}_r_squared", fit.r_squared),
            (f"{tag}_window", fit.window),
            (f"{tag}_target", target),
        ]
        if tolerance is not None:
            within = abs(fit.exponent - target) <= tolerance * target
            all_within &= within
            pairs.append((f"{tag}_within_tolerance", "yes" if within else "NO"))
    if tolerance is not None:
        pairs.append(("all_within_tolerance", "yes" if all_within else "NO"))
    return _kv(pairs)


def _nash_report(cfg, P):
    rep = nash_dilation_sweep(P, cfg.nash.d, r_norm=cfg.nash.r)
    text = _kv(
        [
            ("name", cfg.experiment.name),
            ("d", cfg.nash.d),
            ("r", cfg.nash.r),
            ("samples", len(rep.ratios)),
            ("unresolved", rep.unresolved),
            ("branch_poincare", rep.branch_poincare),
            ("branch_nash", rep.branch_nash),
            ("min_ratio", rep.min_ratio),
            ("passed", "yes" if rep.passed else "NO"),
        ]
    )
    rows = zip(range(len(rep.ratios)), rep.scales, rep.ratios, rep.branches)
    return text, _csv("sample_id,scale,ratio,branch", rows)


def _regularity_report(cfg, tab):
    blocks = [[("name", cfg.experiment.name)]]
    for t in cfg.regularity.times:
        rep = regularizing_diagnostic(tab, t)
        ck_order = "none" if rep.ck_order is None else rep.ck_order
        blocks.append(
            [("time", t), ("classification", rep.classification), ("ck_order", ck_order)]
        )
    return _kv(*blocks)


def _interpolation_report(cfg, P, snap):
    r, s = cfg.interpolation.r, cfg.interpolation.s
    rep = interpolation_check(P, snap.field, r, s, cfg.kernel.levy.tail.exponent())
    return _kv(
        [
            ("name", cfg.experiment.name),
            ("r", r),
            ("s", s),
            ("theta1", rep.theta1),
            ("theta2", rep.theta2),
            ("required_constant", rep.required_constant),
        ]
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
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    section, on_lattice, _ = _COMMANDS[command]
    if section is not None and getattr(cfg, section) is None:
        raise ConfigError(f"{command} needs a [{section}] section")
    out_dir = Path(output_override or cfg.experiment.output)
    art = _Artifacts(out_dir)
    guard = work = None
    try:
        grid = _stage("grid", cfg.lattice) if on_lattice else None
        radii = None if grid is None else LinearPropagator.table_grid(grid)
        tab = _stage("symbol-table", build_symbol_table, cfg.kernel.levy, radii)
        if grid is not None:
            P = _stage("symbol-table", LinearPropagator.from_table, grid, tab)

        if command == "symbol":
            art.write_text("table.csv", _csv("xi,m", zip(tab.radial_grid, tab.values)))

        elif command in ("evolve", "decay-fit"):
            u0 = _stage("initial-datum", _initial_field, cfg, grid)
            flow = _stage("evolve", _flow, cfg, P, u0)
            del u0  # the flows keep only the datum's spectrum or a copy of it
            snapshots = _stage("evolve", flow.snapshots, cfg.flow.snapshots)
            series, guard_ratio, last = _snapshot_pass(cfg, snapshots, command, art)
            work = flow.work
            guard = {
                "max_boundary_ratio": guard_ratio,
                "passed": bool(guard_ratio <= acceptance.ESCAPE_GUARD),
            }
            if command == "decay-fit":
                text = _stage("analysis", _decay_report, cfg, series)
                art.write_text("decay_fit.txt", text)
            if cfg.interpolation is not None:
                text = _stage("analysis", _interpolation_report, cfg, P, last)
                art.write_text("interpolation.txt", text)

        elif command == "nash-check":
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="levyheat",
        description="nonlocal heat-flow experiments from declarative configs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, blurb) in _COMMANDS.items():
        sub = subs.add_parser(name, help=blurb)
        sub.add_argument("--config", required=True, help="experiment config file")
        sub.add_argument("--output", default=None, help="override the output directory")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    subs.add_parser("verify", help="run the full acceptance battery")
    return parser


def _verify() -> int:
    """The battery's table on stdout, then each criterion's wall seconds
    on stderr, both in the order 1..12 (``acceptance.run_battery``)."""
    battery = acceptance.run_battery()
    table = [result for result, _ in battery]
    print(acceptance.summary_table(table))
    for result, seconds in battery:
        print(f"criterion {result.number}: {seconds:.3f} s", file=sys.stderr)
    return 0 if all(r.passed for r in table) else 1


#: glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    """Have the C allocator keep freed memory in the process for reuse.

    With glibc's dynamic thresholds, once the first 8 MiB array is
    freed the mmap threshold becomes 8 MiB and the trim threshold
    16 MiB.  Each 2^20-point transform then frees 16 MiB at the top of
    the heap (pocketfft's 8 MiB scratch, and the 8 MiB field a consumer
    drops before the next snapshot); glibc returns it to the kernel,
    and the next transform faults it back in zero-filled: 4064 page
    faults per transform at 2^20 points, 992 at 2^18, none at 2^14,
    and ~20% of the reference ``decay-fit``'s wall time.

    Both thresholds are set, since setting either one alone turns the
    dynamic thresholds off and makes every 8 MiB array an mmap: the
    mmap threshold to 32 MiB, glibc's 64-bit ceiling and above every
    array a run allocates, and the trim threshold above any run's
    working set.  Only ``main`` calls this, so importing the package
    changes nothing; where the C library has no ``mallopt`` it does
    nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
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
