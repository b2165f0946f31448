"""The benchmark's workloads: the ``cli.main`` calls of one repetition and
the science-level checks of their outputs.

Only ``symbol-catalog`` depends on the seed; the other three are the
paper's fixed reference experiments.  Every check runs in the parent
process, outside the timed region, and returns a list of problems (empty
when the invocation passed) plus notes recorded with the results.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from oracle import CatalogKernel

GUARD_TOL = 1e-10  # criterion 4: mass drift and p-norm increase
PORE_SNAPSHOTS = np.geomspace(1.0, 300.0, 20)
PORE_EXPONENT, PORE_EXPONENT_TOL = 0.25, 0.15  # criterion 11
SPOT_FREQUENCIES = (0.03, 1.0, 30.0)
SPOT_RTOL = 1e-6

#: (dimension, near, near-parameter range, tail, tail-parameter range)
CATALOG = (
    (1, "oscillating", (0.6, 1.0), "power", (0.8, 1.6)),
    (1, "borderline", None, "power", (0.6, 1.8)),
    (1, "logperturbed", (0.3, 1.0), "exponential", (0.5, 2.0)),
    (1, "bounded", (0.5, 2.0), "power", (0.6, 1.8)),
    (2, "bounded", (0.5, 2.0), "power", (0.6, 1.8)),
    (2, "fractional", (0.6, 1.4), "compact", None),
    (2, "logperturbed", (0.3, 1.0), "exponential", (0.5, 1.5)),
)
#: sections every config needs even when the command ignores them
_NO_FLOW = "[grid]\nhalf_width = 1\npoints = 2\n[flow]\nkind = linear\nsnapshots = 1\n[initial]\nkind = box\n"


def _fmt(x):
    return format(float(x), ".17g")


def _read_key(path, key):
    for line in Path(path).read_text().splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return value.strip()
    return None


class Workload:
    name = ""
    why = ""

    def configs(self, root: Path, seed: int, work: Path) -> list[Path]:
        """Config files of one repetition (written into ``work`` if needed)."""
        raise NotImplementedError

    def invocations(self, configs, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, index, stdout, out: Path, seed: int):
        """(problems, notes) for invocation ``index`` that exited 0."""
        return [], {}


class RefLinear(Workload):
    name = "ref-linear"
    why = (
        "the paper's headline decay-fit run: 48 complex 2^20-point FFTs are ~85% of it, "
        "one symbol table, no stepping, tiny writes"
    )

    def configs(self, root, seed, work):
        return [root / "acceptance" / "linear_alpha1.cfg"]

    def invocations(self, configs, out):
        return [["decay-fit", "--config", str(configs[0]), "--output", str(out / "run")]]

    def check(self, index, stdout, out, seed):
        run = out / "run"
        problems = []
        if _read_key(run / "decay_fit.txt", "all_within_tolerance") != "yes":
            problems.append("decay exponents outside tolerance")
        guard = json.loads((run / "manifest.json").read_text())["escape_guard"]
        if not guard["passed"]:
            problems.append(f"escape guard failed (ratio {guard['max_boundary_ratio']:.3g})")
        return problems, {"escape_guard_ratio": guard["max_boundary_ratio"]}


class PorousEvolve(Workload):
    name = "porous-evolve"
    why = (
        "explicit porous-medium stepper: ~1738 midpoint steps of 2^15-point FFTs and 18 MB "
        "of field CSVs; closed-form symbol, so quadrature is bypassed"
    )
    box_width = 2.0

    def configs(self, root, seed, work):
        path = work / "porous-evolve.cfg"
        path.write_text(
            "[experiment]\nname = porous-evolve\nseed = 0\n"
            "[kernel]\ndimension = 1\nnear = fractional\nnear_param = 1\n"
            "tail = power\ntail_param = 1\n"
            "[grid]\nhalf_width = 4096\npoints = 32768\n"
            "[flow]\nkind = nonlinear\nsigma = 2\n"
            f"snapshots = {' '.join(_fmt(t) for t in PORE_SNAPSHOTS)}\n"
            f"[initial]\nkind = box\nwidth = {_fmt(self.box_width)}\n"
        )
        return [path]

    def invocations(self, configs, out):
        return [["evolve", "--config", str(configs[0]), "--output", str(out / "run")]]

    def check(self, index, stdout, out, seed):
        run = out / "run"
        fields = [
            np.loadtxt(run / f"field_{i:04d}.csv", delimiter=",", skiprows=1)
            for i in range(len(PORE_SNAPSHOTS))
        ]
        x = fields[0][:, 0]
        dx = x[1] - x[0]
        u0 = ((x >= -0.5 * self.box_width) & (x < 0.5 * self.box_width)).astype(float)

        def norms(u):
            return np.array([dx * np.abs(u).sum(), np.sqrt(dx * (u * u).sum()), np.abs(u).max()])

        mass0, prev = dx * u0.sum(), norms(u0)
        drift, increase, l2 = 0.0, -np.inf, []
        for field in fields:
            u = field[:, 1]
            cur = norms(u)
            drift = max(drift, abs(dx * u.sum() - mass0))
            increase = max(increase, float((cur - prev).max()))
            prev = cur
            l2.append(cur[1])
        exponent = late_decay_exponent(PORE_SNAPSHOTS, np.array(l2))
        problems = []
        if drift > GUARD_TOL:
            problems.append(f"mass drift {drift:.3g} > {GUARD_TOL:g}")
        if increase > GUARD_TOL:
            problems.append(f"p-norm increase {increase:.3g} > {GUARD_TOL:g}")
        if abs(exponent - PORE_EXPONENT) > PORE_EXPONENT_TOL * PORE_EXPONENT:
            problems.append(f"L2 exponent {exponent:.4f} not {PORE_EXPONENT} +- 15%")
        guard = json.loads((run / "manifest.json").read_text())["escape_guard"]
        notes = {
            "mass_drift": drift,
            "norm_increase": increase,
            "l2_exponent": exponent,
            # recorded as it stands: the guard fails at the seed commit
            "escape_guard_passed": guard["passed"],
            "escape_guard_ratio": guard["max_boundary_ratio"],
        }
        return problems, notes


def late_decay_exponent(t, y, min_points=5):
    """Decay exponent of the suffix window with the best r^2."""
    lt, ly = np.log(t), np.log(y)
    best = None
    for start in range(len(t) - min_points + 1):
        slope, intercept = np.polyfit(lt[start:], ly[start:], 1)
        resid = ly[start:] - (slope * lt[start:] + intercept)
        sstot = np.sum((ly[start:] - ly[start:].mean()) ** 2)
        r2 = 1.0 - np.sum(resid**2) / sstot
        if best is None or r2 > best[0]:
            best = (r2, -slope)
    return float(best[1])


class SymbolCatalog(Workload):
    name = "symbol-catalog"
    why = (
        "seven seeded symbol tables, 1-D QUADPACK and 2-D Bessel-panel paths: only kernels, "
        "symbol, quadrature and bessel run, no lattice and no FFT"
    )

    def kernels(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for dim, near, near_range, tail, tail_range in CATALOG:
            a = round(float(rng.uniform(*near_range)), 4) if near_range else None
            b = round(float(rng.uniform(*tail_range)), 4) if tail_range else None
            out.append((dim, near, a, tail, b))
        return out

    def configs(self, root, seed, work):
        paths = []
        for i, (dim, near, a, tail, b) in enumerate(self.kernels(seed)):
            text = f"[experiment]\nname = catalog-{i}\nseed = {seed}\n"
            text += f"[kernel]\ndimension = {dim}\nnear = {near}\ntail = {tail}\n"
            text += f"near_param = {a}\n" if a is not None else ""
            text += f"tail_param = {b}\n" if b is not None else ""
            path = work / f"catalog-{i}.cfg"
            path.write_text(text + _NO_FLOW)
            paths.append(path)
        return paths

    def invocations(self, configs, out):
        return [["symbol", "--config", str(c), "--output", str(out / c.stem)] for c in configs]

    def check(self, index, stdout, out, seed):
        table = np.loadtxt(out / f"catalog-{index}" / "table.csv", delimiter=",", skiprows=1)
        kernel = CatalogKernel(*self.kernels(seed)[index])
        worst = 0.0
        for target in SPOT_FREQUENCIES:
            xi, m = table[np.argmin(np.abs(np.log(table[:, 0] / target)))]
            exact = kernel.symbol(xi)
            worst = max(worst, abs(m - exact) / abs(exact))
        problems = [] if worst <= SPOT_RTOL else [f"table off by {worst:.2e} relative"]
        return problems, {f"spot_rel_err_{index}": worst}


class Verify(Workload):
    name = "verify"
    why = (
        "the 12-criterion battery; the only workload running the Stroock-Varopoulos and "
        "Nash checkers and the direct Dirichlet double sum"
    )

    def configs(self, root, seed, work):
        return []

    def invocations(self, configs, out):
        return [["verify"]]

    def check(self, index, stdout, out, seed):
        ok = "12/12 criteria passed" in stdout
        return ([] if ok else ["battery not at 12/12"]), {}


WORKLOADS = {w.name: w for w in (RefLinear(), PorousEvolve(), SymbolCatalog(), Verify())}
