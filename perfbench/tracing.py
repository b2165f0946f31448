"""Span tracing of levyheat, installed from outside the package.

``Tracer`` replaces, at run time, the bindings through which one
levyheat module calls another with wrappers that record a span per
call: kind (the layer), label (the function), start, end and parent.
It also wraps the ``numpy.fft`` and ``scipy.fft`` transform entry points
and ``scipy.integrate.quad``.  Spans stay in memory until the traced
repetition ends; ``write_spans`` saves them and ``layer_metrics`` turns
them into the per-layer metrics, where a layer's self time is its span
time minus the time of its child spans.

Per-point kernel-profile methods (``j``, ``j_scalar``, ``ell``,
``ell_scalar``) are counted but not timed: a timer would cost more than
the call.  Bessel helpers are neither: their time stays in the
enclosing quadrature or symbol span.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

#: module -> layer; quadrature (panels, Wynn) is part of the symbol layer
LAYER_OF_MODULE = {
    "levyheat.cli": "cli",
    "levyheat.acceptance": "acceptance",
    "levyheat.analysis": "analysis",
    "levyheat.evolve": "evolve",
    "levyheat.spectral": "spectral",
    "levyheat.symbol": "symbol",
    "levyheat.quadrature": "symbol",
    "levyheat.kernels": "kernels",
}
#: functions whose spans form a kind of their own
OWN_KIND = {
    "spectral.write_field_csv": "write",
    "LinearPropagator.from_table": "bind",
}
#: dunder methods that get spans: data constructors and the nonlinearity
SPANNED_DUNDERS = {"__post_init__"}
SPANNED_CALLS = {"PhiLaw.__call__"}
PROFILE_METHODS = ("j", "j_scalar", "ell", "ell_scalar")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)


def lattice_radii(grid):
    """|xi| at every lattice frequency, computed without levyheat."""
    axis = np.abs(2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing))
    if grid.dimension == 1:
        return axis
    return np.hypot(axis[:, None], axis[None, :])


class Tracer:
    """In-memory span recorder plus work counters for one process."""

    def __init__(self):
        self.spans = []  # [kind, label, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._wrapped = {}

    def _wrap(self, kind, label, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [kind, label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- entry points outside levyheat ---------------------------------------

    def instrument_entry_points(self):
        """Wrap FFT and quad entry points; call before importing levyheat
        so that import-time bindings pick up the wrappers."""
        import numpy.fft
        import scipy.fft
        import scipy.integrate

        for module in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                fn = getattr(module, name, None)
                if fn is not None:
                    after = self._fft_points(real_input=name.startswith("rfft"))
                    setattr(module, name, self._wrap("fft", name, fn, after))
        scipy.integrate.quad = self._wrap("quad", "quad", scipy.integrate.quad)

    def _fft_points(self, real_input):
        counts = self.counts

        def after(args, kwargs, result):
            # transform length: the real array for r2c, the output otherwise
            counts["fft_points"] += np.size(args[0]) if real_input else np.size(result)

        return after

    # -- levyheat ------------------------------------------------------------

    def instrument_package(self):
        """Wrap every public function binding and class method of the
        imported levyheat layer modules."""
        modules = {n: sys.modules[n] for n in LAYER_OF_MODULE if n in sys.modules}
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ in LAYER_OF_MODULE
                ):
                    setattr(module, name, self._function(obj))
        for mod_name, module in modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == mod_name and name[0] != "_":
                    self._instrument_class(obj)
        acceptance = modules.get("levyheat.acceptance")
        if acceptance is not None and hasattr(acceptance, "_CRITERIA"):
            acceptance._CRITERIA = tuple(self._function(fn) for fn in acceptance._CRITERIA)

    def _function(self, fn):
        if fn not in self._wrapped:
            label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            kind = OWN_KIND.get(label, LAYER_OF_MODULE[fn.__module__])
            after = self._table_built if fn.__name__ == "build_symbol_table" else None
            self._wrapped[fn] = self._wrap(kind, label, fn, after)
        return self._wrapped[fn]

    def _instrument_class(self, cls):
        layer = LAYER_OF_MODULE[cls.__module__]
        if layer == "kernels" and any(m in vars(cls) for m in PROFILE_METHODS):
            for name in PROFILE_METHODS:
                if name in vars(cls):
                    setattr(cls, name, self._counted("profile_evals", vars(cls)[name]))
            return
        for name, attr in list(vars(cls).items()):
            label = f"{cls.__name__}.{name}"
            if name.startswith("_") and name not in SPANNED_DUNDERS and label not in SPANNED_CALLS:
                continue
            fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
            if not inspect.isfunction(fn):
                continue
            after = self._table_bound if label == "LinearPropagator.from_table" else None
            wrapped = self._wrap(OWN_KIND.get(label, layer), label, fn, after)
            setattr(cls, name, type(attr)(wrapped) if fn is not attr else wrapped)

    def _table_built(self, args, kwargs, tab):
        if tab.closed_form is None:
            self.counts["table_points"] += int(tab.radial_grid.size)

    def _table_bound(self, args, kwargs, propagator):
        """Table range against lattice range for an interpolated binding."""
        grid = propagator.grid
        tab = args[2] if len(args) > 2 else kwargs["tab"]
        if tab.closed_form is not None or tab.radial_grid.size == 0:
            return
        radii = lattice_radii(grid).ravel()
        radii = radii[radii > 0]
        g = tab.radial_grid
        self.counts["bound_table_points"] += int(g.size)
        self.counts["useful_table_points"] += int(
            np.count_nonzero((g >= radii.min()) & (g <= radii.max()))
        )
        self.counts["lattice_modes"] += int(radii.size)
        self.counts["extrapolated_modes"] += int(
            np.count_nonzero((radii < g[0]) | (radii > g[-1]))
        )


def write_spans(spans, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["kind", "label", "start", "end", "parent"])
        out.writerows(spans)


def read_spans(path):
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [(k, lab, float(s), float(e), int(p)) for k, lab, s, e, p in rows]


#: span kinds reported as inclusive time of their outermost spans
INCLUSIVE_KINDS = ("fft", "quad", "write", "bind")
CRITERION = "acceptance.criterion_"


def layer_metrics(spans, counts):
    """Per-layer metrics (without cli.artifact_bytes and the overhead)."""
    child = [0.0] * len(spans)
    for kind, label, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    # inclusive time is summed over spans with no ancestor of the same key
    keys = [
        kind if kind in INCLUSIVE_KINDS else label if label.startswith(CRITERION) else None
        for kind, label, *_ in spans
    ]
    self_s, inclusive, kind_calls, label_calls = Counter(), Counter(), Counter(), Counter()
    for i, (kind, label, start, end, parent) in enumerate(spans):
        self_s[kind] += (end - start) - child[i]
        kind_calls[kind] += 1
        label_calls[label] += 1
        if keys[i] is not None:
            p = parent
            while p >= 0 and keys[p] != keys[i]:
                p = spans[p][4]
            if p < 0:
                inclusive[keys[i]] += end - start

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    metrics = {
        "spectral.fft_calls": (kind_calls["fft"], "count"),
        "spectral.fft_points": (counts.get("fft_points", 0), "count"),
        "spectral.fft_s": (inclusive["fft"], "s"),
        "spectral.self_s": (self_s["spectral"], "s"),
        "spectral.write_s": (inclusive["write"], "s"),
        "evolve.phi_evals": (label_calls["PhiLaw.__call__"], "count"),
        "evolve.self_s": (self_s["evolve"], "s"),
        "evolve.bind_s": (inclusive["bind"], "s"),
        "symbol.quad_calls": (kind_calls["quad"], "count"),
        "symbol.quad_s": (inclusive["quad"], "s"),
        "symbol.self_s": (self_s["symbol"], "s"),
        "symbol.table_points": (counts.get("table_points", 0), "count"),
        "symbol.table_useful_frac": (ratio("useful_table_points", "bound_table_points"), "ratio"),
        "symbol.extrap_frac": (ratio("extrapolated_modes", "lattice_modes"), "ratio"),
        "kernels.profile_evals": (counts.get("profile_evals", 0), "count"),
        "kernels.self_s": (self_s["kernels"], "s"),
        "analysis.self_s": (self_s["analysis"], "s"),
        "acceptance.self_s": (self_s["acceptance"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
    }
    for n in range(1, 13):
        metrics[f"{CRITERION}{n}_s"] = (inclusive[f"{CRITERION}{n}"], "s")
    return metrics
