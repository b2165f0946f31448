"""levyheat benchmark: end-to-end and per-layer metrics of four CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; levyheat is imported from the
checkout's ``src`` directory.  Each repetition is a fresh child process
(``child.py``) that calls ``levyheat.cli.main`` for the workload; the
parent checks the outputs and prints one block per workload followed
by a JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics (wall time,
set-up time, peak memory, fraction of invocations that passed);
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics plus the tracing overhead.  Full samples and the
run's metadata go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from tracing import layer_metrics, read_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SETUPS = 5  # fresh interpreters timed for setup_s, after one warm-up
MIN_REPS = 2  # measured repetitions, even when they outlast --seconds
CHILD_TIMEOUT_S = 150
#: per-layer metrics that must repeat exactly between traced repetitions
DETERMINISTIC = ("_calls", "_evals", "_points", "_frac", "cli.artifact_bytes")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed invocation)."""


def child_env(work: Path):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        LEVYHEAT_WORKERS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(work),
    )
    return env


def spawn(spec, work: Path):
    """Run child.py with ``spec`` and return its result object."""
    result = Path(spec["result"])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=work,
            env=child_env(work),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"child process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def setup_time(configs, work: Path) -> float:
    spec = {"mode": "setup", "src": str(SRC), "configs": [str(c) for c in configs]}
    spec["result"] = str(work / "setup.json")
    return spawn(spec, work)["setup_s"]


def repetition(workload, configs, seed, work: Path, index: int, trace: bool):
    """One child run of the workload, checked; artifacts are removed after."""
    rep = work / f"rep{index}"
    out = rep / "artifacts"
    out.mkdir(parents=True)
    spec = {
        "mode": "run",
        "src": str(SRC),
        "invocations": workload.invocations(configs, out),
        "trace": trace,
        "result": str(rep / "result.json"),
        "spans": str(rep / "spans.csv"),
    }
    res = spawn(spec, work)
    res["trace"] = trace
    res["problems"], res["notes"], res["failed"] = [], {}, 0
    for i, (code, stdout, error) in enumerate(zip(res["codes"], res["stdout"], res["errors"])):
        if code != 0:
            detail = error.strip().splitlines()[-1] if error else f"exit code {code}"
            problems = [detail]
        else:
            problems, notes = workload.check(i, stdout, out, seed)
            res["notes"].update(notes)
        res["problems"] += [f"invocation {i}: {p}" for p in problems]
        res["failed"] += bool(problems)
    res["attempted"] = len(res["codes"])
    res["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if trace:
        spans_file = rep / "spans.csv"
        res["layers"] = layer_metrics(read_spans(spans_file), res.pop("counts"))
        res["layers"]["cli.artifact_bytes"] = (res["artifact_bytes"], "B")
        shutil.copy(spans_file, OUT / f"spans-{workload.name}.csv")
    shutil.rmtree(rep)
    return res


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    configs = workload.configs(ROOT, seed, work)
    setup_time(configs, work)  # warm-up: byte-compiles, fills the file cache
    # with tracing: untraced, traced, traced, then alternating
    plan = [False, True, True] if trace else [False] * MIN_REPS
    reps, durations, setups = [], [], []
    t0 = time.perf_counter()
    while len(reps) < len(plan) or (
        # start another repetition only if it should end inside the window
        time.perf_counter() - t0 + statistics.median(durations) <= seconds
    ):
        # set-up samples are interleaved so they see the same machine state
        start = time.perf_counter()
        setups.append(setup_time(configs, work))
        traced = plan[len(reps)] if len(reps) < len(plan) else (trace and not reps[-1]["trace"])
        reps.append(repetition(workload, configs, seed, work, len(reps), traced))
        durations.append(time.perf_counter() - start)
    setups += [setup_time(configs, work) for _ in range(MIN_SETUPS - len(setups))]
    return setups, reps


def summarize(workload, seed, setups, reps, trace: bool):
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    plain = [r for r in reps if not r["trace"]]
    walls = [r["wall_s"] for r in plain]
    sizes = {r["artifact_bytes"] for r in reps}
    if len(sizes) > 1:
        problems.append(f"artifact bytes differ between repetitions: {sorted(sizes)}")
    if trace:
        traced = [r["layers"] for r in reps if r["trace"]]
        metrics = {}
        for name, (value, unit) in traced[0].items():
            values = [t[name][0] for t in traced]
            if not name.endswith(DETERMINISTIC):
                metrics[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            metrics[name] = (value, unit)
        traced_wall = statistics.median(r["wall_s"] for r in reps if r["trace"])
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    notes = {}
    for r in reps:
        notes.update(r["notes"])
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {
            "wall_s": walls,
            "traced_wall_s": [r["wall_s"] for r in reps if r["trace"]],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
        "notes": notes,
    }


def metadata(seed, seconds, trace):
    digest = hashlib.sha256()
    for path in sorted((SRC / "levyheat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": "LEVYHEAT_WORKERS=1, OMP/OPENBLAS/MKL_NUM_THREADS=1",
    }


def report(summary):
    """Human-readable block for one workload."""
    s = summary["samples"]
    lines = [f"== {summary['workload']} (seed {summary['seed']})"]
    for name, m in summary["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    walls = sorted(s["wall_s"])
    n = len(walls)
    tail = (
        f"p{100 * (n - 10) / n:.0f} = {walls[n - 11]:.4g} s" if n > 10 else "none (needs > 10)"
    )
    lines.append(f"  wall_s samples {n}; highest percentile with >= 10 samples beyond it: {tail}")
    lines.append(
        f"  failed_frac {summary['failed'] / summary['attempted']:.6g} "
        f"({summary['failed']}/{summary['attempted']} invocations)"
    )
    for key, value in summary["notes"].items():
        lines.append(f"  note {key} = {value}")
    for problem in summary["problems"]:
        lines.append(f"  PROBLEM {problem}")
    return "\n".join(lines)


def run_workload(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        setups, reps = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarize(workload, seed, setups, reps, trace)
    summary["meta"] = metadata(seed, seconds, trace)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(summary, indent=1) + "\n")
    print(report(summary), flush=True)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "levyheat" / "cli.py").is_file():
        print(f"perfbench: no levyheat sources at {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        summaries = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                     for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
