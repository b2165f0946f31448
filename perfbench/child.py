"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON is an object with
  mode         "setup" (import levyheat.cli and validate the configs)
               or "run" (call ``levyheat.cli.main`` once per invocation)
  src          directory levyheat must be imported from
  configs      config files validated in setup mode
  invocations  argument lists for ``cli.main`` in run mode
  trace        record spans (run mode only)
  result       path of the JSON result this process writes
  spans        path of the span file written when tracing

Setup time runs from the first statement of this script, before
numpy or levyheat is imported, to the last validated config.  Wall
time runs from after the import to the return of the last
``cli.main`` call.  Peak RSS is read right after that.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _import_cli(src):
    import levyheat
    import levyheat.cli

    origin = os.path.realpath(levyheat.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"levyheat imported from {origin}, not from {src}")
    return levyheat.cli


def _run(spec):
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.instrument_entry_points()
    cli = _import_cli(spec["src"])
    if tracer is not None:
        import levyheat.acceptance  # noqa: F401  (imported lazily by verify)

        tracer.instrument_package()

    codes, stdouts, errors = [], [], []
    t0 = time.perf_counter()
    for argv in spec["invocations"]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(argv))
            errors.append(None)
        except Exception:  # a crash is a failed invocation, reported below
            codes.append(None)
            errors.append(traceback.format_exc())
        stdouts.append(out.getvalue())
    wall = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "codes": codes,
        "stdout": stdouts,
        "errors": errors,
    }
    if tracer is not None:
        from tracing import write_spans

        write_spans(tracer.spans, spec["spans"])
        result["counts"] = dict(tracer.counts)
    return result


def main():
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "setup":
        cli = _import_cli(spec["src"])
        for path in spec["configs"]:
            cli.parse_config(path)
        result = {"setup_s": time.perf_counter() - _START}
    else:
        result = _run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
