"""Child-process entry points of the benchmark (started by run.py with
``PYTHONPATH`` pointing at the package sources).

    python3 probe.py setup WORKLOAD
        Do WORKLOAD's set-up in this fresh interpreter and exit (run.py
        times the whole child, from spawn to exit).
    python3 probe.py cli SPANS REPORT ARG...
        Run ``monodromy-lab ARG...`` with every layer traced; the report goes
        to REPORT, the spans to SPANS (as JSON, at the end), and the exit
        status is the CLI's.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from tracing import ROOT, Tracer


def fill_caches():
    """The warm sweep's set-up: build both residue series and Phi_top at the
    default order and engine, through the public functions."""
    from monodromy_lab.monodromy import phi_top
    from monodromy_lab.pipeline import RunConfig
    from monodromy_lab.solutions import PHI1, PHI2, phi_series

    config = RunConfig()
    engine = config.engine()
    for kind in (PHI1, PHI2):
        phi_series(kind, config.truncation_order, engine)
    phi_top(config.truncation_order)


def setup(warm, tracer=None):
    """Seconds to import the CLI module (what the ``monodromy-lab`` command
    imports) and, for the warm sweep, to fill the caches as well; a tracer,
    if given, traces the filling as trace "setup"."""
    start = time.perf_counter()
    import monodromy_lab.cli  # noqa: F401

    imported = time.perf_counter()
    if warm:
        with tracer.installed() if tracer else contextlib.nullcontext():
            with tracer.span("setup", "setup") if tracer else contextlib.nullcontext():
                fill_caches()
    return {"import_s": imported - start, "setup_s": time.perf_counter() - start}


def traced_cli(spans_path, report_path, cli_args):
    start = time.perf_counter()
    import monodromy_lab.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    with open(report_path, "w") as out, contextlib.redirect_stdout(out), tracer.installed():
        with tracer.span(ROOT, trace_id=0):
            code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


def main(argv):
    if argv[0] == "setup":
        setup(warm=argv[1] == "warm-sweep-mp")
        return 0
    if argv[0] == "cli":
        return traced_cli(argv[1], argv[2], argv[3:])
    raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
