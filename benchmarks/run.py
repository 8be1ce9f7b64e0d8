"""The `verify` benchmark of monodromy-lab.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Load is a closed loop with one client and
one verification in flight at a time, generated by this process:

* ``cold-verify-mp``: one fresh ``monodromy-lab verify`` process at a time
  (``python3 -m monodromy_lab.cli verify``), at its defaults.
* ``cold-verify-double``: the same with ``--engine double``.
* ``warm-sweep-mp``: this process fills the series and Phi_top caches, then
  calls ``pipeline.run_verify`` on a seeded sequence of ``RunConfig`` base
  points (Stokes |z0| in [1, 2], connection |z0| in [0.05, 0.2], both at
  arg pi/4 +- 0.1).

Times are in reference seconds (see refclock.py): wall seconds rescaled by
the speed of the CPU they ran on, sampled next to the work, so that the
host's swings in speed cancel out.  Every report is checked (see checks.py).
``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off; ``--trace 1`` alternates untraced and traced verifications and reports the per-layer
metrics (self time and call counts per verification, see tracing.py) plus
the tracing overhead.  The last line of stdout is the JSON result; the lines
before it are a readable summary.  ``--out`` also writes every sample, the
per-gate residuals and the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refclock
import tracing
from checks import GATES, ReportChecker, accuracy_digits, gate_failures, margins

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report_schema.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("cold-verify-mp", "cold-verify-double", "warm-sweep-mp")
#: fresh-interpreter set-ups per run (setup_s is their median); fewer for the
#: warm sweep, whose set-up builds both residue series
SETUP_REPEATS = {"cold": 5, "warm": 2}
#: every child is killed past this many seconds after the run started
DEADLINE_S = 170
#: length of the seeded base-point sequence the warm sweep cycles through,
#: and the number of slices each base-point range is stratified into
SWEEP_LENGTH = 32
STRATA = 8


class BenchError(RuntimeError):
    pass


# -- child processes ----------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, stdout_path, stderr_path, deadline, slice_s=refclock.SLICE_S):
    """Run one child to completion: (the refclock.Meter of its run from spawn
    to exit, its exit code, its own peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        try:
            code, usage, meter = refclock.run_sliced(argv, deadline, slice_s, stdout=out,
                                                     stderr=err, cwd=ROOT, env=child_env())
        except TimeoutError as exc:
            raise BenchError(str(exc)) from None
    if code < 0:
        raise BenchError(f"{argv[1:]} ended by signal {-code}")
    return meter, code, usage.ru_maxrss / 1024


def probe_setup(workload, tmp, deadline):
    """One set-up in a fresh interpreter, timed from spawn to exit."""
    err = tmp / "setup.err"
    meter, code, _ = run_child([sys.executable, str(BENCH_DIR / "probe.py"), "setup", workload],
                               tmp / "setup.out", err, deadline)
    if code != 0:
        raise BenchError(f"set-up probe failed: {err.read_text()[-2000:]}")
    return {"setup_s": meter.ref, "wall_s": meter.wall}


# -- per-verification bookkeeping ---------------------------------------------

class Tally:
    """Outcomes of the verifications of one run.

    A verification attempts one operation per named gate; a failed gate, a
    raised ArithmeticError and a failed correctness check each count as one
    failed operation (pass_frac = 1 - failed / attempted).  A verification
    fails as a whole when it raised or any correctness check failed.
    """

    def __init__(self, checker):
        self.checker = checker
        self.samples = []

    def add(self, verify_s, config, text=None, exit_code=None, error=None, **extra):
        sample = {"verify_s": verify_s, **extra}
        if error is not None:
            sample["error"] = error
        else:
            failures, doc = self.checker.check(text, config, exit_code)
            sample["check_failures"] = failures
            if doc is not None:
                sample["residuals"] = doc["residuals"]
                sample["failed_gates"] = gate_failures(doc)
                sample["margin_digits"] = margins(doc)
                sample["accuracy_digits"] = accuracy_digits(doc)
        self.samples.append(sample)
        return sample

    @property
    def correct(self):
        return all(not s.get("check_failures") for s in self.samples)

    @property
    def failed_verifications(self):
        return sum(1 for s in self.samples if "error" in s or s.get("check_failures"))

    def gate_counts(self):
        attempted = len(GATES) * len(self.samples)
        failed = sum(len(s.get("failed_gates", ())) + len(s.get("check_failures", ()))
                     + ("error" in s) for s in self.samples)
        return attempted, min(failed, attempted)


def median_of(samples, key):
    return median_or_none([s[key] for s in samples if key in s])


def median_or_none(values):
    return statistics.median(values) if values else None


# -- workloads ----------------------------------------------------------------

def sweep_configs(seed):
    """The warm sweep's inputs: SWEEP_LENGTH RunConfigs drawn from the seed.

    Each run of STRATA consecutive configs puts one Stokes and one connection
    modulus in each of STRATA equal slices of its range, so a run's median
    covers the ranges evenly whatever the seed."""
    from monodromy_lab.pipeline import RunConfig
    from monodromy_lab.solutions import UCComplex

    rng = random.Random(seed)

    def strata(low, high):
        cells = list(range(STRATA))
        rng.shuffle(cells)
        return [low + (high - low) * (c + rng.random()) / STRATA for c in cells]

    def point(modulus):
        return UCComplex.polar(modulus, math.pi / 4 + rng.uniform(-0.1, 0.1))

    return [RunConfig(z0_stokes=point(stokes), z0_connection=point(connection))
            for _ in range(SWEEP_LENGTH // STRATA)
            for stokes, connection in zip(strata(1.0, 2.0), strata(0.05, 0.2))]


def closed_loop(seconds, trace, step):
    """Closed loop: call step(traced) until `seconds` have passed; with
    tracing, alternate untraced and traced calls and do at least one of each."""
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or (trace and index < 2):
        step(index, trace and index % 2 == 1)
        index += 1


def run_cold(args, tmp, deadline):
    from monodromy_lab.pipeline import RunConfig, config_dict

    engine = args.workload.rsplit("-", 1)[1]
    cli_args = ["verify"] + (["--engine", engine] if engine != "mp" else [])
    config = config_dict(RunConfig(engine_name=engine))
    tally = Tally(ReportChecker(SCHEMA))
    setups = [] if args.trace else [probe_setup(args.workload, tmp, deadline)
                                    for _ in range(SETUP_REPEATS["cold"])]
    traces, imports = [], []
    report, spans, err = tmp / "report.json", tmp / "spans.json", tmp / "stderr.txt"

    def step(index, traced):
        report.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "probe.py"), "cli", str(spans), str(report),
                    *cli_args]
            # not stopped for speed samples, so that its spans hold no stops
            meter, code, rss = run_child(argv, tmp / "probe.out", err, deadline, math.inf)
        else:
            argv = [sys.executable, "-m", "monodromy_lab.cli", *cli_args]
            meter, code, rss = run_child(argv, report, err, deadline)
        text = report.read_text() if report.exists() else ""
        stderr = err.read_text()
        times = {"wall_s": meter.wall, "traced": traced, "rss_mb": rss}
        if code == 1 and not text and stderr.startswith("failed check:"):
            tally.add(meter.ref, config, error=stderr.strip(), **times)
        else:
            tally.add(meter.ref, config, text, exit_code=code, **times)
        if traced:
            data = json.loads(spans.read_text())
            traces.append(tracing.per_trace_stats(data["spans"])[0])
            imports.append(data["import_s"])

    closed_loop(args.seconds, args.trace, step)
    return tally, setups, dict(enumerate(traces)), {"cli.import_s": median_or_none(imports)}


def run_warm(args, tmp, deadline):
    import probe

    setups = [] if args.trace else [probe_setup(args.workload, tmp, deadline)
                                    for _ in range(SETUP_REPEATS["warm"])]
    tracer = tracing.Tracer()
    import_s = probe.setup(warm=True, tracer=tracer if args.trace else None)["import_s"]
    from monodromy_lab import pipeline, report

    configs = sweep_configs(args.seed)
    tally = Tally(ReportChecker(SCHEMA))

    def verify(config, index, traced):
        with tracer.span(tracing.ROOT, index) if traced else contextlib.nullcontext():
            try:
                return pipeline.run_verify(config), None
            except ArithmeticError as exc:
                return None, f"{type(exc).__name__}: {exc}"

    def step(index, traced):
        config = configs[index % len(configs)]
        with tracer.installed() if traced else contextlib.nullcontext():
            # a traced verification is not sampled in between: its spans hold no samples
            (doc, error), meter = refclock.timed(lambda: verify(config, index, traced),
                                                 math.inf if traced else refclock.SLICE_S)
            text = report.dumps(doc) if doc is not None else None
        tally.add(meter.ref, pipeline.config_dict(config), text, error=error, traced=traced,
                  wall_s=meter.wall)

    closed_loop(args.seconds, args.trace, step)
    traces = tracing.per_trace_stats(tracer.spans)
    extra = {"cli.import_s": import_s,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return tally, setups, traces, extra


# -- reporting ----------------------------------------------------------------

def environment(nproc, pinned_cpu):
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": commit,
    }


def measure(args, tmp):
    deadline = time.monotonic() + DEADLINE_S
    runner = run_warm if args.workload == "warm-sweep-mp" else run_cold
    tally, setups, traces, extra = runner(args, tmp, deadline)
    samples = tally.samples
    attempted, failed = tally.gate_counts()
    values = {
        "setup_s": median_of(setups, "setup_s"),
        "pass_frac": 1 - failed / attempted,
        "fail_frac": failed / attempted,
        "cli.import_s": extra["cli.import_s"],
    }
    untraced = [s for s in samples if not s.get("traced")]
    values["accuracy_digits"] = median_of(untraced, "accuracy_digits")
    values["peak_rss_mb"] = extra.get("peak_rss_mb", median_of(untraced, "rss_mb"))
    values["verify_s"] = median_of(untraced, "verify_s")
    values["verify_wall_s"] = median_of(untraced, "wall_s")
    values["margin_digits"] = median_or_none(
        [min(s["margin_digits"].values()) for s in untraced if s.get("margin_digits")])
    if traces:
        once = traces.pop("setup", None)
        values.update(tracing.layer_metrics(list(traces.values()), once))
        values["verify.untraced_s"] = values["verify_s"]
        values["verify.traced_s"] = median_of([s for s in samples if s.get("traced")],
                                              "verify_s")
        values["trace.overhead_s"] = values["verify.traced_s"] - values["verify_s"]
    return tally, setups, values


def result_line(spec, args, tally, values):
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in section:
        value = values.get(metric["name"])
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            raise BenchError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": tally.correct, "attempted": len(tally.samples),
            "failed": tally.failed_verifications, "metrics": metrics}


def summary(args, tally, setups, values, result, env):
    samples = tally.samples
    times = sorted(s["verify_s"] for s in samples if not s.get("traced"))
    walls = [s["wall_s"] for s in samples if not s.get("traced")]
    attempted, failed = tally.gate_counts()
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"closed loop, 1 client, {len(samples)} verifications",
             f"  verify_s        {values['verify_s']:.4f} s   median of {len(times)} "
             f"verifications, reference seconds (min {times[0]:.4f}, max {times[-1]:.4f}; "
             f"wall median {values['verify_wall_s']:.4f}, min {min(walls):.4f}, "
             f"max {max(walls):.4f})"]
    if setups:
        lines.append(f"  setup_s         {values['setup_s']:.4f} s   median of {len(setups)}, "
                     f"reference seconds (wall median {median_of(setups, 'wall_s'):.4f})")
    lines += [
        f"  peak_rss_mb     {values['peak_rss_mb']:.1f} MB",
        f"  fail_frac       {failed}/{attempted} = {values['fail_frac']:.4f}   "
        f"(pass_frac {values['pass_frac']:.4f})",
    ]
    if values["margin_digits"] is not None:
        lines.append(f"  margin_digits   {values['margin_digits']:.2f} digits   "
                     f"(accuracy_digits {values['accuracy_digits']:.2f})")
    first = next((s for s in samples if "residuals" in s), None)
    if first:
        lines.append("  residuals       " + json.dumps(first["residuals"]))
        lines.append("  failed gates    " + json.dumps(first["failed_gates"]))
    errors = sorted({s["error"] for s in samples if "error" in s})
    bad = sorted({f for s in samples for f in s.get("check_failures", ())})
    lines += [f"  raised          {e}" for e in errors]
    if bad:
        lines.append("  INCORRECT       " + ", ".join(bad))
    if args.trace:
        for name, metric in result["metrics"].items():
            lines.append(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    lines.append("  env             " + json.dumps(env))
    return "\n".join(lines)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write samples and environment here")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (SRC / "monodromy_lab" / "__init__.py", SCHEMA, SPEC) if not p.is_file()]
    if missing:
        print("error: not a monodromy-lab checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    nproc = len(os.sched_getaffinity(0))
    pinned_cpu = refclock.pin()
    # unwind on SIGTERM too, so that a child stopped for a speed sample is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            tally, setups, values = measure(args, Path(tmp))
        result = result_line(spec, args, tally, values)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(nproc, pinned_cpu)
    print(summary(args, tally, setups, values, result, env))
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "metrics": result["metrics"],
            "setups": setups, "samples": tally.samples,
        }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
