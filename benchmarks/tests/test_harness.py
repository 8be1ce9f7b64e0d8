"""Self-tests of the benchmark harness:  python3 -m pytest benchmarks/tests"""

import importlib
import json
import signal
import sys
import time

import pytest

import refclock
import tracing
from run import SCHEMA, Tally


def namespace_snapshot():
    """Every attribute of every monodromy_lab module and of its classes."""
    for module, _ in tracing.LAYERS:
        importlib.import_module("monodromy_lab." + module)
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name != "monodromy_lab" and not name.startswith("monodromy_lab."):
            continue
        for key, value in vars(mod).items():
            snap[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[name, key, attr] = member
    return snap


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced run_verify (double engine, to stay fast)."""
    from monodromy_lab.pipeline import RunConfig, config_dict, run_verify
    from monodromy_lab.report import dumps

    config = RunConfig(engine_name="double")
    before = namespace_snapshot()
    untraced = dumps(run_verify(config))
    tracer = tracing.Tracer()
    with tracer.installed():
        during = namespace_snapshot()
        with tracer.span(tracing.ROOT, trace_id=0):
            traced = dumps(run_verify(config))
    return {"config": config_dict(config), "untraced": untraced, "traced": traced,
            "before": before, "during": during, "after": namespace_snapshot(),
            "spans": tracer.spans}


def test_wrappers_restore_originals(runs):
    before, during, after = runs["before"], runs["during"], runs["after"]
    assert any(during[key] is not before[key] for key in before)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_report_bytes_identical(runs):
    assert runs["traced"] == runs["untraced"]
    stats = tracing.per_trace_stats(runs["spans"])[0]
    assert stats["solutions.eval_series"]["calls"] == 172
    assert stats["solutions.LogSeries.derivative"]["calls"] == 258
    assert stats["engine.solve"]["calls"] == 6
    assert stats[tracing.ROOT]["calls"] == 1


def test_self_times_partition_the_root(runs):
    spans = runs["spans"]
    stats = tracing.per_trace_stats(spans)[0]
    root = next(end - start for name, start, end, *_ in spans if name == tracing.ROOT)
    assert sum(s["s"] for s in stats.values()) == pytest.approx(root)


def test_altered_s_prime_counts_as_failed(runs):
    from checks import ReportChecker

    tally = Tally(ReportChecker(SCHEMA))
    tally.add(1.0, runs["config"], runs["untraced"], exit_code=1)
    assert tally.correct and tally.failed_verifications == 0
    assert tally.gate_counts() == (9, 1)  # the known double-engine stokes_constancy

    doc = json.loads(runs["untraced"])
    doc["S_prime"][0][1] += 1
    sample = tally.add(1.0, runs["config"], json.dumps(doc), exit_code=1)
    assert sample["check_failures"] == ["S_prime"]
    assert not tally.correct and tally.failed_verifications == 1
    assert tally.gate_counts() == (18, 3)


def test_exit_code_must_match_failed_checks(runs):
    from checks import ReportChecker

    tally = Tally(ReportChecker(SCHEMA))
    sample = tally.add(1.0, runs["config"], runs["untraced"], exit_code=0)
    assert sample["check_failures"] == ["exit_code"]


def test_loosened_gate_counts_as_failed(runs):
    from checks import ReportChecker

    doc = json.loads(runs["untraced"])
    doc["tolerances"]["stokes_constancy"] = 1e-6
    doc["failed_checks"] = []
    sample = Tally(ReportChecker(SCHEMA)).add(1.0, runs["config"], json.dumps(doc), exit_code=0)
    assert sample["check_failures"] == ["tolerances"]


def test_meter_rescales_by_the_mean_step():
    meter = refclock.Meter(refclock.REF_STEP_S)
    meter.add(1.0, refclock.REF_STEP_S)  # at reference speed
    meter.add(2.0, 3 * refclock.REF_STEP_S)  # between samples at 1x and 3x the step
    assert meter.wall == 3.0
    assert meter.ref == pytest.approx(1.0 + 1.0)


BUSY = "import time\nwhile time.process_time() < {}: pass"


def test_run_sliced_leaves_the_stops_out():
    start = time.perf_counter()
    code, usage, meter = refclock.run_sliced([sys.executable, "-c", BUSY.format(1.5)],
                                             time.monotonic() + 30)
    elapsed = time.perf_counter() - start
    assert code == 0
    cpu = usage.ru_utime + usage.ru_stime
    assert meter.wall == pytest.approx(cpu, abs=0.2)
    assert elapsed > meter.wall + 2 * refclock.CAL_S  # stopped at least twice
    assert meter.ref > 0


def test_run_sliced_kills_a_child_past_the_deadline():
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        refclock.run_sliced([sys.executable, "-c", "import time; time.sleep(60)"],
                            start + 1.0)
    assert time.monotonic() - start < 10


def test_timed_samples_in_process_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    result, meter = refclock.timed(lambda: exec(BUSY.format(time.process_time() + 1.2)) or 7)
    assert result == 7
    assert meter.wall == pytest.approx(1.2, abs=0.2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
