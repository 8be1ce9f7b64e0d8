"""Batch driver: subcommands, JSON determinism, exit codes, schema."""

import functools
import hashlib
import importlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from monodromy_lab import solutions
from monodromy_lab.cli import COMMANDS, build_parser, config_from_args, main
from monodromy_lab.pipeline import RunConfig, config_dict, run_verify
from monodromy_lab.report import dumps
from monodromy_lab.solutions import UCComplex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_period(capsys):
    code, out = run_cli(capsys, "period")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"][:6] == [
        1,
        2,
        {"num": 3, "den": 4},
        {"num": 5, "den": 54},
        {"num": 35, "den": 6912},
        {"num": 7, "den": 48000},
    ]


def test_qcoh(capsys):
    code, out = run_cli(capsys, "qcoh")
    assert code == 0
    doc = json.loads(out)
    assert doc["U"] == [[0, 0, 3, 0], [3, 0, 0, 3], [0, 6, 0, 0], [0, 0, 3, 0]]
    assert doc["R"] == [[0, 0, 0, 0], [3, 0, 0, 0], [0, 6, 0, 0], [0, 0, 3, 0]]
    assert doc["eta"][0] == [0, 0, 0, 1]
    # s1*s2 = q + s21
    assert doc["quantum_table"]["1,2"] == {"0": [0, 1, 0], "3": [1, 0, 0]}


def test_phitop_block3(capsys):
    code, out = run_cli(capsys, "phitop", "--order", "10")
    assert code == 0
    doc = json.loads(out)
    z3 = doc["coefficients"][3]
    assert z3 == [
        [2, 0, 0, 1],
        [0, -2, 0, 0],
        [0, 0, -2, 0],
        [0, 0, 0, 2],
    ]


def test_euler_matrix(capsys):
    code, out = run_cli(capsys, "euler-matrix")
    assert code == 0
    doc = json.loads(out)
    assert doc["euler_matrix"] == [[1, 5, 16, 14], [0, 1, 4, 5], [0, 0, 1, 4], [0, 0, 0, 1]]


#: SHA-256 of ``report.dumps`` of the exact-arithmetic reports; any change
#: to an exact output shows here
EXACT_REPORT_DIGESTS = {
    "qcoh": "a6c3fde8400e8892c41a86abf06d1dbf1613209999a1c1a4950464579e321731",
    "period": "91cfdf71fa7d8ac4018bbbd267666ec1648034666a491c748c87969d3e5120dd",
    "euler-matrix": "77daddb6fb354a653ef78afa06582136d980a292cc79204b91f4605c77847bc7",
    "phitop --order 60": "96111a3ca3beecedccd5da9f3d55594dd08b036b1e6182ab3c565a7836b9b317",
    "gamma": "23a88ef7f1cc1a40ba557696aac34777b0930fef5dfd2bf611db3ba4d4e72757",
}


@pytest.mark.parametrize("command", list(EXACT_REPORT_DIGESTS))
def test_exact_reports_keep_their_bytes(command):
    args = build_parser().parse_args(command.split())
    doc = COMMANDS[args.command](args, config_from_args(args))
    digest = hashlib.sha256(dumps(doc).encode()).hexdigest()
    assert digest == EXACT_REPORT_DIGESTS[command]


#: SHA-256 of ``report.dumps`` of the mp engine's reports at the defaults:
#: any change to a matrix, a residual or their rounding shows here.  The mp
#: engine rounds exactly, in integers, on every platform; the double reports
#: are left out, as their elementary functions come from the platform's libm
MP_REPORT_DIGESTS = {
    "verify": "8f5aa7c5497a1eb165767414367f88e4eee99e3069c136735232fe56cfcd27f9",
    "stokes": "667748873afe81721b2e58e454e1a6e44e98f078136b9ea30c7609469d8f1ef2",
    "connection": "52399ffd499b9899bcb4a9a67631b009ae698a94b91908173692b7d4df2bb83d",
    # off the defaults: more digits, a longer series, and base points of
    # other moduli, where the block passes sum other numbers of blocks
    "verify --dps 60": "c43ce13d8233ed74e892f826acbd26d6827fcaacaf89a44b574d69bca90a1bbf",
    "verify --order 60": "8ae4351c8810b503d3eebd4342e4c1f1b56365bd5601274c1fc8501d375ca04b",
    "verify --z0-stokes 1.5,0.8 --z0-connection 0.2,0.785":
        "e754df5efd5ee155b2bdf6df08fd610b503882cf3c8db7e52891be8b40ac1729",
}


@pytest.mark.parametrize("command", list(MP_REPORT_DIGESTS))
def test_mp_reports_keep_their_bytes(command):
    args = build_parser().parse_args(command.split())
    doc = COMMANDS[args.command](args, config_from_args(args))
    digest = hashlib.sha256(dumps(doc).encode()).hexdigest()
    assert digest == MP_REPORT_DIGESTS[command]


#: the SHA-256 of the reports of the warm benchmark's 32 verifications of
#: seed 1 (``run.sweep_configs(1)``), concatenated in order: base points
#: across the sweep's ranges, verified in one process, so that all but the
#: first run from warm caches of point data, block sums and column factors
SWEEP_DIGEST = "ad4da63c07e9ee9a49aa0d7cd2ca2fc119b5dec6e78100e6830993e7cc3ddbdc"


def test_warm_sweep_reports_keep_their_bytes(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    digest = hashlib.sha256()
    for config in importlib.import_module("run").sweep_configs(1):
        digest.update(dumps(run_verify(config)).encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def test_exact_commands_do_not_import_sympy():
    # nor does importing the CLI load dataclasses or inspect, which cost a
    # cold start milliseconds of import and code generation
    code = ("import contextlib, io, sys\n"
            "from monodromy_lab import cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
            "for argv in (['euler-matrix'], ['phitop', '--order', '60'], ['qcoh'], ['gamma']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print('sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.split() == ["[]", "False"], proc.stderr


def test_every_command_runs_without_sympy():
    # sympy serves only the tests: with its import blocked, each subcommand
    # exits as it does with sympy installed
    code = ("import contextlib, io, sys\n"
            "sys.modules['sympy'] = None\n"
            "from monodromy_lab import cli\n"
            "for argv in [[c] for c in cli.COMMANDS] + [['verify', '--engine', 'double']]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    print(code, *argv)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    expected = [f"0 {command}" for command in COMMANDS] + ["1 verify --engine double"]
    assert len(COMMANDS) == 9
    assert proc.stdout.splitlines() == expected, proc.stderr


def test_gamma_strings_are_sympy_text_of_the_exact_classes():
    import sympy as sp

    from monodromy_lab import ktheory

    args = build_parser().parse_args(["gamma"])
    doc = COMMANDS["gamma"](args, config_from_args(args))
    printed = {"gamma_minus": (doc["gamma_minus"], ktheory.gamma_class(-1))}
    for name, chs in doc["chern_characters"].items():
        printed[name] = (chs["graded"], ktheory.k_object(name).ch_graded())
    assert len(printed) == 10
    for name, (texts, cls) in printed.items():
        assert len(texts) == 4
        for text, x in zip(texts, cls.coeffs):
            assert sp.sympify(text) == sp.expand(x._sympy_()), (name, text)


def test_verify_does_not_import_special():
    # the Mellin-Barnes integrands serve only the contour and quadrature
    # oracles, which the solutions command runs and verify does not
    code = ("import contextlib, io, sys\n"
            "from monodromy_lab import cli\n"
            "for argv in (['verify', '--engine', 'double'], ['solutions', '--order', '20']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(argv)\n"
            "    print('monodromy_lab.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.split() == ["False", "True"], proc.stderr


def test_closed_stdout_exits_141_without_a_traceback():
    # a reader that closes the report early (``| head``) is no failed check
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "monodromy_lab.cli", "euler-matrix"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_solutions_identities(capsys):
    code, out = run_cli(capsys, "solutions", "--check-identities", "--order", "30")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) >= 5
    for entry in doc["points"]:
        assert entry["euler_residual"] <= 1e-9
        assert entry["rotation_residual"] <= 1e-9
    for chk in doc["contour_checks"]:
        assert chk["deviation"] <= 1e-8


def test_solutions_contour_deviation_is_measured_in_the_engine(capsys):
    # series - contour is formed at working precision before it becomes a
    # float: rounding both to complex first would read exactly 0 under mp
    code, out = run_cli(capsys, "solutions", "--engine", "mp")
    assert code == 0
    deviations = [chk["deviation"] for chk in json.loads(out)["contour_checks"]]
    assert len(deviations) == 3
    assert all(0 < d < 1e-30 for d in deviations), deviations


def test_gamma(capsys):
    code, out = run_cli(capsys, "gamma")
    assert code == 0
    doc = json.loads(out)
    assert doc["residuals"]["c_gamma_vs_closed_form"] <= 1e-10
    assert doc["chern_characters"]["O1"]["plain"][1] == 1


@pytest.fixture(scope="module")
def verify_output():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify"])
    return code, buf.getvalue()


def test_verify_passes_and_reports_braid(verify_output):
    code, out = verify_output
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["failed_checks"] == []
    assert doc["braid"]["word"] == ["b23_inverse"]
    assert doc["braid"]["signs"] == [1, -1, -1, 1]
    assert doc["S"] == [[1, -4, -11, -5], [0, 1, 4, 4], [0, 0, 1, 5], [0, 0, 0, 1]]


def test_verify_defaults_are_the_run_config_defaults(verify_output):
    _, out = verify_output
    assert json.loads(out)["config"] == config_dict(RunConfig())


def test_verify_schema(verify_output):
    jsonschema = pytest.importorskip("jsonschema")
    _, out = verify_output
    doc = json.loads(out)
    schema_path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report_schema.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(doc, schema)


def test_verify_deterministic(verify_output, capsys):
    _, first = verify_output
    code, second = run_cli(capsys, "verify")
    assert code == 0
    assert first == second


def unbounded_block_sums(monkeypatch):
    """Replace the block-sum cache by an empty unbounded one, which keeps
    all 56 block sums of a verify."""
    cache = functools.lru_cache(maxsize=None)(solutions._block_sums.__wrapped__)
    monkeypatch.setattr(solutions, "_block_sums", cache)
    return cache


@pytest.mark.parametrize("config", [
    RunConfig(),
    RunConfig(engine_name="double"),
    RunConfig(z0_stokes=UCComplex.polar(1.3, 0.72), z0_connection=UCComplex.polar(0.17, 0.83)),
    RunConfig(engine_name="double", z0_stokes=UCComplex.polar(1.8, 0.85),
              z0_connection=UCComplex.polar(0.06, 0.7)),
], ids=["mp-default", "double-default", "mp-off-default", "double-off-default"])
def test_verify_bytes_do_not_depend_on_block_sum_cache(monkeypatch, config):
    # a run from an empty cache, then a rerun that finds every block sum
    # cached, and so runs no block pass, give identical report bytes
    cache = unbounded_block_sums(monkeypatch)
    cold = dumps(run_verify(config))
    assert cache.cache_info().currsize == cache.cache_info().misses == 56
    assert dumps(run_verify(config)) == cold
    assert cache.cache_info().misses == 56


@pytest.mark.parametrize("config", [RunConfig(), RunConfig(engine_name="double")],
                         ids=["mp-default", "double-default"])
def test_verify_bytes_do_not_depend_on_point_cache(monkeypatch, config):
    # from empty caches; with every block sum cached but no point data, so
    # l and z^(1/2) are taken again and w not at all; with all point data
    # cached but no block sums, so every pass reads a kept w; with both
    # full.  The 27 points of a verify fit in the point cache
    sums = unbounded_block_sums(monkeypatch)
    cold = dumps(run_verify(config))
    solutions.point_data.cache_clear()
    assert dumps(run_verify(config)) == cold
    sums.cache_clear()
    assert dumps(run_verify(config)) == cold
    assert dumps(run_verify(config)) == cold


def test_digits_that_could_underflow_a_residual_are_refused(capsys):
    from monodromy_lab.pipeline import MAX_DPS

    assert MAX_DPS == 291
    assert RunConfig(dps=MAX_DPS).dps == 291
    with pytest.raises(ValueError, match="dps"):
        RunConfig(dps=MAX_DPS + 1)
    code = main(["verify", "--dps", "330", "--order", "120"])
    assert code == 2
    assert "dps" in capsys.readouterr().err


def test_tail_certificate_at_the_bottom_of_the_double_range(capsys):
    # at MAX_DPS the tolerance, 1e-289, and the tail bounds lie near the
    # bottom of the double range: order 40 is refused at the Stokes base
    # point, and order 120 passes every gate
    code = main(["verify", "--dps", "291"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("failed check: stokes stage: at z = 2,0.735398: truncation order "
                            "40 too small at |z|=2.0 for tolerance 1.0e-289\n")
    assert run_cli(capsys, "verify", "--dps", "291", "--order", "120")[0] == 0


@pytest.mark.parametrize("dps", (1, 2, 4, 8, 12, 14, 16))
def test_low_digits_pass_with_the_published_data_or_refuse_by_name(capsys, dps):
    # the exit-code contract below the default digits, with no traceback:
    # from 12 digits verify exits 0, and at 8 it exits 1 on failed gates,
    # listed in failed_checks and on stderr, not on a stage's refusal; both
    # report the published S', P, S, Euler matrix and braid.  Below 8 digits
    # the Stokes stage refuses by name (a numerically singular solve, or an
    # S' that does not snap) and no report is written
    from monodromy_lab import reference

    code = main(["verify", "--dps", str(dps)])
    captured = capsys.readouterr()
    if dps < 8:
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("failed check: stokes stage:")
        assert "Traceback" not in captured.err
        return
    doc = json.loads(captured.out)
    if dps >= 12:
        assert code == 0 and captured.err == "" and doc["failed_checks"] == []
    else:
        assert code == 1 and doc["failed_checks"]
        assert captured.err == "failed checks: " + ", ".join(doc["failed_checks"]) + "\n"
    published = {"S_prime": reference.S_PRIME_REF, "P": reference.P_REF,
                 "S": reference.S_REF, "euler_matrix": reference.EULER_MATRIX_REF}
    for key, matrix in published.items():
        assert doc[key] == [list(row) for row in matrix], key
    assert doc["braid"]["word"] == reference.EXPECTED_BRAID_LABELS
    assert doc["braid"]["signs"] == list(reference.EXPECTED_SIGNS)


def test_an_arithmetic_failure_names_its_stage(capsys):
    # a connection base point where Y_top is numerically singular under mp and
    # z^-2 and z^-3 are NaN under double, so the derivative series leave its
    # range: each error keeps its type and exit code 1, and its message starts
    # with the stage's name and then the base point, the first of
    # connection_points, at half |z0|.  From |z0| = 1e-110 on, z^-3 passes
    # the double range, which is named the same way; at 1e-102 the series
    # stay in range and the double solve refuses Y_top
    z0 = UCComplex.polar(1e-300, 0.785)
    at = "connection stage: at z = 5e-301,0.785: "
    with pytest.raises(ZeroDivisionError, match=f"^{at}matrix is numerically"):
        run_verify(RunConfig(z0_connection=z0))
    with pytest.raises(solutions.TailBoundError, match=f"^{at}the series at"):
        run_verify(RunConfig(z0_connection=z0, engine_name="double"))
    runs = [("mp", "1e-300", "matrix is numerically singular"),
            ("double", "1e-102", "matrix is numerically singular")]
    runs += [("double", modulus, f"the series at |z|={float(modulus) / 2:g} leaves the range "
                                 "of the double engine")
             for modulus in ("1e-300", "1e-110", "1e-120", "1e-150")]
    for engine, modulus, message in runs:
        code = main(["verify", "--engine", engine, "--z0-connection", f"{modulus},0.785"])
        captured = capsys.readouterr()
        at = f"connection stage: at z = {float(modulus) / 2:g},0.785: "
        assert code == 1 and captured.out == ""
        assert captured.err == f"failed check: {at}{message}\n", modulus


def test_an_arithmetic_failure_at_the_held_out_point_names_it(monkeypatch):
    # the held-out point of the connection stage is none of its base points
    from monodromy_lab import monodromy

    config = RunConfig()
    zh = monodromy.heldout_point(config.z0_connection)
    assemble = monodromy.assemble_YR

    def failing_at_zh(z, order, engine, tol=None):
        if z == zh:
            raise solutions.TailBoundError("refused")
        return assemble(z, order, engine, tol)

    monkeypatch.setattr(monodromy, "assemble_YR", failing_at_zh)
    with pytest.raises(solutions.TailBoundError,
                       match=f"^connection stage: at z = {zh}: refused$"):
        run_verify(config)
    assert str(zh) == "0.08,0.885398"


def test_exit_code_config_errors(capsys, tmp_path):
    assert run_cli(capsys, "stokes", "--z0-stokes", "nonsense")[0] == 2
    assert run_cli(capsys, "verify", "--tol", "braid_match=-1")[0] == 2
    assert run_cli(capsys, "verify", "--order", "5")[0] == 2
    assert run_cli(capsys, "verify", "--tol", "braid_macth=1e-3")[0] == 2
    assert run_cli(capsys, "stokes", "--dps", "0")[0] == 2
    # --dps sets the mp engine's digits, so it is refused under double,
    # solutions' default engine included
    for argv in (("verify", "--engine", "double", "--dps", "5"), ("solutions", "--dps", "20")):
        assert main(list(argv)) == 2
        assert "--dps sets the mp engine's digits" in capsys.readouterr().err
    assert run_cli(capsys, "stokes", "--z0-stokes", "inf,0.78")[0] == 2
    assert main(["verify", "--z0-stokes", "inf,0.78"]) == 2
    assert "modulus must be positive" in capsys.readouterr().err
    # a well-formed point that is no point of the cover names its fault
    assert main(["verify", "--z0-stokes", "0,1"]) == 2
    assert "modulus must be positive" in capsys.readouterr().err
    # base points outside their sectors (Pi_right, Pi_+) are refused up front
    assert run_cli(capsys, "connection", "--z0-connection", "0.1,2.5")[0] == 2
    assert run_cli(capsys, "stokes", "--z0-stokes", "2.0,1.3")[0] == 2
    # the fit points at arg 1.0 lie in Pi_right, the held-out point at 1.1 not
    assert run_cli(capsys, "connection", "--z0-connection", "0.1,1.0")[0] == 2
    # an output file that cannot be opened is refused before any stage runs
    assert run_cli(capsys, "verify", "--output", str(tmp_path / "missing" / "r.json"))[0] == 2
    # RunConfig refuses what the command line cannot give it: digits and an
    # order that are not ints (a bool included), a tolerance that is not an
    # int or a float, digits under the double engine, a point that is not
    # a UCComplex, tolerances that are not a mapping
    nan = float("nan")
    for kwargs in ({"dps": 40.5}, {"dps": "40"}, {"dps": True},
                   {"truncation_order": 40.5}, {"truncation_order": True},
                   {"truncation_order": "40"}, {"tolerances": {"braid_match": True}},
                   {"tolerances": {"braid_match": "1e-6"}},
                   {"tolerances": {"braid_match": nan}}, {"engine_name": "double", "dps": 20},
                   {"engine_name": "double", "dps": 40}, {"z0_stokes": (2.0, 0.785)},
                   {"tolerances": [("braid_match", 1e-3)]}, {"tolerances": None}):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


def test_exit_code_tolerance_failure(capsys):
    code, out = run_cli(capsys, "connection", "--tol", "c_vs_closed_form=1e-60")
    assert code == 1
    doc = json.loads(out)
    assert "c_vs_closed_form" in doc["failed_checks"]
    assert doc["status"] == "fail"


def test_a_nan_residual_never_passes(monkeypatch, capsys):
    from monodromy_lab import pipeline
    from monodromy_lab.pipeline import DEFAULT_TOLERANCES, gate

    nan = float("nan")
    assert gate({"braid_match": nan, "stokes_snap": 0.0}, DEFAULT_TOLERANCES) == {
        "failed_checks": ["braid_match"], "status": "fail"}
    # a NaN entry of C stops verify at a named check, with no report
    original = pipeline.connection_matrix

    def poisoned(*args):
        data = original(*args)
        C = [list(row) for row in data.C]
        C[0][1] = nan
        return data._replace(C=C)

    monkeypatch.setattr(pipeline, "connection_matrix", poisoned)
    code = main(["verify"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "NaN" in captured.err


def test_double_engine_at_high_orders(capsys):
    # the double block pass sums only the blocks that reach 53 + GUARD_BITS
    # bits: a high order reports the order-40 S' and residuals, and at
    # |z| = 6, where double runs out of digits, the run stops at a named
    # refusal of the solve, not at an overflow
    _, default = run_cli(capsys, "stokes", "--engine", "double")
    code, high = run_cli(capsys, "stokes", "--engine", "double", "--order", "345")
    assert code == 1 and high == default
    assert json.loads(high)["failed_checks"] == ["stokes_constancy"]
    code = main(["stokes", "--engine", "double", "--z0-stokes", "6,0.785", "--order", "150"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "failed check: stokes stage: at z = 6,0.735: matrix is numerically singular\n"


def test_run_config_is_frozen():
    from monodromy_lab.pipeline import RunConfig

    config = RunConfig()
    with pytest.raises(AttributeError):
        config.dps = 10
    assert config.dps == 40
    with pytest.raises(TypeError):
        config.tolerances["braid_match"] = float("nan")
    assert config.tolerances["braid_match"] == 1e-6


def test_stages_have_one_definition(capsys):
    from monodromy_lab.pipeline import RunConfig, config_dict, run_verify

    report = run_verify(RunConfig(engine_name="double"))
    # every residual leaves its stage as a Python float, under either engine
    for doc in (report, run_verify(RunConfig())):
        assert {type(v) for v in doc["residuals"].values()} == {float}
    for command in ("stokes", "connection"):
        _, out = run_cli(capsys, command, "--engine", "double")
        residuals = json.loads(out)["residuals"]
        assert residuals == {k: report["residuals"][k] for k in residuals}
    # every subcommand gates on the same tolerances
    assert run_cli(capsys, "connection", "--engine", "double", "--tol", "stokes_snap=1e-40")[0] == 1
    for command, name in (("stokes", "stokes_constancy"), ("connection", "connection_stability")):
        code, out = run_cli(capsys, command, "--engine", "double", "--tol", f"{name}=1e-60")
        assert code == 1
        assert name in json.loads(out)["failed_checks"]


def test_closed_form_of_C_is_evaluated_once_per_engine(monkeypatch):
    # the connection stage compares C with the same closed form on every
    # run; it is evaluated on the first run in each engine only
    from monodromy_lab import pipeline, reference

    evaluated = []
    evaluate = pipeline.evaluate_over_d

    def recorded(rows, engine):
        if rows is reference.C_REF_NUMERATORS:
            evaluated.append(engine)
        return evaluate(rows, engine)

    monkeypatch.setattr(pipeline, "evaluate_over_d", recorded)
    pipeline._c_closed_form.cache_clear()
    configs = [RunConfig(), RunConfig(engine_name="double"), RunConfig(dps=60)]
    reports = [[run_verify(config)["residuals"] for _ in range(2)] for config in configs]
    assert evaluated == [config.engine() for config in configs]
    assert all(first == second for first, second in reports)


def test_a_run_builds_only_its_own_engine():
    # below 40 digits, C_Gamma and its identity are evaluated in the run's
    # engine like every other closed form, so no second mp engine is built
    code = ("from monodromy_lab import engine\n"
            "from monodromy_lab.pipeline import RunConfig, run_verify\n"
            "run_verify(RunConfig(dps=12))\n"
            "print(sorted(key for key in engine._ENGINES if key[0] == 'mp'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.strip() == "[('mp', 12)]", proc.stderr
    # the digits belong to the mp engine: refused under double, and None there
    with pytest.raises(ValueError, match="dps sets the mp engine's digits"):
        RunConfig(engine_name="double", dps=16)
    config = RunConfig(engine_name="double")
    assert config.dps is None and config.engine().dps == 16
    assert config_dict(config)["dps"] is None
    assert config_dict(RunConfig(dps=12))["dps"] == 12


def _valid_config(config):
    """Assert that a config RunConfig accepted is what its docstring
    promises, checked here without ``check_sector``."""
    from monodromy_lab.frame import in_interval, sector_config
    from monodromy_lab.monodromy import connection_points, heldout_point, stokes_points
    from monodromy_lab.pipeline import DEFAULT_TOLERANCES, MAX_DPS

    if config.engine_name == "mp":
        assert type(config.dps) is int and 1 <= config.dps <= MAX_DPS
    else:
        assert config.engine_name == "double" and config.dps is None
    assert config_dict(config)["dps"] == config.dps
    assert type(config.truncation_order) is int and config.truncation_order >= 10
    assert set(config.tolerances) == set(DEFAULT_TOLERANCES)
    for value in config.tolerances.values():
        assert type(value) in (int, float) and 0 < value < float("inf")
    sectors = sector_config()
    connection = connection_points(config.z0_connection) + [heldout_point(config.z0_connection)]
    for points, interval in ((stokes_points(config.z0_stokes), sectors.pi_plus),
                             (connection, sectors.pi_right)):
        for z in points:
            assert 0 < z.modulus < float("inf") and in_interval(z.arg, interval), z


def _pick(rng, valid, invalid):
    """One of the valid values, or one of the invalid ones with chance 1/8."""
    return rng.choice(invalid if rng.random() < 1 / 8 else valid)


def _draw_point(rng, as_text, lo, hi):
    """A base point with its arg drawn from (lo, hi), which reaches past
    its sector, or a malformed one; None for the default."""
    malformed = (["nonsense", "2.0", "1,2,3", "inf,0.78", "nan,0.78", "2.0,nan", "2.0,inf",
                  "0,1", "1e400,0.78", "1e-320,0.78"] if as_text
                 else [(2.0, 0.785), "2.0,0.785", 2.0])
    point = _pick(rng, [None, "drawn", "drawn"], malformed)
    if point != "drawn":
        return point
    modulus, arg = rng.choice([0.05, 0.1, 0.3, 1.0, 2.0]), rng.uniform(lo, hi)
    return f"{modulus!r},{arg!r}" if as_text else UCComplex.polar(modulus, arg)


def _draw_config(rng, as_text):
    """RunConfig keyword arguments, or a command line, drawn from the
    valid and invalid values of each option; None leaves an option out."""
    inf, nan = float("inf"), float("nan")
    drawn = {
        "engine_name": _pick(rng, [None, "mp", "double"], ["quad"]),
        "dps": _pick(rng, [None, None, 1, 12, 40, 291], [0, 292, 40.5, True, "40"]),
        "truncation_order": _pick(rng, [None, 10, 40], [9, 40.5]),
        "z0_stokes": _draw_point(rng, as_text, 0.45, 1.15),
        "z0_connection": _draw_point(rng, as_text, 0.4, 1.0),
    }
    names = ["braid_match", "stokes_snap", "c_vs_closed_form"]
    tolerances = {_pick(rng, names, ["braid_macth"]): _pick(rng, [1e-3, 1], [0, -1, nan, inf, True])
                  for _ in range(rng.randrange(3))}
    if not as_text:
        # tolerances that are no mapping: pairs, nothing, a command-line text
        tolerances = _pick(rng, [tolerances], [list(tolerances.items()), None, "braid_match=1"])
        return {"tolerances": tolerances,
                **{k: v for k, v in drawn.items() if v is not None}}
    argv = [rng.choice(["verify", "stokes", "connection", "solutions"])]
    for option, key in (("--engine", "engine_name"), ("--dps", "dps"),
                        ("--order", "truncation_order"), ("--z0-stokes", "z0_stokes"),
                        ("--z0-connection", "z0_connection")):
        if drawn[key] is not None:
            argv += [option, str(drawn[key])]
    for name, value in tolerances.items():
        argv += ["--tol", f"{name}={value}"]
    return argv


def test_every_configuration_is_valid_or_refused(capsys):
    # the configuration half of the exit-code contract, over seeded draws:
    # each configuration is refused with a ValueError (exit 2) or is valid
    rng = random.Random(38)
    outcomes = {"valid": 0, "refused": 0}
    for as_text in (False, True) * 200:
        drawn = _draw_config(rng, as_text)
        try:
            if as_text:
                try:
                    args = build_parser().parse_args(drawn)
                except SystemExit as exc:
                    # the parser's own refusal (--dps 40.5, --engine quad)
                    assert exc.code == 2
                    outcomes["refused"] += 1
                    continue
                config = config_from_args(args)
            else:
                config = RunConfig(**drawn)
        except ValueError:
            outcomes["refused"] += 1
            continue
        _valid_config(config)
        outcomes["valid"] += 1
    capsys.readouterr()
    assert min(outcomes.values()) >= 40, outcomes
    # runs inside the documented ranges exit 0 or 1, by name, and a pass
    # reports the published data
    from monodromy_lab import reference

    published = {"S_prime": reference.S_PRIME_REF, "P": reference.P_REF,
                 "S": reference.S_REF, "euler_matrix": reference.EULER_MATRIX_REF}
    for _ in range(6):
        argv = ["verify", "--z0-stokes", f"{rng.uniform(1.0, 2.5)!r},{rng.uniform(0.6, 0.95)!r}",
                "--z0-connection", f"{rng.uniform(0.05, 0.2)!r},{rng.uniform(0.5, 0.9)!r}"]
        argv += rng.choice([["--engine", "double"], ["--dps", str(rng.choice([12, 16, 40]))]])
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1) and "Traceback" not in captured.err, (argv, captured.err)
        if code == 0:
            doc = json.loads(captured.out)
            for key, matrix in published.items():
                assert doc[key] == [list(row) for row in matrix], (argv, key)
            assert doc["braid"]["word"] == reference.EXPECTED_BRAID_LABELS, argv
            assert doc["braid"]["signs"] == list(reference.EXPECTED_SIGNS), argv


def test_pretty_and_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, "euler-matrix", "--pretty", "--output", str(target))
    assert code == 0
    text = target.read_text()
    assert "euler_matrix =" in text
    assert '"command": "euler-matrix"' in text


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "monodromy_lab.cli", "period"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["coefficients"][1] == 2
