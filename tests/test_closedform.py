"""Exact closed forms: ClosedForm arithmetic, the reference encoding against
sympy, evaluation at working precision, and sympy kept off `verify`."""

import subprocess
import sys
from fractions import Fraction

import sympy as sp

from monodromy_lab import ktheory, pipeline, reference
from monodromy_lab.closedform import (
    EULER_GAMMA,
    I,
    PI,
    ZETA3,
    ClosedForm,
    evaluate,
    evaluate_over_d,
)
from monodromy_lab.engine import get_engine

D = 2 * sp.sqrt(2) * sp.pi ** sp.Rational(3, 2)
ENCODINGS = {
    "C_REF": reference.C_REF_NUMERATORS,
    "C_GAMMA_REF": reference.C_GAMMA_REF_NUMERATORS,
}


def test_closed_form_ring_arithmetic():
    g, pi = EULER_GAMMA, PI
    assert (g + pi) * (g - pi) == g ** 2 - pi ** 2
    assert I * I == -1 and (2 * I) / 4 == Fraction(1, 2) * I
    assert (pi + 1) ** 0 == 1 and g * 0 == 0 and 1 - g == -(g - 1)
    assert ClosedForm.constant(Fraction(1, 3), 2) == Fraction(1, 3) + 2 * I
    x = 3 * I * g * ZETA3 - pi ** 3 / 7
    assert sp.expand(sp.sympify(x) - (3 * sp.I * sp.EulerGamma * sp.zeta(3) - sp.pi ** 3 / 7)) == 0


def test_encoding_matches_sympy_references():
    for name, numerators in ENCODINGS.items():
        ref = getattr(reference, name)
        for i in range(4):
            for j in range(4):
                encoded = sp.sympify(numerators[i][j]) / D
                assert sp.expand(encoded - ref[i, j]) == 0, (name, i, j)


def test_evaluated_entries_round_like_sympy():
    # every rational coefficient enters through Engine.real: at 40 digits all
    # 32 entries round to the same doubles as a 60-digit sympy evaluation
    e = get_engine("mp", dps=40)
    for name, numerators in ENCODINGS.items():
        ref = getattr(reference, name)
        values = evaluate_over_d(numerators, e)
        for i in range(4):
            for j in range(4):
                assert complex(values[i][j]) == complex(sp.N(ref[i, j], 60)), (name, i, j)


def test_engine_real_fraction_rounds_like_division():
    e = get_engine("mp", dps=40)
    assert e.real(Fraction(1, 3)) == e.ctx.mpf(1) / 3
    assert evaluate(ClosedForm.constant(Fraction(1, 3)), e) == e.ctx.mpf(1) / 3


def test_c_gamma_is_exactly_its_closed_form():
    numerators = ktheory.c_gamma_numerators()
    for row, ref in zip(numerators, reference.C_GAMMA_REF_NUMERATORS):
        assert all(a == b for a, b in zip(row, ref))
    _, residuals = pipeline.characteristic_stage(pipeline.RunConfig())
    assert residuals["c_gamma_vs_closed_form"] == 0.0


def test_closed_form_comparisons_at_working_precision(monkeypatch):
    # a 1e-30 change to one real entry of C is far below double resolution,
    # so both comparisons see it only when made in the mp engine
    original = pipeline.connection_matrix

    def perturbed(*args, **kwargs):
        cd = original(*args, **kwargs)
        cd.C[1, 0] += 1e-30
        return cd

    monkeypatch.setattr(pipeline, "connection_matrix", perturbed)
    residuals = pipeline.run_verify(pipeline.RunConfig())["residuals"]
    assert residuals["c_vs_closed_form"] > 1e-31
    assert residuals["braid_match"] > 1e-31


def test_verify_does_not_import_sympy():
    code = ("import contextlib, io, sys\n"
            "import monodromy_lab\n"
            "from monodromy_lab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['verify', '--engine', 'double'])\n"
            "print('sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr


def test_braid_match_follows_the_working_precision():
    # C_Gamma is evaluated at the run's digits when they pass C_GAMMA_DPS,
    # so braid_match falls with the other residuals instead of stopping at
    # the 1e-40 of a 40-digit C_Gamma
    doc = pipeline.run_verify(pipeline.RunConfig(dps=60))
    assert doc["status"] == "ok"
    assert doc["residuals"]["braid_match"] < 1e-50
