"""Exact closed forms: ClosedForm arithmetic, the reference encoding against
sympy, evaluation at working precision, the printed text against sympy, and
sympy kept off `verify`."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
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

import oracles

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
        ref = getattr(oracles, name)
        for i in range(4):
            for j in range(4):
                encoded = sp.sympify(numerators[i][j]) / D
                assert sp.expand(encoded - ref[i, j]) == 0, (name, i, j)


def test_evaluated_entries_round_like_sympy():
    # every rational coefficient enters through Engine.real: at 40 digits all
    # 32 entries round to the same doubles as a 60-digit sympy evaluation
    e = get_engine("mp", dps=40)
    for name, numerators in ENCODINGS.items():
        ref = getattr(oracles, name)
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
        C = [list(row) for row in cd.C]
        C[1][0] += 1e-30
        return cd._replace(C=C)

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


# -- the integer representation against sympy ---------------------------------

#: sympy's polynomial ring over Q(i) in stand-ins for gamma, pi and zeta(3)
_RING, _G, _P, _Z = sp.ring("g p z", sp.QQ_I)


def _gaussian(re, im=0):
    """re + i im as an element of the ring's coefficient field Q(i)."""
    return _RING.domain.from_sympy(sp.Rational(re.numerator, re.denominator)
                                   + sp.I * sp.Rational(im.numerator, im.denominator))


def _random_data(rng):
    """[(exponents, re, im)]: up to four monomials with small rational parts."""
    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 12)))

    return [((rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 1)), rational(), rational())
            for _ in range(rng.randint(0, 4))]


def _form_of(data):
    out = ClosedForm()
    for (a, b, c), re, im in data:
        out = out + EULER_GAMMA ** a * PI ** b * ZETA3 ** c * ClosedForm.constant(re, im)
    return out


def _poly_of(data):
    out = _RING.zero
    for (a, b, c), re, im in data:
        out += _gaussian(re, im) * _G ** a * _P ** b * _Z ** c
    return out


def _read(x):
    """The ring element a ClosedForm's stored integers stand for."""
    out = _RING.zero
    for (a, b, c), (re, im) in x.terms.items():
        out += _gaussian(Fraction(re, x.den), Fraction(im, x.den)) * _G ** a * _P ** b * _Z ** c
    return out


def _assert_normalized(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(re) is int and type(im) is int and (re or im)
               for re, im in x.terms.values())
    assert math.gcd(x.den, *(n for pair in x.terms.values() for n in pair)) == 1


def test_closed_form_algebra_matches_sympy():
    rng = random.Random(16)
    for _ in range(200):
        dx, dy = _random_data(rng), _random_data(rng)
        x, y = _form_of(dx), _form_of(dy)
        px, py = _poly_of(dx), _poly_of(dy)
        n = rng.choice((-3, -1, 2, 5))
        q = Fraction(rng.choice((-7, 1, 5)), rng.choice((2, 3, 9)))
        pq = _gaussian(q)
        k = rng.randint(0, 3)
        # sympy refuses 0**0; a ClosedForm to the power 0 is 1, as for ints
        pk = px ** k if px or k else _RING.one
        cases = ((x, px), (x + y, px + py), (x - y, px - py), (x * y, px * py),
                 (x ** k, pk), (x / n, px / n), (x / q, px / pq),
                 (n * x - q, n * px - pq), (q * y + n, pq * py + n))
        for got, want in cases:
            _assert_normalized(got)
            assert _read(got) == want, (dx, dy)


def test_closed_form_normal_form_and_comparisons():
    x = 3 * I * EULER_GAMMA * ZETA3 - PI ** 3 / 7 + Fraction(5, 6)
    zero = ClosedForm()
    assert zero.terms == {} and zero.den == 1 and zero == 0 and zero == Fraction(0)
    assert x - x == zero and (x - x).den == 1 and x * 0 == zero
    assert ClosedForm({(0, 0, 0): (0, 0), (1, 0, 0): (0, 0)}, 7) == zero
    assert ClosedForm({(0, 0, 0): (0, 0)}, 7).den == 1
    # equality does not depend on how a form was built
    assert (x * 6) / 6 == x and x / Fraction(3, 4) * Fraction(3, 4) == x
    assert ClosedForm({k: (6 * re, 6 * im) for k, (re, im) in x.terms.items()}, 6 * x.den) == x
    # a negative or unreduced denominator is normalized on construction
    half = ClosedForm({(0, 0, 0): (-2, 4)}, -4)
    assert half.terms == {(0, 0, 0): (1, -2)} and half.den == 2
    assert half == ClosedForm.constant(Fraction(1, 2), -1)
    for y in (x, half, x / -3, -x * Fraction(-2, 9)):
        _assert_normalized(y)
    # comparisons with int and Fraction
    assert ClosedForm.constant(Fraction(3, 2)) == Fraction(3, 2)
    assert Fraction(3, 2) == ClosedForm.constant(Fraction(3, 2))
    assert ClosedForm.constant(4) == 4 and 4 == ClosedForm.constant(4)
    assert ClosedForm.constant(Fraction(3, 2)) != 1 and ClosedForm.constant(4, 1) != 4
    assert PI != 0 and not (PI == "pi")
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        ClosedForm({(0, 0, 0): (1, 0)}, 0)


def test_closed_form_keeps_the_monomial_order_of_first_appearance():
    x = PI + EULER_GAMMA + 2
    assert list(x.terms) == [(0, 1, 0), (1, 0, 0), (0, 0, 0)]
    assert list((x + ZETA3 - PI).terms) == [(1, 0, 0), (0, 0, 0), (0, 0, 1)]
    assert list((x * (ZETA3 + 1)).terms) == [(0, 1, 1), (0, 1, 0), (1, 0, 1), (1, 0, 0),
                                             (0, 0, 1), (0, 0, 0)]


# -- the printed text ---------------------------------------------------------

def test_str_round_trips_through_sympy():
    # zero, a negative denominator, pure imaginary terms and zeta(3), then
    # random forms: sympy reads each text back as the expanded polynomial
    rng = random.Random(23)
    forms = [ClosedForm(), I, -I, ClosedForm.constant(Fraction(-3, 2), Fraction(1, 2)),
             -I * ZETA3 / 3, ClosedForm({(2, 1, 1): (0, -5), (0, 0, 1): (4, 0)}, -6)]
    forms += [_form_of(_random_data(rng)) for _ in range(300)]
    forms += [ClosedForm({(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2)):
                          (rng.choice((0, 1, -1, rng.randint(-30, 30))),
                           rng.choice((0, 1, -1, rng.randint(-30, 30))))
                          for _ in range(rng.randint(0, 5))},
                         rng.choice((1, -1, 2, -3, 6, rng.randint(1, 60))))
              for _ in range(300)]
    for x in forms:
        assert sp.sympify(str(x)) == sp.expand(x._sympy_()), (x, str(x))


def test_str_writes_sympy_syntax_in_degree_order():
    assert str(ClosedForm()) == "0"
    assert str(ClosedForm.constant(1)) == "1" and str(ClosedForm.constant(-1)) == "-1"
    assert str(-I) == "-I" and str(I / 2) == "I/2"
    assert str(ClosedForm.constant(Fraction(-3, 2), Fraction(1, 2))) == "-3/2 + I/2"
    x = 3 * I * EULER_GAMMA * ZETA3 - PI ** 3 / 7 + Fraction(5, 6) - EULER_GAMMA
    assert str(x) == "5/6 - EulerGamma + 3*I*EulerGamma*zeta(3) - pi**3/7"
    assert str((1 - 2 * I) * PI ** 2 * EULER_GAMMA / 4) == "EulerGamma*pi**2/4 - I*EulerGamma*pi**2/2"


def test_str_does_not_depend_on_the_monomial_order():
    x, y = PI + EULER_GAMMA + 2 * I, 2 * I + EULER_GAMMA + PI
    assert list(x.terms) != list(y.terms) and x == y and str(x) == str(y)
    rng = random.Random(7)
    for _ in range(100):
        data = _random_data(rng)
        shuffled = rng.sample(data, len(data))
        assert _form_of(data) == _form_of(shuffled)
        assert str(_form_of(data)) == str(_form_of(shuffled))
