"""Acceptance gate: the twelve exit criteria at their pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Heavy pipeline stages are computed once and shared.
"""

import functools
import math
from fractions import Fraction

import mpmath
import sympy as sp

from monodromy_lab import reference
from monodromy_lab.engine import get_engine
from monodromy_lab.frame import canonical_coordinates
from monodromy_lab.ktheory import (
    c_gamma_matrix,
    euler_matrix,
    gamma_class,
    numeric_matrix,
)
from monodromy_lab.monodromy import assemble_YR, phi_top
from monodromy_lab.pipeline import RunConfig, run_verify
from monodromy_lab.ring import (
    CohClass,
    pairing,
    quantum_product,
)
from monodromy_lab.solutions import (
    PHI1,
    PHI2,
    UCComplex,
    contour_eval,
    eval_series,
    identity_residuals,
    phi_series,
    quantum_period,
)
import oracles
from oracles import (
    phi_top_grading_violations,
    phi_top_orthogonality_residuals,
    phi_top_recursion_residuals,
    rotation_operator_matrix,
)

D = get_engine("double")


@functools.lru_cache(maxsize=1)
def pipeline_report():
    return run_verify(RunConfig())


@functools.lru_cache(maxsize=1)
def asymptotic_engine():
    return get_engine("mp", dps=50)


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {desc}")
    return ok


def test_criterion_01_quantum_period():
    series = quantum_period(6)
    got = [blk[0] for blk in series.blocks]
    want = [Fraction(1), Fraction(2), Fraction(3, 4), Fraction(5, 54),
            Fraction(35, 6912), Fraction(7, 48000)]
    ok = got == want
    assert _line(1, ok, "quantum period coefficients d=0..5 exact")


def test_criterion_02_phi_top():
    series = phi_top(10)
    ok = True
    for k, entries in reference.PHI_TOP_REF.items():
        for i in range(4):
            for j in range(4):
                ok = ok and series[k][i][j] == entries.get((i, j), Fraction(0))
    ok = ok and all(all(x == 0 for x in r) for r in phi_top_recursion_residuals(series))
    ok = ok and phi_top_grading_violations(series) == []
    ok = ok and all(r == 0 for r in phi_top_orthogonality_residuals(series))
    assert _line(2, ok, "Phi_top z^1..z^7 exact; invariants exact through order 10")


def test_criterion_03_scalar_identities():
    args = [-0.75 * math.pi, -math.pi / 3, 0.0, math.pi / 2, 1.05 * math.pi,
            1.55 * math.pi]
    worst = 0.0
    for arg in args:
        e_res, r_res = identity_residuals(UCComplex.polar(1.2, arg), order=40, engine=D)
        worst = max(worst, float(e_res), float(r_res))
    ok = worst <= 1e-9
    assert _line(3, ok, f"Euler/rotation identities at 6 points, worst {worst:.2e} <= 1e-9")


def test_criterion_04_series_vs_contour():
    pts1 = [(1.0, 0.0), (2.0, math.pi / 4), (1.5, -math.pi / 8),
            (0.7, 0.45 * math.pi), (1.2, -0.13 * math.pi)]
    pts2 = [(0.7, -math.pi / 3), (1.0, 0.0), (1.5, 0.7 * math.pi),
            (2.0, math.pi / 4), (0.9, -0.75 * math.pi)]
    worst = 0.0
    for kind, pts in ((PHI1, pts1), (PHI2, pts2)):
        series = phi_series(kind, 40, D)
        for mod, arg in pts:
            z = UCComplex.polar(mod, arg)
            a = complex(eval_series(series, z, engine=D))
            b = complex(contour_eval(kind, z, D))
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-9
    assert _line(4, ok, f"residue series vs contour integrals, worst {worst:.2e} <= 1e-9")


def test_criterion_05_stokes_matrix():
    rep = pipeline_report()
    ok = rep["S_prime"] == [list(r) for r in reference.S_PRIME_REF]
    ok = ok and rep["S"] == [list(r) for r in reference.S_REF]
    ok = ok and rep["residuals"]["stokes_snap"] <= 1e-6
    ok = ok and rep["residuals"]["stokes_constancy"] <= 1e-8
    assert _line(
        5, ok,
        "S' and S = P S' P^(-1) match, presnap {:.1e} <= 1e-6, constancy {:.1e} <= 1e-8".format(
            rep["residuals"]["stokes_snap"], rep["residuals"]["stokes_constancy"]),
    )


def test_criterion_06_connection_matrix():
    rep = pipeline_report()
    dev = rep["residuals"]["c_vs_closed_form"]
    ok = dev <= 1e-8
    assert _line(6, ok, f"C matches closed forms in gamma, pi, zeta(3): {dev:.2e} <= 1e-8")


def test_criterion_07_monodromy_constraints():
    rep = pipeline_report()
    r1 = rep["residuals"]["constraint_cyclic"]
    r2 = rep["residuals"]["constraint_pairing"]
    ok = r1 <= 1e-8 and r2 <= 1e-8
    assert _line(7, ok, f"monodromy constraints: {r1:.2e}, {r2:.2e} <= 1e-8")


def test_criterion_08_euler_matrix():
    em = euler_matrix()
    ok = em == reference.EULER_MATRIX_REF
    assert _line(8, ok, "Euler matrix by Riemann-Roch equals the published integers")


def test_criterion_09_gamma_side():
    gm = gamma_class(-1)
    sym_ok = all(
        sp.simplify(got - want) == 0
        for got, want in zip(gm.coeffs, oracles.GAMMA_MINUS_REF)
    )
    num = numeric_matrix(c_gamma_matrix(), dps=30)
    ref = reference.numeric(oracles.C_GAMMA_REF, dps=30)
    dev = max(abs(num[i][j] - ref[i][j]) for i in range(4) for j in range(4))
    ok = sym_ok and dev <= 1e-10
    assert _line(9, ok, f"Gamma class symbolic match; C_Gamma deviation {dev:.2e} <= 1e-10")


def test_criterion_10_braid_matching():
    rep = pipeline_report()
    braid = rep["braid"]
    ok = (
        braid["found"]
        and braid["word"] == ["b23_inverse"]
        and braid["signs"] == [1, -1, -1, 1]
        and braid["max_deviation"] <= 1e-6
    )
    assert _line(
        10, ok,
        "braid b23^(-1) + signs (1,-1,-1,1) carries (S, C) to (Euler^(-1), C_Gamma), "
        f"deviation {braid['max_deviation']:.2e} <= 1e-6",
    )


def test_criterion_11_asymptotics():
    eng = asymptotic_engine()
    u = canonical_coordinates(eng)
    s2 = eng.sqrt(eng.real(2))
    s6 = eng.sqrt(eng.real(6))
    c = [eng.complex(0, -1) / s2, 1 / s6, 1 / s6, 1 / s6]
    mods = (6.0, 9.0, 12.0)

    # scalar form along arg z = 0 against (1/sqrt6) e^(u4 z)
    s1 = phi_series(PHI1, 76, eng)
    dev0 = []
    for mod in mods:
        z = UCComplex.polar(mod, 0.0)
        z32 = eng.exp(eng.complex(Fraction(3, 2)) * z.log(eng))
        f = -z32 / (2 * s2 * eng.pi ** 2) * eng.number(eval_series(s1, z, engine=eng, tol=1e-21))
        zc = eng.exp(z.log(eng))
        dev0.append(abs(complex(f / ((1 / s6) * eng.exp(u[3] * zc))) - 1))

    cols = []
    for mod in mods:
        z = UCComplex.polar(mod, math.pi / 12)
        Y = assemble_YR(z, 76, eng, tol=1e-21)
        zc = eng.exp(z.log(eng))
        cols.append([abs(complex(eng.number(Y[3][k]) * eng.exp(-u[k] * zc) / c[k]) - 1)
                     for k in range(4)])

    def slope(devs):
        xs = [math.log(m) for m in mods]
        ys = [math.log(d) for d in devs]
        n = len(xs)
        xbar, ybar = sum(xs) / n, sum(ys) / n
        return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs)

    ok = -1.2 <= slope(dev0) <= -0.8
    slopes = []
    for k in range(4):
        devs = [cols[i][k] for i in range(3)]
        sk = slope(devs)
        slopes.append(sk)
        ok = ok and devs[2] < devs[1] < devs[0]
        if k == 0:
            # the u=0 column has no 1/z term; its leading correction sits
            # three orders down, so it may only decay faster
            ok = ok and sk <= -0.8
        else:
            ok = ok and -1.2 <= sk <= -0.8
    assert _line(
        11, ok,
        "normalized ratios -> c_k with 1/|z| decay; slopes "
        + ", ".join(f"{s:.2f}" for s in [slope(dev0)] + slopes),
    )


def test_criterion_12_property_suite():
    basis = [CohClass.basis(k) for k in range(4)]
    ok = True
    # associativity and the pairing compatibility
    for q in (Fraction(0), Fraction(1), Fraction(2)):
        for a in basis:
            for b in basis:
                for c in basis:
                    left = quantum_product(quantum_product(a, b, q), c, q)
                    right = quantum_product(a, quantum_product(b, c, q), q)
                    ok = ok and left.coeffs == right.coeffs
    for a in basis:
        for b in basis:
            for c in basis:
                ok = ok and pairing(quantum_product(a, b, Fraction(1)), c) == pairing(
                    a, quantum_product(b, c, Fraction(1)))
    # Gamma reflection identity through degree 3
    from monodromy_lab.ktheory import chern_data
    from monodromy_lab.ring import classical_product

    prod = classical_product(gamma_class(+1), gamma_class(-1))
    cd = chern_data()
    target = sp.zeta(2) * sp.Rational(cd.p2.coeffs[2].numerator, cd.p2.coeffs[2].denominator)
    ok = ok and sp.simplify(prod.coeffs[1]) == 0
    ok = ok and sp.simplify(prod.coeffs[2] - target) == 0
    # braid relation on random unipotent data
    import random

    from monodromy_lab.braid import BraidWord, braid_act
    from monodromy_lab.engine import max_deviation

    rng = random.Random(23)
    for _ in range(3):
        S = [[1.0 if i == j else (float(rng.randint(-4, 4)) if j > i else 0.0)
              for j in range(3)] for i in range(3)]
        C = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
             for _ in range(3)]
        S1, C1 = braid_act(BraidWord(letters=((1, 1), (2, 1), (1, 1))), S, C)
        S2, C2 = braid_act(BraidWord(letters=((2, 1), (1, 1), (2, 1))), S, C)
        ok = ok and max_deviation(S1, S2) < 1e-12 and max_deviation(C1, C2) < 1e-12
    # unipotency of the rotation operator
    A = mpmath.fp.matrix(rotation_operator_matrix(D))
    M = A * A * A * A - 4 * A * A * A + 6 * A * A - 4 * A + mpmath.fp.eye(4)
    ok = ok and max_deviation(M.tolist(), [[0] * 4] * 4) < 1e-12
    assert _line(12, ok, "ring/Frobenius, Gamma reflection, braid relation, rotation unipotency")
