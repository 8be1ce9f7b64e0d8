"""Chern data, Gamma class, Chern characters, Euler matrix, C_Gamma."""

from fractions import Fraction

import pytest
import sympy as sp

from monodromy_lab import reference
from monodromy_lab.ktheory import (
    KObject,
    c_gamma_matrix,
    chern_data,
    collection,
    euler_matrix,
    euler_pairing,
    gamma_class,
    k_object,
    numeric_matrix,
    todd_class,
)
from monodromy_lab.ring import CohClass, classical_product, integral

import oracles


def test_chern_classes():
    cd = chern_data()
    assert cd.c1.coeffs == (0, 3, 0, 0)
    # oracle: expand (1+h)^5 (1+2h)^(-1) = 1 + 3h + 4h^2 + 2h^3 in exact
    # rational arithmetic with h = s1, h^2 = 2 s2, h^3 = 2 s21
    assert cd.c2.coeffs == (0, 0, 8, 0)      # 4 h^2
    assert cd.c3.coeffs == (0, 0, 0, 4)      # 2 h^3
    # Euler characteristic: integral of c3 equals the rank of cohomology
    assert integral(cd.c3) == 4


def test_newton_identities():
    cd = chern_data()
    c1sq = classical_product(cd.c1, cd.c1)
    assert cd.p1.coeffs == cd.c1.coeffs
    assert cd.p2.coeffs == (c1sq - cd.c2.scaled(Fraction(2))).coeffs
    expect_p3 = (
        classical_product(c1sq, cd.c1)
        - classical_product(cd.c1, cd.c2).scaled(Fraction(3))
        + cd.c3.scaled(Fraction(3))
    )
    assert cd.p3.coeffs == expect_p3.coeffs
    # concrete values: p2 = h^2, p3 = -3 h^3
    assert cd.p2.coeffs == (0, 0, 2, 0)
    assert cd.p3.coeffs == (0, 0, 0, -6)


def test_todd_class_and_chi_O():
    td = todd_class()
    # chi(O) = integral of Td = 1 on the three-dimensional quadric
    assert integral(td) == 1


def test_gamma_class_symbolic_display():
    gm = gamma_class(-1)
    for got, want in zip(gm.coeffs, oracles.GAMMA_MINUS_REF):
        assert sp.simplify(got - want) == 0
    assert gm.coeffs[0] == 1


def test_gamma_class_sigma2_coefficient_assembled():
    # s2 coefficient reproduces gamma^2 p1^2/2 + zeta(2) p2/2 exactly
    cd = chern_data()
    g = sp.EulerGamma
    p1sq = classical_product(cd.p1, cd.p1)
    expected = g ** 2 * sp.Rational(p1sq.coeffs[2].numerator, p1sq.coeffs[2].denominator) / 2
    expected += sp.zeta(2) * sp.Rational(cd.p2.coeffs[2].numerator, cd.p2.coeffs[2].denominator) / 2
    gm = gamma_class(-1)
    assert sp.simplify(gm.coeffs[2] - expected) == 0


def test_gamma_reflection_identity():
    # Gamma^+ cup Gamma^- = prod Gamma(1+d)Gamma(1-d) = prod pi d/sin(pi d)
    # = exp(zeta(2) p2 + ...); through degree 3 only the p2 term survives
    gp = gamma_class(+1)
    gm = gamma_class(-1)
    prod = classical_product(gp, gm)
    cd = chern_data()
    expected2 = sp.zeta(2) * sp.Rational(cd.p2.coeffs[2].numerator, cd.p2.coeffs[2].denominator)
    assert sp.simplify(prod.coeffs[2] - expected2) == 0
    assert sp.simplify(prod.coeffs[1]) == 0


def test_graded_chern_characters_published():
    two_pi_i = 2 * sp.pi * sp.I
    assert k_object("O").ch_graded().coeffs == (1, 0, 0, 0)
    ch_o1 = k_object("O1").ch_graded()
    assert sp.simplify(ch_o1.coeffs[1] - 2 * sp.I * sp.pi) == 0
    assert sp.simplify(ch_o1.coeffs[2] + 4 * sp.pi ** 2) == 0
    assert sp.simplify(ch_o1.coeffs[3] + sp.Rational(8, 3) * sp.I * sp.pi ** 3) == 0
    ch_o2 = k_object("O2").ch_graded()
    assert sp.simplify(ch_o2.coeffs[1] - 4 * sp.I * sp.pi) == 0
    assert sp.simplify(ch_o2.coeffs[2] + 16 * sp.pi ** 2) == 0
    assert sp.simplify(ch_o2.coeffs[3] + sp.Rational(64, 3) * sp.I * sp.pi ** 3) == 0
    # wedge^2 U* is the polarization O(1)
    assert k_object("WEDGE2").ch_plain.coeffs == k_object("O1").ch_plain.coeffs


def test_schur_bundle_chern_character():
    # Sigma^(2,1)U* = U* (x) det U*; from c(U*) = 1 + s1 + s2 the graded
    # character is 2 + 6 i pi s1 - 16 pi^2 s2 - 12 i pi^3 s21.  (The
    # commonly displayed s21 coefficient -32 i pi^3 is inconsistent: it
    # breaks integrality of the Euler pairings and the printed Euler
    # matrix/Gamma-basis matrix; see test below.)
    ch = k_object("SIGMA21").ch_plain
    assert ch.coeffs == (2, 3, 4, Fraction(3, 2))
    g = k_object("SIGMA21").ch_graded()
    assert sp.simplify(g.coeffs[1] - 6 * sp.I * sp.pi) == 0
    assert sp.simplify(g.coeffs[2] + 16 * sp.pi ** 2) == 0
    assert sp.simplify(g.coeffs[3] + 12 * sp.I * sp.pi ** 3) == 0


def test_displayed_schur_coefficient_breaks_integrality():
    # with ch_3 = 4 s21 (the -32 i pi^3 variant) the pairing chi(O, E) is
    # not an integer, so HRR rejects it
    fake = KObject(name="SIGMA21_displayed",
                   ch_plain=CohClass((Fraction(2), Fraction(3), Fraction(4), Fraction(4))))
    with pytest.raises(ArithmeticError):
        euler_pairing(k_object("O"), fake)


def test_euler_matrix_published():
    em = euler_matrix()
    assert em == reference.EULER_MATRIX_REF
    assert all(em[k][k] == 1 for k in range(4))
    # unipotent upper triangular
    assert all(em[j][k] == 0 for j in range(4) for k in range(j))


def test_euler_pairing_brute_force_oracle():
    # chi(O, O(1)) through an independent sympy expansion in powers of h
    # with h^3 integrating to 2
    h = sp.symbols("h")
    td = 1 + sp.Rational(3, 2) * h + sp.Rational(13, 12) * h ** 2 + sp.Rational(1, 2) * h ** 3
    ch = 1 + h + h ** 2 / 2 + h ** 3 / 6
    prod = sp.expand(td * ch)
    chi = 2 * prod.coeff(h, 3)
    assert chi == 5
    assert euler_pairing(k_object("O"), k_object("O1")) == 5
    # twisting by the polarization leaves pairings unchanged
    assert euler_pairing(k_object("O1"), k_object("O2")) == 5


def test_c_gamma_matrix_symbolic_and_numeric():
    cg = c_gamma_matrix()
    for i in range(4):
        for j in range(4):
            assert sp.simplify(cg[i, j] - oracles.C_GAMMA_REF[i, j]) == 0
    num = numeric_matrix(cg, dps=30)
    ref = reference.numeric(oracles.C_GAMMA_REF, dps=30)
    dev = max(abs(num[i][j] - ref[i][j]) for i in range(4) for j in range(4))
    assert dev <= 1e-10


def test_c_gamma_degree_zero_entries():
    # only the unit terms contribute in degree 0: i/(2 pi)^(3/2) x rank
    cg = c_gamma_matrix()
    pref = sp.I / (2 * sp.pi) ** sp.Rational(3, 2)
    ranks = [1, 1, 2, 1]
    for k in range(4):
        assert sp.simplify(cg[0, k] - pref * ranks[k]) == 0


def test_graded_character_multiplicative():
    # Ch of a tensor product is the cup product of the graded characters
    a = k_object("SIGMA21").ch_graded()
    b = k_object("WEDGE2").ch_graded()
    prod = classical_product(a, b)
    direct = k_object("E3").ch_graded()
    for j in range(4):
        assert sp.simplify(prod.coeffs[j] - direct.coeffs[j]) == 0


def test_collection_is_built_once_per_process():
    assert collection() is collection()


def test_collection_objects():
    Es = collection()
    assert [E.name for E in Es] == ["E1", "E2", "E3", "E4"]
    # E1 = O(1), E2 = O(2), E4 = O(3) as Chern characters
    assert Es[0].ch_plain.coeffs == k_object("O1").ch_plain.coeffs
    assert Es[1].ch_plain.coeffs == k_object("O2").ch_plain.coeffs
    assert Es[3].ch_plain.coeffs[1] == 3


def test_gamma_class_refuses_an_unknown_sign():
    assert gamma_class(1).coeffs != gamma_class(-1).coeffs
    for sign in (0, 2, "-", "+", "minus", "", None):
        with pytest.raises(ValueError, match="sign"):
            gamma_class(sign)


def _hrr_by_class_products(E, F):
    # chi(E, F) = integral of ch(E)^dual ch(F) td, by two class products
    dual = CohClass(tuple(c if d % 2 == 0 else -c for d, c in enumerate(E.ch_plain.coeffs)))
    return integral(classical_product(classical_product(dual, F.ch_plain), todd_class()))


def test_euler_pairing_equals_the_class_products():
    names = ("O", "O1", "O2", "SIGMA21", "WEDGE2", "E1", "E2", "E3", "E4")
    for E in map(k_object, names):
        for F in map(k_object, names):
            assert euler_pairing(E, F) == _hrr_by_class_products(E, F), (E.name, F.name)
