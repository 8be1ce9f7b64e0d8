"""Quantum cohomology ring of LG(2,4): multiplication table, pairing,
operator matrices, and the ring presentation."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from monodromy_lab.closedform import EULER_GAMMA, I, PI, ZETA3
from monodromy_lab.ring import (
    CohClass,
    SIGMA_0,
    SIGMA_1,
    SIGMA_2,
    SIGMA_21,
    ETA,
    classical_product,
    operator_matrices,
    pairing,
    quantum_product,
    structure_constant,
)

BASIS = [SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_21]


def test_table_examples():
    # s1 * s2 at q=1 is unit + point class
    assert quantum_product(SIGMA_1, SIGMA_2, q=Fraction(1)).coeffs == (1, 0, 0, 1)
    # s21 * s21 = q^2 -> unit at q=1
    assert quantum_product(SIGMA_21, SIGMA_21, q=Fraction(1)).coeffs == (1, 0, 0, 0)
    assert quantum_product(SIGMA_1, SIGMA_1, q=Fraction(7)).coeffs == (0, 0, 2, 0)


def test_unit_element():
    rng = random.Random(7)
    for _ in range(5):
        x = CohClass(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
        for q in (Fraction(0), Fraction(1), Fraction(3, 2)):
            assert quantum_product(SIGMA_0, x, q=q).coeffs == x.coeffs
            assert quantum_product(x, SIGMA_0, q=q).coeffs == x.coeffs


def test_pairing_examples_and_symmetry():
    assert pairing(SIGMA_1, SIGMA_2) == 1
    assert pairing(SIGMA_0, SIGMA_0) == 0
    assert pairing(SIGMA_0, SIGMA_21) == 1
    rng = random.Random(11)
    for _ in range(10):
        a = CohClass(tuple(Fraction(rng.randint(-5, 5)) for _ in range(4)))
        b = CohClass(tuple(Fraction(rng.randint(-5, 5)) for _ in range(4)))
        assert pairing(a, b) == pairing(b, a)


def test_eta_is_antidiagonal_unit():
    for i in range(4):
        for j in range(4):
            assert ETA[i][j] == (1 if i + j == 3 else 0)


def test_quantum_table_specializes_to_classical():
    # classical relations induced by x1^2 = 2 x2, x2^2 = 0
    assert classical_product(SIGMA_1, SIGMA_1).coeffs == (0, 0, 2, 0)
    assert classical_product(SIGMA_2, SIGMA_2).coeffs == (0, 0, 0, 0)


def test_operator_matrices_printed_values():
    mu, R, U = operator_matrices(q=Fraction(1))
    assert [mu[i][i] for i in range(4)] == [
        Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    assert R == ((0, 0, 0, 0), (3, 0, 0, 0), (0, 6, 0, 0), (0, 0, 3, 0))
    assert U == ((0, 0, 3, 0), (3, 0, 0, 3), (0, 6, 0, 0), (0, 0, 3, 0))


def _matmul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))


def test_R_nilpotency():
    _, R, _ = operator_matrices()
    R2 = _matmul(R, R)
    R3 = _matmul(R2, R)
    R4 = _matmul(R3, R)
    assert any(x != 0 for row in R3 for x in row)
    assert all(x == 0 for row in R4 for x in row)


def test_mu_R_commutator():
    # R raises degree by one: [mu, R] = R, exactly
    mu, R, _ = operator_matrices()
    comm = tuple(
        tuple(
            sum(mu[i][k] * R[k][j] - R[i][k] * mu[k][j] for k in range(4))
            for j in range(4)
        )
        for i in range(4)
    )
    assert comm == R


def test_associativity_all_triples():
    for q in (Fraction(0), Fraction(1), Fraction(2)):
        for a in BASIS:
            for b in BASIS:
                for c in BASIS:
                    left = quantum_product(quantum_product(a, b, q), c, q)
                    right = quantum_product(a, quantum_product(b, c, q), q)
                    assert left.coeffs == right.coeffs


def test_frobenius_property_all_triples():
    for q in (Fraction(0), Fraction(1), Fraction(2)):
        _frobenius_at(q)


def _frobenius_at(q):
    for a in BASIS:
        for b in BASIS:
            for c in BASIS:
                assert pairing(quantum_product(a, b, q), c) == pairing(a, quantum_product(b, c, q))


def test_semisimple_at_q1():
    # char poly of U at q=1 is l^4 - 108 l, with four distinct roots
    _, _, U = operator_matrices(q=Fraction(1))
    lam = sp.symbols("lam")
    M = sp.Matrix(4, 4, lambda i, j: sp.Rational(U[i][j]))
    poly = sp.expand((lam * sp.eye(4) - M).det())
    assert sp.simplify(poly - (lam ** 4 - 108 * lam)) == 0
    roots = sp.roots(sp.Poly(poly, lam))
    assert sum(roots.values()) == 4 and all(m == 1 for m in roots.values())


def test_ring_presentation():
    # sigma1 -> x1, sigma2 -> x1^2/2, sigma21 -> x1^3/2 - q reproduces the
    # table modulo the ideal <x1^2 - 2 x2, x2^2 - q x1>; after eliminating
    # x2 the relation is x1^4 = 4 q x1.
    x1, q = sp.symbols("x1 q")
    images = [sp.Integer(1), x1, x1 ** 2 / 2, x1 ** 3 / 2 - q]
    modulus = x1 ** 4 - 4 * q * x1

    def reduce(p):
        return sp.rem(sp.expand(p), modulus, x1)

    for a in range(4):
        for b in range(4):
            prod = quantum_product(CohClass.basis(a), CohClass.basis(b), q=q)
            image = sum(sp.nsimplify(c) * images[k] for k, c in enumerate(prod.coeffs))
            direct = images[a] * images[b]
            assert sp.simplify(reduce(direct - image)) == 0


def _dense_product(x, y, q):
    # sum_(a,b,c) x_a y_b n_abc(q) e_c over every triple, zeros included
    out = [0] * 4
    for a in range(4):
        for b in range(4):
            for c in range(4):
                n0, n1, n2 = structure_constant(a, b, c)
                out[c] = out[c] + x[a] * y[b] * (n0 + n1 * q + n2 * q * q)
    return out


def _random_classes(rng, closed_form):
    # each coefficient is zero with probability 1/3
    def coefficient():
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * (rng.random() > 1 / 3)
        if not closed_form:
            return c
        return c * rng.choice((1, I, PI, EULER_GAMMA * I, ZETA3 + PI * PI))
    return [CohClass(tuple(coefficient() for _ in range(4))) for _ in range(12)]


@pytest.mark.parametrize("closed_form", (False, True), ids=("fraction", "closedform"))
@pytest.mark.parametrize("q", (0, 1, Fraction(1, 3)), ids=("q0", "q1", "q_third"))
def test_quantum_product_equals_the_dense_bilinear_sum(q, closed_form):
    rng = random.Random(29)
    classes = _random_classes(rng, closed_form) + BASIS + [CohClass((0, 0, 0, 0))]
    for x in classes:
        for y in classes:
            assert list(quantum_product(x, y, q=q).coeffs) == _dense_product(x, y, q)
            if q == 0:
                assert list(classical_product(x, y).coeffs) == _dense_product(x, y, q)


def test_product_table_is_built_once_per_q_with_integer_constants():
    from monodromy_lab.ring import _product_table

    for q in (0, 1, Fraction(1), Fraction(2)):
        table = _product_table(q)
        assert _product_table(q) is table
        assert all(type(k) is int for row in table for _, k in row), q
    assert _product_table(Fraction(1)) == _product_table(1)
    assert _product_table(Fraction(1, 3))[4 * 1 + 2] == ((0, Fraction(1, 3)), (3, 1))
    # q may be any scalar type
    assert quantum_product(SIGMA_1, SIGMA_2, q=2j).coeffs == (2j, 0, 0, 1)
