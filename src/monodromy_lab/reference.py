"""Known closed-form monodromy data of the quantum cohomology of LG(2,4).

These are the published reference values the pipeline is expected to
reproduce: the Stokes matrix before and after triangularization, the
permutation of canonical coordinates, the Euler matrix of the twisted
exceptional collection, and the central connection / Gamma-basis matrices
whose entries are exact expressions in EulerGamma, pi and zeta(3).
"""

from __future__ import annotations

import sympy as sp

g = sp.EulerGamma
pi = sp.pi
z3 = sp.zeta(3)
I = sp.I

#: common denominator of all transcendental entries
_D = 2 * sp.sqrt(2) * pi ** sp.Rational(3, 2)

S_PRIME_REF = (
    (1, 4, 4, 0),
    (0, 1, 0, 0),
    (0, 5, 1, 0),
    (-4, -5, -11, 1),
)

P_REF = (
    (0, 0, 0, 1),
    (1, 0, 0, 0),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
)

S_REF = (
    (1, -4, -11, -5),
    (0, 1, 4, 4),
    (0, 0, 1, 5),
    (0, 0, 0, 1),
)

EULER_MATRIX_REF = (
    (1, 5, 16, 14),
    (0, 1, 4, 5),
    (0, 0, 1, 4),
    (0, 0, 0, 1),
)

#: Gamma class coefficients over (s0, s1, s2, s21)
GAMMA_MINUS_REF = (
    sp.Integer(1),
    3 * g,
    sp.Rational(1, 6) * (54 * g ** 2 + pi ** 2),
    sp.Rational(1, 2) * (-4 * z3 + 18 * g ** 3 + g * pi ** 2),
)

#: central connection matrix C = C' P^(-1), exact entries
C_REF = sp.Matrix(
    [
        [
            I / _D,
            2 * I / _D,
            -I / _D,
            I / _D,
        ],
        [
            (pi + 3 * I * g) / _D,
            6 * I * g / _D,
            (pi - 3 * I * g) / _D,
            -3 * (pi - I * g) / _D,
        ],
        [
            (54 * I * g ** 2 + 36 * g * pi - 5 * I * pi ** 2) / (6 * _D),
            2 * I * (54 * g ** 2 + 7 * pi ** 2) / (6 * _D),
            (-54 * I * g ** 2 + 36 * g * pi + 5 * I * pi ** 2) / (6 * _D),
            I * (54 * g ** 2 + 108 * I * g * pi - 53 * pi ** 2) / (6 * _D),
        ],
        [
            -(12 * I * z3 - 54 * I * g ** 3 - 54 * g ** 2 * pi + 15 * I * g * pi ** 2 + pi ** 3) / (6 * _D),
            6 * I * (-4 * z3 + 18 * g ** 3 + 7 * g * pi ** 2) / (6 * _D),
            (12 * I * z3 + (pi - 3 * I * g) * (18 * g ** 2 + 12 * I * g * pi - pi ** 2)) / (6 * _D),
            (-4 * I * z3 + 18 * I * g ** 3 - 54 * g ** 2 * pi - 53 * I * g * pi ** 2 + 17 * pi ** 3) * 3 / (6 * _D),
        ],
    ]
)

#: Gamma-basis matrix C_Gamma, exact entries
C_GAMMA_REF = sp.Matrix(
    [
        [
            I / _D,
            I / _D,
            2 * I / _D,
            I / _D,
        ],
        [
            (pi + 3 * I * g) / _D,
            -(pi - 3 * I * g) / _D,
            2 * (-2 * pi + 3 * I * g) / _D,
            -3 * (pi - I * g) / _D,
        ],
        [
            (54 * I * g ** 2 + 36 * g * pi - 5 * I * pi ** 2) / (6 * _D),
            I * (54 * g ** 2 + 36 * I * g * pi - 5 * pi ** 2) / (6 * _D),
            2 * I * (54 * g ** 2 + 72 * I * g * pi - 17 * pi ** 2) / (6 * _D),
            I * (54 * g ** 2 + 108 * I * g * pi - 53 * pi ** 2) / (6 * _D),
        ],
        [
            -(12 * I * z3 - 54 * I * g ** 3 - 54 * g ** 2 * pi + 15 * I * g * pi ** 2 + pi ** 3) / (6 * _D),
            (-12 * I * z3 + 54 * I * g ** 3 - 54 * g ** 2 * pi - 15 * I * g * pi ** 2 + pi ** 3) / (6 * _D),
            (2 * (pi ** 3 - 6 * I * z3) + 54 * I * g ** 3 - 108 * g ** 2 * pi - 51 * I * g * pi ** 2) * 2 / (6 * _D),
            (-4 * I * z3 + 18 * I * g ** 3 - 54 * g ** 2 * pi - 53 * I * g * pi ** 2 + 17 * pi ** 3) * 3 / (6 * _D),
        ],
    ]
)


#: printed matrix coefficients of the z=0 calibration, z^1 through z^7
#: (sparse: omitted entries are zero)
from fractions import Fraction as _F

PHI_TOP_REF = {
    1: {(0, 2): _F(1), (1, 3): _F(1)},
    2: {(0, 1): _F(-2), (2, 3): _F(2)},
    3: {(0, 0): _F(2), (1, 1): _F(-2), (2, 2): _F(-2), (3, 3): _F(2), (0, 3): _F(1)},
    4: {(0, 2): _F(-3, 2), (1, 0): _F(4), (1, 3): _F(3, 2), (3, 2): _F(-4)},
    5: {(0, 1): _F(3, 2), (1, 2): _F(-7, 2), (2, 0): _F(8), (2, 3): _F(3, 2),
        (3, 1): _F(8)},
    6: {(0, 0): _F(13, 4), (0, 3): _F(1, 2), (1, 1): _F(33, 4), (2, 2): _F(-17, 4),
        (3, 3): _F(3, 4)},
    7: {(0, 2): _F(-19, 12), (1, 0): _F(-5, 2), (1, 3): _F(5, 12), (2, 1): _F(25, 2),
        (3, 2): _F(-5, 2)},
}

#: the braid identification: one inverse elementary letter plus signs
EXPECTED_BRAID_LABELS = ["b23_inverse"]
EXPECTED_SIGNS = (1, -1, -1, 1)


def numeric(M, dps=30):
    """sympy matrix -> nested lists of hardware complex."""
    return [[complex(sp.N(M[i, j], dps)) for j in range(M.cols)] for i in range(M.rows)]
