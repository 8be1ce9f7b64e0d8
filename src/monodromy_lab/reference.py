"""Known closed-form monodromy data of the quantum cohomology of LG(2,4).

These are the published reference values the pipeline is expected to
reproduce: the Stokes matrix before and after triangularization, the
permutation of canonical coordinates, the Euler matrix of the twisted
exceptional collection, and the central connection / Gamma-basis matrices
whose entries are exact expressions in EulerGamma, pi and zeta(3).

The closed forms are written once, in ``_published``, over any exact scalar
type.  The pipeline reads them as ``closedform.ClosedForm`` numerators over
D = 2 sqrt(2) pi^(3/2) (``C_REF_NUMERATORS``, ``C_GAMMA_REF_NUMERATORS``);
the sympy forms ``GAMMA_MINUS_REF``, ``C_REF`` and ``C_GAMMA_REF`` are test
oracles, built on first access, and only they import sympy.
"""

from __future__ import annotations

import functools
from fractions import Fraction as _F

from monodromy_lab import closedform

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


def _published(g, pi, z3, I):
    """(GammaHat^- over (s0, s1, s2, s21), the numerators of C = C' P^(-1)
    over D, the numerators of C_Gamma over D) for the Euler constant g, pi,
    zeta(3) and the imaginary unit I of one exact scalar type."""
    gamma_minus = (
        1,
        3 * g,
        (54 * g ** 2 + pi ** 2) / 6,
        (-4 * z3 + 18 * g ** 3 + g * pi ** 2) / 2,
    )
    c = (
        (I, 2 * I, -I, I),
        (pi + 3 * I * g, 6 * I * g, pi - 3 * I * g, -3 * (pi - I * g)),
        (
            (54 * I * g ** 2 + 36 * g * pi - 5 * I * pi ** 2) / 6,
            2 * I * (54 * g ** 2 + 7 * pi ** 2) / 6,
            (-54 * I * g ** 2 + 36 * g * pi + 5 * I * pi ** 2) / 6,
            I * (54 * g ** 2 + 108 * I * g * pi - 53 * pi ** 2) / 6,
        ),
        (
            -(12 * I * z3 - 54 * I * g ** 3 - 54 * g ** 2 * pi + 15 * I * g * pi ** 2 + pi ** 3) / 6,
            6 * I * (-4 * z3 + 18 * g ** 3 + 7 * g * pi ** 2) / 6,
            (12 * I * z3 + (pi - 3 * I * g) * (18 * g ** 2 + 12 * I * g * pi - pi ** 2)) / 6,
            (-4 * I * z3 + 18 * I * g ** 3 - 54 * g ** 2 * pi - 53 * I * g * pi ** 2 + 17 * pi ** 3) * 3 / 6,
        ),
    )
    c_gamma = (
        (I, I, 2 * I, I),
        (pi + 3 * I * g, -(pi - 3 * I * g), 2 * (-2 * pi + 3 * I * g), -3 * (pi - I * g)),
        (
            (54 * I * g ** 2 + 36 * g * pi - 5 * I * pi ** 2) / 6,
            I * (54 * g ** 2 + 36 * I * g * pi - 5 * pi ** 2) / 6,
            2 * I * (54 * g ** 2 + 72 * I * g * pi - 17 * pi ** 2) / 6,
            I * (54 * g ** 2 + 108 * I * g * pi - 53 * pi ** 2) / 6,
        ),
        (
            -(12 * I * z3 - 54 * I * g ** 3 - 54 * g ** 2 * pi + 15 * I * g * pi ** 2 + pi ** 3) / 6,
            (-12 * I * z3 + 54 * I * g ** 3 - 54 * g ** 2 * pi - 15 * I * g * pi ** 2 + pi ** 3) / 6,
            (2 * (pi ** 3 - 6 * I * z3) + 54 * I * g ** 3 - 108 * g ** 2 * pi - 51 * I * g * pi ** 2) * 2 / 6,
            (-4 * I * z3 + 18 * I * g ** 3 - 54 * g ** 2 * pi - 53 * I * g * pi ** 2 + 17 * pi ** 3) * 3 / 6,
        ),
    )
    return gamma_minus, c, c_gamma


_, C_REF_NUMERATORS, C_GAMMA_REF_NUMERATORS = _published(
    closedform.EULER_GAMMA, closedform.PI, closedform.ZETA3, closedform.I)


@functools.lru_cache(maxsize=None)
def _sympy_references():
    import sympy as sp

    gamma_minus, c, c_gamma = _published(sp.EulerGamma, sp.pi, sp.zeta(3), sp.I)
    return {
        "GAMMA_MINUS_REF": gamma_minus,
        "C_REF": closedform.sympy_over_d(c),
        "C_GAMMA_REF": closedform.sympy_over_d(c_gamma),
    }


def __getattr__(name):
    """GAMMA_MINUS_REF, C_REF and C_GAMMA_REF: the sympy forms."""
    if name in ("GAMMA_MINUS_REF", "C_REF", "C_GAMMA_REF"):
        return _sympy_references()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: printed matrix coefficients of the z=0 calibration, z^1 through z^7
#: (sparse: omitted entries are zero)
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
    """sympy matrix -> nested lists of hardware complex, each entry
    evaluated by sympy at ``dps`` digits (imports sympy)."""
    import sympy as sp

    return [[complex(sp.N(M[i, j], dps)) for j in range(M.cols)] for i in range(M.rows)]
