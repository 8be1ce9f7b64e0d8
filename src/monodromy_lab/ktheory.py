"""Characteristic-class side: Chern data, Gamma class, Chern characters,
Euler matrix, and the Gamma-basis matrix C_Gamma for LG(2,4).

LG(2,4) is the 3-dimensional quadric, so c(TX) = (1+h)^5/(1+2h) with
h = s1 the hyperplane class (h^2 = 2 s2, h^3 = 2 s21, integral of h^3 = 2).
The exceptional collection used on the derived-category side is
(O, O(1), Sigma^(2,1)U*, O(2)) twisted by wedge^2 U* = O(1), where U is the
tautological subbundle; for rank-2 U*, Sigma^(2,1)U* = U* tensor det U*, so
all Chern characters reduce to ch(U*) = 2 + s1 - (1/6) s21 and line-bundle
exponentials.

Two Chern-character normalizations coexist and are kept in separate fields:
the plain one (ch = sum e^tau) feeding Hirzebruch-Riemann-Roch, and the
2 pi i scaled one (Ch = sum e^(2 pi i tau)) entering C_Gamma; mixing them is
the classic implementation bug.  Euler pairings are computed exactly, in
integers, from one integer bilinear form of the Todd class; the Gamma
class, the graded characters and C_Gamma are exact ``closedform.ClosedForm``
polynomials in EulerGamma, pi and zeta(3), made numeric only at the end.
GammaHat^- enters C_Gamma; GammaHat^+ is also block 0 of the residue
series (``solutions.gamma_coordinates``).  ``c_gamma_matrix`` and
``numeric_matrix`` are sympy test oracles, kept here under the names that
``benchmarks/tracing.py`` traces; each imports sympy only when called, and
no subcommand calls them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from monodromy_lab import closedform, reference
from monodromy_lab.closedform import EULER_GAMMA, I, PI, ZETA3
from monodromy_lab.ring import (
    CohClass,
    DEGREES,
    SIGMA_1,
    classical_product,
    structure_constant,
)

H = SIGMA_1  # hyperplane class


def _exp_nilpotent(x):
    """exp of a degree >= 1 class (truncates at degree 3)."""
    acc = CohClass((x[0] * 0 + 1, x[1] * 0, x[2] * 0, x[3] * 0))
    term = acc
    for k in (1, 2, 3):
        term = classical_product(term, x)
        acc = acc + term.scaled(Fraction(1, (1, 1, 2, 6)[k]))
    return acc


class ChernData(NamedTuple):
    """The Chern classes c1..c3 of the tangent bundle and the power sums
    p1..p3.  A NamedTuple, not a dataclass: see ``monodromy_lab.record``."""

    c1: CohClass
    c2: CohClass
    c3: CohClass
    p1: CohClass
    p2: CohClass
    p3: CohClass


@functools.cache
def chern_data():
    """Chern classes of the tangent bundle from c(T) = (1+h)^5 (1+2h)^(-1),
    truncated at degree 3, plus the Newton power sums."""
    one = CohClass((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    a = one
    pw = one
    for _ in range(5):
        pw = classical_product(pw, one + H)
    # (1 + 2h)^(-1) = 1 - 2h + 4h^2 - 8h^3 by the geometric series
    inv = one
    t = one
    for _ in range(3):
        t = classical_product(t, H.scaled(Fraction(-2)))
        inv = inv + t
    total = classical_product(pw, inv)
    c1 = CohClass((Fraction(0), total[1], Fraction(0), Fraction(0)))
    c2 = CohClass((Fraction(0), Fraction(0), total[2], Fraction(0)))
    c3 = CohClass((Fraction(0), Fraction(0), Fraction(0), total[3]))
    p1 = c1
    p2 = classical_product(c1, c1) - c2.scaled(Fraction(2))
    p3 = (
        classical_product(classical_product(c1, c1), c1)
        - classical_product(c1, c2).scaled(Fraction(3))
        + c3.scaled(Fraction(3))
    )
    return ChernData(c1=c1, c2=c2, c3=c3, p1=p1, p2=p2, p3=p3)


@functools.cache
def todd_class():
    """Td = 1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24, exact."""
    cd = chern_data()
    one = CohClass((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    c1sq = classical_product(cd.c1, cd.c1)
    return (
        one
        + cd.c1.scaled(Fraction(1, 2))
        + (c1sq + cd.c2).scaled(Fraction(1, 12))
        + classical_product(cd.c1, cd.c2).scaled(Fraction(1, 24))
    )


# -- K objects ---------------------------------------------------------------

_CH_U_DUAL = CohClass((Fraction(2), Fraction(1), Fraction(0), Fraction(-1, 6)))


class KObject(NamedTuple):
    """An object given by its plain Chern character in the Schubert basis.
    A NamedTuple, not a dataclass: see ``monodromy_lab.record``."""

    name: str
    ch_plain: CohClass

    def ch_graded(self):
        """2 pi i scaled Chern character, exact (ClosedForm coefficients)."""
        two_pi_i = 2 * PI * I
        return CohClass(tuple(c * two_pi_i ** d for c, d in zip(self.ch_plain.coeffs, DEGREES)))


def _line_bundle_ch(k):
    expo = H.scaled(Fraction(k))
    return _exp_nilpotent(expo)


def k_object(name):
    """Named objects: O, O1, O2, SIGMA21, WEDGE2 and the twisted E1..E4.

    SIGMA21 is the Schur power Sigma^(2,1)U* = U* tensor wedge^2 U*;
    WEDGE2 = wedge^2 U* = O(1); E_k are the first four twisted by WEDGE2.
    """
    base = {
        "O": lambda: _line_bundle_ch(0),
        "O1": lambda: _line_bundle_ch(1),
        "O2": lambda: _line_bundle_ch(2),
        "WEDGE2": lambda: _line_bundle_ch(1),
        "SIGMA21": lambda: classical_product(_CH_U_DUAL, _line_bundle_ch(1)),
    }
    if name in base:
        return KObject(name=name, ch_plain=base[name]())
    if name in ("E1", "E2", "E3", "E4"):
        untwisted = ("O", "O1", "SIGMA21", "O2")[int(name[1]) - 1]
        tw = classical_product(k_object(untwisted).ch_plain, _line_bundle_ch(1))
        return KObject(name=name, ch_plain=tw)
    raise ValueError(f"unknown K object {name!r}")


@functools.cache
def collection():
    """The twisted full exceptional collection (E1, E2, E3, E4), built once
    per process (immutable)."""
    return tuple(k_object(f"E{k}") for k in (1, 2, 3, 4))


def graded_chern_character(obj):
    """Ch(V) = sum e^(2 pi i tau_j) as an exact ClosedForm-coefficient class."""
    if isinstance(obj, str):
        obj = k_object(obj)
    return obj.ch_graded()


# -- Euler pairing -----------------------------------------------------------

def _over_one_denominator(cls):
    """(n, den): the exact coefficients of a class as integers n over den."""
    coeffs = [Fraction(c) for c in cls.coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@functools.cache
def _euler_form():
    """(B, den): integers with B[a][b] / den = integral of s_a^dual s_b td,
    that is (-1)^deg(a) <s_a s_b, td> by the classical structure constants,
    so chi(E, F) = sum_ab ch(E)_a ch(F)_b B[a][b] / den; built once per
    process."""
    t, den = _over_one_denominator(todd_class())
    return tuple(tuple((-1) ** DEGREES[a] * sum(structure_constant(a, b, c)[0] * t[3 - c]
                                                for c in range(4))
                       for b in range(4)) for a in range(4)), den


def euler_pairing(E, F):
    """chi(E, F) by Hirzebruch-Riemann-Roch, exact: the integer form of
    ``_euler_form`` between the two plain characters, each over one
    denominator."""
    B, den = _euler_form()
    (e, de), (f, df) = _over_one_denominator(E.ch_plain), _over_one_denominator(F.ch_plain)
    num = sum(ea * sum(Bab * fb for Bab, fb in zip(row, f)) for ea, row in zip(e, B) if ea)
    den *= de * df
    chi, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integer Euler pairing {Fraction(num, den)} "
                              f"for ({E.name}, {F.name})")
    return chi


def euler_matrix():
    """Integer matrix (chi(E_j, E_k)) of the twisted collection."""
    Es = collection()
    return tuple(tuple(euler_pairing(Es[j], Es[k]) for k in range(4)) for j in range(4))


# -- Gamma class and C_Gamma ---------------------------------------------------

def gamma_class(sign=-1):
    """The Gamma class written through power sums:

    GammaHat^- = exp(+EulerGamma p1 + zeta(2) p2/2 + zeta(3) p3/3),
    GammaHat^+ = exp(-EulerGamma p1 + zeta(2) p2/2 - zeta(3) p3/3),

    truncated at degree 3, with zeta(2) = pi^2/6; coefficients are exact
    ClosedForms.  ``sign`` is -1 or "-" for GammaHat^-, 1 or "+" for
    GammaHat^+; anything else raises ValueError."""
    if sign in (-1, "-"):
        s = -1
    elif sign in (1, "+"):
        s = 1
    else:
        raise ValueError(f"unknown Gamma class sign {sign!r}, expected -1, 1, '-' or '+'")
    cd = chern_data()
    expo = (
        cd.p1.scaled(-s * EULER_GAMMA)
        + cd.p2.scaled(PI ** 2 / 12)
        + cd.p3.scaled(-s * ZETA3 / 3)
    )
    return _exp_nilpotent(expo)


def c_gamma_numerators():
    """The Gamma-basis matrix times D = (2 pi)^(3/2): column k holds the
    coordinates of

        i GammaHat^- cup exp(-i pi c1) cup Ch(E_k)

    over (s0, s1, s2, s21), as exact ClosedForms (C_Gamma carries the
    prefactor i / (2 pi)^(3/2))."""
    twisted = classical_product(gamma_class(-1), _exp_nilpotent(chern_data().c1.scaled(-I * PI)))
    cols = [classical_product(twisted, E.ch_graded()).scaled(I) for E in collection()]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def c_gamma_matrix():
    """C_Gamma as an exact sympy matrix (a test oracle; imports sympy)."""
    return closedform.sympy_over_d(c_gamma_numerators())


#: ``reference.numeric``, a sympy matrix evaluated to hardware complex (a
#: test oracle), under the second name that ``benchmarks/tracing.py`` traces
numeric_matrix = reference.numeric
