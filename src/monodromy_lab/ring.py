"""The small quantum cohomology ring of LG(2,4) in the Schubert basis.

H*(LG(2,4)) is 4-dimensional with Schubert basis (s0, s1, s2, s21) of
degrees (0, 1, 2, 3) (half the cohomological degree); s0 is the unit and
s21 the point class.  The quantum products are

    s1*s1 = 2 s2          s1*s2  = q + s21       s1*s21 = q s1
    s2*s2 = q s1          s2*s21 = q s2          s21*s21 = q^2

and the Poincare pairing is the anti-diagonal unit matrix.  Structure
constants are stored as integer polynomials n0 + n1 q + n2 q^2 and
evaluated once per q into a table of constants, integers at an integer q (a
Fraction q of denominator 1 counts as one), so an exact product takes no
rational arithmetic of its own.  The coefficients of a class may be of any
ring scalar type (int, Fraction, complex, mpmath, ``closedform.ClosedForm``),
and so may q, so the same product code serves the exact recursions
downstream, the exact Gamma-class arithmetic and numeric checks.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from monodromy_lab.record import Record

DEGREES = (0, 1, 2, 3)

# quantum structure constants: _QTABLE[a][b] = {c: (n0, n1, n2)} meaning the
# coefficient of basis element c in e_a * e_b is n0 + n1 q + n2 q^2
_QTABLE = {
    (1, 1): {2: (2, 0, 0)},
    (1, 2): {0: (0, 1, 0), 3: (1, 0, 0)},
    (1, 3): {1: (0, 1, 0)},
    (2, 2): {1: (0, 1, 0)},
    (2, 3): {2: (0, 1, 0)},
    (3, 3): {0: (0, 0, 1)},
}

ETA = (
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (1, 0, 0, 0),
)


class CohClass(Record):
    """A cohomology class: coefficients over (s0, s1, s2, s21).  A
    ``Record``, not a dataclass: see ``monodromy_lab.record``."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        if len(coeffs) != 4:
            raise ValueError("CohClass needs exactly 4 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def basis(cls, index, one=Fraction(1)):
        return cls(tuple(one if j == index else one * 0 for j in range(4)))

    def __add__(self, other):
        return CohClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return CohClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, c):
        return CohClass(tuple(c * a for a in self.coeffs))

    def __getitem__(self, j):
        return self.coeffs[j]


SIGMA_0 = CohClass.basis(0)
SIGMA_1 = CohClass.basis(1)
SIGMA_2 = CohClass.basis(2)
SIGMA_21 = CohClass.basis(3)


def _table_row(a, b):
    """{c: (n0, n1, n2)}: the nonzero coefficients of e_a*e_b; s0 is the unit."""
    if a == 0:
        return {b: (1, 0, 0)}
    if b == 0:
        return {a: (1, 0, 0)}
    return _QTABLE[min(a, b), max(a, b)]


def structure_constant(a, b, c):
    """(n0, n1, n2): coefficient of e_c in e_a*e_b as n0 + n1 q + n2 q^2."""
    return _table_row(a, b).get(c, (0, 0, 0))


@functools.lru_cache(maxsize=None, typed=True)
def _product_table(q):
    """The nonzero structure constants at q: entry 4a + b lists (c, k) with
    k = n0 + n1 q + n2 q^2 != 0 the coefficient of e_c in e_a*e_b; built
    once per q (an integral Fraction q is read as its int)."""
    if isinstance(q, Fraction) and q.denominator == 1:
        q = q.numerator
    powers = (1, q, q * q)
    return tuple(tuple((c, k) for c, n in _table_row(a, b).items()
                       if (k := sum(m * p for m, p in zip(n, powers) if m)) != 0)
                 for a in range(4) for b in range(4))


def quantum_product(x, y, q=Fraction(1)):
    """Bilinear extension of the quantum multiplication table at parameter q.

    Only products that can contribute are formed: a zero x_a or y_b is
    skipped, the constants come from ``_product_table(q)``, and x_a y_b is
    formed only when some constant of (a, b) is nonzero."""
    out = [x[0] * 0 for _ in range(4)]
    table = _product_table(q)
    ys = [(b, yb) for b, yb in enumerate(y.coeffs) if yb != 0]
    for a, xa in enumerate(x.coeffs):
        if xa == 0:
            continue
        for b, yb in ys:
            consts = table[4 * a + b]
            if consts:
                prod = xa * yb
                for c, k in consts:
                    out[c] = out[c] + k * prod
    return CohClass(tuple(out))


def classical_product(x, y):
    """Cup product (the q = 0 specialization)."""
    return quantum_product(x, y, q=Fraction(0))


def pairing(x, y):
    """Poincare pairing <x, y> = coeffs(x)^T eta coeffs(y)."""
    total = x[0] * 0
    for a in range(4):
        total = total + x[a] * y[3 - a]
    return total


def integral(x):
    """Integration over LG(2,4): the s21 coefficient."""
    return x[3]


def matmul(A, B):
    """The product A B of two square matrices given as rows, each entry a
    sum of products in order over the entries' own scalar type: exact over
    ints and Fractions, the package's one exact matrix product."""
    columns = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in columns) for row in A)


def unipotent_inverse(M):
    """Exact inverse of a unipotent upper-triangular matrix of exact
    entries (int or Fraction), by back substitution: row i of M X = I gives
    X[i][j] = -sum_(i < t <= j) M[i][t] X[t][j].  Raises ValueError for any
    other matrix."""
    n = len(M)
    if any(M[i][j] != (i == j) for i in range(n) for j in range(i + 1)):
        raise ValueError("not a unipotent upper-triangular matrix")
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            out[i][j] = -sum(M[i][t] * out[t][j] for t in range(i + 1, j + 1))
    return tuple(tuple(row) for row in out)


def multiplication_matrix(x, q=Fraction(1)):
    """Matrix of quantum multiplication by x in the Schubert basis (columns
    are x * e_b)."""
    cols = [quantum_product(x, CohClass.basis(b), q=q) for b in range(4)]
    return tuple(tuple(cols[b][a] for b in range(4)) for a in range(4))


@functools.lru_cache(maxsize=None, typed=True)
def operator_matrices(q=Fraction(1)):
    """(mu, R, U): the grading operator, the classical c1-cup matrix, and the
    quantum multiplication by c1 = 3 s1 at the given q (immutable nested
    tuples, built once per q).

    mu = diag(-3/2, -1/2, 1/2, 3/2); R is nilpotent with subdiagonal
    (3, 6, 3); U is R's quantum deformation (Euler-field multiplication).
    """
    mu = tuple(
        tuple(Fraction(2 * a - 3, 2) if a == b else Fraction(0) for b in range(4))
        for a in range(4)
    )
    c1 = SIGMA_1.scaled(Fraction(3))
    R = multiplication_matrix(c1, q=Fraction(0))
    U = multiplication_matrix(c1, q=q)
    return mu, R, U
