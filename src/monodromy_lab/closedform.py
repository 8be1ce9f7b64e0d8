"""Exact closed forms: polynomials in the Euler constant, pi and zeta(3)
with Gaussian-rational coefficients.

The Gamma class, the graded Chern characters, the central connection
matrix C and the Gamma-basis matrix C_Gamma of LG(2,4) are all of this
kind, the two matrices over the common denominator D = 2 sqrt(2) pi^(3/2)
= (2 pi)^(3/2).  ``ClosedForm`` is exact ring arithmetic with ints,
Fractions and other ClosedForms, so ``ring.CohClass`` arithmetic runs over
it unchanged.

A form is stored as Gaussian integers over one denominator: each monomial
gamma^a pi^b zeta(3)^c maps to an integer pair (re, im), and one positive
integer ``den`` divides them all, reduced so that it shares no factor with
every numerator (the zero form has no monomials and den = 1).  So the
arithmetic is integer arithmetic, with one gcd per result, and two forms
are equal exactly when their monomials and denominators are; a sum or
product lists its monomials in the order they first appear.  ``evaluate``
turns a form into an engine number at the engine's precision; every
coefficient enters through ``Engine.complex`` (and so ``Engine.real``) as
the exact rationals re/den and im/den, never as a raw float operand.

``str`` writes a form in sympy's syntax, which is the text of the
``gamma`` report.  sympy is a test-only dependency: it sees a ClosedForm
through ``_sympy_``, and ``sympy_over_d`` builds the test oracles'
matrices; each imports sympy only when called.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


class ClosedForm:
    """sum of (re + i im)/den * gamma^a pi^b zeta(3)^c over ``terms``, which
    maps the exponents (a, b, c) to the integer pair (re, im); no stored
    pair is (0, 0), and ``den`` is positive and reduced (see the module
    docstring).  The constructor takes any nonzero integer ``den`` and
    normalizes.  Treat as immutable."""

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den=1):
        if not den:
            raise ZeroDivisionError("ClosedForm with denominator 0")
        terms = {k: v for k, v in (terms or {}).items() if v[0] or v[1]}
        g = math.gcd(den, *itertools.chain.from_iterable(terms.values()))
        if den < 0:
            g = -g  # dividing by it makes den positive
        if g != 1:
            den //= g
            terms = {k: (re // g, im // g) for k, (re, im) in terms.items()}
        self.terms = terms
        self.den = den

    @classmethod
    def constant(cls, re, im=0):
        re, im = Fraction(re), Fraction(im)
        return cls({(0, 0, 0): (re.numerator * im.denominator, im.numerator * re.denominator)},
                   re.denominator * im.denominator)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        g = math.gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        terms = {k: (re * m1, im * m1) for k, (re, im) in self.terms.items()}
        for k, (re, im) in other.terms.items():
            re0, im0 = terms.get(k, (0, 0))
            terms[k] = (re0 + re * m2, im0 + im * m2)
        return ClosedForm(terms, self.den * m1)

    __radd__ = __add__

    def __neg__(self):
        return ClosedForm({k: (-re, -im) for k, (re, im) in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        terms = {}
        for (a, b, c), (re1, im1) in self.terms.items():
            for (d, e, f), (re2, im2) in other.terms.items():
                k = (a + d, b + e, c + f)
                re0, im0 = terms.get(k, (0, 0))
                terms[k] = (re0 + re1 * re2 - im1 * im2, im0 + re1 * im2 + im1 * re2)
        return ClosedForm(terms, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ClosedForm.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __repr__(self):
        return f"ClosedForm({self.terms!r}, den={self.den})"

    def __str__(self):
        """sympy's syntax for the polynomial: monomials by (degree, exponents)
        ascending, each real part before its I part, so the text depends
        only on the value."""
        terms = []
        for exponents in sorted(self.terms, key=lambda k: (sum(k), k)):
            monomial = [f"{name}**{k}" if k > 1 else name
                        for name, k in zip(_NAMES, exponents) if k]
            for unit, n in zip(([], ["I"]), self.terms[exponents]):
                if n:
                    q = Fraction(n, self.den)
                    factors = unit + monomial
                    if abs(q.numerator) != 1 or not factors:
                        factors = [str(abs(q.numerator)), *factors]
                    text = "*".join(factors)
                    if q.denominator != 1:
                        text += f"/{q.denominator}"
                    terms.append(("- " if q < 0 else "+ ") + text)
        text = " ".join(terms) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def _sympy_(self):
        """The same polynomial as an expanded sympy expression."""
        import sympy as sp

        bases = (sp.EulerGamma, sp.pi, sp.zeta(3))
        out = []
        for exponents, (re, im) in self.terms.items():
            monomial = sp.Mul(*(base ** k for base, k in zip(bases, exponents)))
            out.append(sp.Rational(re, self.den) * monomial)
            out.append(sp.I * sp.Rational(im, self.den) * monomial)
        return sp.Add(*out)


#: the names sympy reads for gamma, pi and zeta(3)
_NAMES = ("EulerGamma", "pi", "zeta(3)")


def _lift(x):
    if isinstance(x, ClosedForm):
        return x
    if isinstance(x, int):
        return ClosedForm({(0, 0, 0): (x, 0)})
    if isinstance(x, Fraction):
        return ClosedForm({(0, 0, 0): (x.numerator, 0)}, x.denominator)
    return None


EULER_GAMMA = ClosedForm({(1, 0, 0): (1, 0)})
PI = ClosedForm({(0, 1, 0): (1, 0)})
ZETA3 = ClosedForm({(0, 0, 1): (1, 0)})
I = ClosedForm.constant(0, 1)


@functools.lru_cache(maxsize=None)
def _bases(engine):
    return engine.euler, engine.pi, engine.zeta(3)


def evaluate(x, engine):
    """A ClosedForm as an engine number, at the engine's precision."""
    bases = _bases(engine)
    total = engine.complex(0)
    den = x.den
    for exponents, (re, im) in x.terms.items():
        term = engine.complex(Fraction(re, den), Fraction(im, den))
        for base, k in zip(bases, exponents):
            if k:
                term *= base ** k
        total += term
    return total


def evaluate_over_d(rows, engine):
    """The matrix rows[i][j] / D in the engine, as nested tuples."""
    pi = engine.pi
    d = 2 * engine.sqrt(engine.real(2)) * pi * engine.sqrt(pi)
    return tuple(tuple(evaluate(x, engine) / d for x in row) for row in rows)


def sympy_over_d(rows):
    """The matrix rows[i][j] / D as an expanded sympy matrix."""
    import sympy as sp

    d = 2 * sp.sqrt(2) * sp.pi ** sp.Rational(3, 2)
    return sp.Matrix([[sp.expand(sp.sympify(x) / d) for x in row] for row in rows])
