"""Scalar arithmetic backends.

Everything analytic in this package (Gamma evaluation, contour quadrature,
log-series summation, fundamental-matrix assembly) is written against a
small engine object instead of raw ``complex``, so the working precision is
a swappable parameter:

* ``double`` -- hardware complex arithmetic via mpmath's ``fp`` context.
* ``mp`` -- arbitrary precision via a private ``MPContext``.  Needed where
  double precision cannot survive the cancellation, e.g. ratios against a
  recessive exponential at |z| ~ 10, where the log-series terms exceed the
  sum by 35+ orders of magnitude.

Both are the same ``Engine`` class over a different context; Gamma, pi,
the Euler constant and zeta come from the context in either.

Engines are interned, so series caches can key on them; every computation
takes its engine from its caller, and a run's from ``pipeline.RunConfig``.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import from_int, mpf_div, round_nearest


class Engine:
    """A scalar backend: a name, an mpmath-style context and its digits."""

    def __init__(self, name, ctx, dps):
        self.name = name
        self.ctx = ctx
        self.dps = dps
        self.eps = float(mpmath.mpf(10) ** (-dps))

    # -- conversions ---------------------------------------------------

    def real(self, x):
        """Convert int/float/Fraction/str to the context's real type, exactly
        where the input is exact.  A Fraction is rounded once, to nearest,
        however wide its numerator and denominator."""
        if isinstance(x, Fraction):
            if self.ctx is mpmath.fp:
                return float(x)
            p, q = from_int(x.numerator), from_int(x.denominator)
            return self.ctx.make_mpf(mpf_div(p, q, self.ctx.prec, round_nearest))
        return self.ctx.mpf(x)

    def complex(self, x, y=0):
        if isinstance(x, Fraction) or isinstance(y, Fraction):
            return self.ctx.mpc(self.real(x), self.real(y))
        return self.ctx.mpc(x, y)

    # -- constants and elementary functions -----------------------------

    @property
    def pi(self):
        return +self.ctx.pi

    @property
    def euler(self):
        return +self.ctx.euler

    def zeta(self, n):
        return self.ctx.zeta(n)

    @property
    def i(self):
        return self.ctx.mpc(0, 1)

    def gamma(self, z):
        return self.ctx.gamma(z)

    def exp(self, z):
        return self.ctx.exp(z)

    def log(self, z):
        return self.ctx.log(z)

    def sqrt(self, z):
        return self.ctx.sqrt(z)

    def fabs(self, z):
        return float(abs(z))

    # -- linear algebra (4x4 scale, via the context's matrix type) ------

    def matrix(self, rows):
        m = self.ctx.matrix(len(rows), len(rows[0]))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m[i, j] = self.complex(v) if isinstance(v, Fraction) else v
        return m

    def eye(self, n):
        return self.ctx.eye(n)

    def solve(self, A, B):
        """Solve A X = B for matrix B: one LU factorization of A, then a
        triangular solve per column, all 10 bits above the working
        precision.  These are the steps of the context's ``lu_solve``, which
        would copy A and factor it again for every column."""
        ctx = self.ctx
        n = A.rows
        X = ctx.matrix(n, B.cols)
        prec = ctx.prec
        try:
            ctx.prec += 10
            LU, p = ctx.LU_decomp(A.copy(), overwrite=True)
            for j in range(B.cols):
                col = ctx.U_solve(LU, ctx.L_solve(LU, B[:, j], p))
                for i in range(n):
                    X[i, j] = col[i]
        finally:
            ctx.prec = prec
        return X

    def inverse(self, A):
        return A ** -1

    def quad(self, f, points):
        return self.ctx.quad(f, points)

    def max_abs(self, M):
        return max(float(abs(M[i, j])) for i in range(M.rows) for j in range(M.cols))

    def __repr__(self):
        return f"Engine({self.name!r}, dps={self.dps})"


_ENGINES = {}


def get_engine(name, dps=None):
    """Interned engine factory.  ``name`` is ``"double"`` or ``"mp"``; only
    mp reads ``dps``, and needs it."""
    key = (name, dps if name == "mp" else None)
    if key not in _ENGINES:
        if name == "double":
            # a double carries 15.95 significant digits: eps = 1e-16
            _ENGINES[key] = Engine("double", mpmath.fp, dps=16)
        elif name == "mp":
            if dps is None:
                raise ValueError("the mp engine needs dps, its number of digits")
            ctx = mpmath.ctx_mp.MPContext()
            ctx.dps = dps
            _ENGINES[key] = Engine("mp", ctx, dps=dps)
        else:
            raise ValueError(f"unknown engine {name!r}")
    return _ENGINES[key]
