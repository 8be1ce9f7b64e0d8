"""Scalar arithmetic backends.

Everything analytic in this package (log-series summation,
fundamental-matrix assembly, the 4x4 solves, the contour oracle) is written
against a small engine object instead of raw ``complex``, so the working
precision is a swappable parameter:

* ``double`` (``DoubleEngine``) -- 53 bits: the kernels run in exact
  integers cut to 53 + ``GUARD_BITS`` bits, and every number is a Python
  float or complex, with ``math`` and ``cmath`` for the elementary
  functions and the correctly rounded doubles of pi, the Euler constant
  and zeta(3).
* ``mp`` (``MPEngine``) -- arbitrary precision via a private mpmath
  ``MPContext``.  Needed where double precision cannot survive the
  cancellation, e.g. ratios against a recessive exponential at |z| ~ 10,
  where the log-series terms exceed the sum by 35+ orders of magnitude.

Only the mp engine loads mpmath, when ``get_engine`` builds one; a double
run never imports it.  The one exception is the contour oracle of
``solutions``: ``Engine.gamma`` and ``Engine.quad`` take mpmath's ``fp``
context when the double engine calls them.

What both engines share is written once on ``Engine``: the conversion of a
complex number, the elementary functions by name, ``Engine.matmul``, the
4x4 solves and inverses (``Engine.solve``, ``Engine.inverse``: one
Gaussian elimination in exact integers, ``_eliminate``) and the four
kernels that every column of Y_L, Y_R and Y_top passes through: the block
pass of a log-series (``horner_columns``/``horner``), the polynomial in
log z of its block sums (``log_polynomial``) and the dot product
(``fdot``), all in exact integers with a stated bound.  The two engines
differ only in the exact read of a number (``_parts``: an mp number's raw
mantissas, a float's exact parts), the one rounding of an operand
(``_from_parts``: to an mpc at the context's precision, or to a Python
complex), their ``real`` (a Fraction rounded once, to nearest), their
elementary functions and constants, and ``guarded`` (``GUARD_BITS`` more
bits, mp only).  Beside them, ``matrix_steps`` applies integer matrices to
a cubic block (the recursion that builds the residue series, and their
derivative map): with their operators for Fractions, and in exact integers
for operands.

An operand is a number in the form the kernels read it
(``Engine.operand``): exact integers (re, im, exp), the value
(re + i im) 2^exp, of a number's exact parts (``_parts``) or of a Fraction
floored once.  An operand reads as itself, so the kernels take numbers and
operands alike, and a cache that holds operands has each value read once.
The kernels share that read and one Horner loop that cuts each step to a
number of bits (``_horner``: ``horner`` runs it in w, ``log_polynomial`` in
log z), ``GUARD_BITS`` above the precision in force at the call
(``working_prec``: 53 bits under double, the context's under mp, which
``guarded`` raises).  ``matrix_steps`` returns the coefficients of the
residue series and of their derivative series as operands, and ``horner``,
``log_polynomial`` and ``fdot`` return operands cut (floored) to
``GUARD_BITS`` above the working precision, so from the recursion to the
solves every coefficient, block sum, series value, column derivative and
entry of Y_R and Y_L passes from one kernel to the next as exact integers,
neither rounded nor read again.  ``Engine.number`` turns an operand into a
number, each part rounded once, to nearest (``_from_parts``), only where a
value leaves the numeric layer: the entries of a product
(``Engine.matmul``) or of a solve, the block sums ``monodromy.eval_Ytop``
multiplies in the engine's arithmetic, the report's Frobenius coordinates
and a caller's own arithmetic.  Each kernel states its error bound.

A matrix is a tuple of rows, the package's one format; ``Engine.matmul``
multiplies two, each entry one ``fdot`` as a number, and
``max_deviation`` is the residual of two.

Bounds and comparisons whose values never reach a report are made on log2
magnitudes (``log2_magnitude``): a float within ``LOG2_SLACK`` of log2 |x|,
read from an operand's or a number's exact parts without mp arithmetic,
and from ``math`` for any other number.  The tail certificate of
``solutions.eval_series`` and the choice of the entries whose mp ``abs``
``max_deviation`` takes rest on it, as the cut of the block pass rests
on the same reads (``_log2_abs``).

Engines are interned, so series caches can key on them; every computation
takes its engine from its caller, and a run's from ``pipeline.RunConfig``.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import operator
import sys
from fractions import Fraction

#: bits the Horner loop (``_horner``), the operands that ``horner``,
#: ``log_polynomial`` and ``fdot`` return and the coefficients of
#: ``matrix_steps`` (and of a Fraction's ``operand``) carry above the
#: working precision, as does mp arithmetic inside ``guarded``
GUARD_BITS = 20

#: bits the 4x4 elimination holds above the working precision
SOLVE_EXTRA_BITS = 64

#: the 4x4 elimination refuses a row sum or pivot at or below ||A||_1 times
#: 2^(1 - prec - SOLVE_GUARD_BITS), the epsilon of prec + SOLVE_GUARD_BITS bits
SOLVE_GUARD_BITS = 10

#: the number types of every mp context, empty until ``_load_mpmath``; a
#: double engine's numbers are Python floats and complex numbers
_MP_TYPES = ()


def _load_mpmath():
    """Import mpmath and bind the module names the mp arithmetic reads:
    ``_MP_TYPES`` and the raw-number functions of ``mpmath.libmp``."""
    global mpmath, _MP_TYPES, from_int, from_man_exp, fzero, mpf_div, round_nearest
    import mpmath
    from mpmath.ctx_mp_python import _mpc, _mpf
    from mpmath.libmp import from_int, from_man_exp, fzero, mpf_div, round_nearest
    _MP_TYPES = (_mpf, _mpc)


def _mp_types():
    """``_MP_TYPES``, looked up once mpmath is loaded.  No mp number exists
    before that, so until then the empty tuple is the right answer."""
    if not _MP_TYPES and "mpmath" in sys.modules:
        _load_mpmath()
    return _MP_TYPES


class NaNResidualError(ArithmeticError):
    """A NaN reached the maximum behind a residual."""


def max_magnitude(values):
    """The largest of the values as a float, or NaNResidualError for a NaN
    among them, which Python's ``max`` would keep or drop by its position.
    The floats are compared, so mp numbers and Fractions may mix; ``float``
    is monotone, so this is float(max(values))."""
    values = list(values)
    if any(v != v for v in values):
        raise NaNResidualError("a residual is NaN")
    return max(map(float, values))


def max_deviation(A, B):
    """Largest entrywise |A - B| of two matrices as a float, computed in the
    entries' own arithmetic: exact for integers, at working precision for
    engine numbers.  An mp entry takes its mp ``abs`` only if its log2
    upper bound (``log2_magnitude`` + ``LOG2_SLACK``) reaches the largest
    log2 lower bound, with room for the rounding of that float: the largest
    entry always does, and mp ``abs`` is monotone, so the maximum is the
    same number.  A NaN entry raises NaNResidualError."""
    deviations = [a - b for row_a, row_b in zip(A, B) for a, b in zip(row_a, row_b)]
    mp_types = _mp_types()
    sizes = [abs(d) for d in deviations if not isinstance(d, mp_types)]
    mp = [d for d in deviations if isinstance(d, mp_types)]
    if mp:
        logs = [log2_magnitude(d) for d in mp]
        if any(g != g for g in logs):
            raise NaNResidualError("a residual is NaN")
        top = max(logs)
        floor = top - 2 * LOG2_SLACK * (1 + abs(top)) if top < math.inf else top
        sizes += [abs(d) for d, g in zip(mp, logs) if g >= floor]
    return max_magnitude(sizes)


class Engine:
    """A scalar backend: a name, its digits, its working precision in bits,
    its imaginary unit ``i`` (formed once) and what ``DoubleEngine`` and
    ``MPEngine`` share: the conversions ``operand`` and ``number``, the
    products and solves, and the kernels ``horner_columns``, ``horner``,
    ``log_polynomial`` and ``fdot``.  Each engine supplies ``real``,
    ``guarded``, the exact read of a number (``_parts``) and the one
    rounding of an operand (``_from_parts``), the constants ``pi``,
    ``euler`` and ``zeta3``, and the functions behind ``complex``, ``exp``,
    ``log``, ``sqrt`` and ``gamma``/``quad``."""

    def __init__(self, name, dps, eps, prec):
        self.name = name
        self.dps = dps
        self.eps = eps
        self.prec = prec
        self.i = self._complex(0, 1)

    @property
    def working_prec(self):
        """The precision in force at the call, in bits: ``prec``, and under
        mp the context's, which ``guarded`` raises."""
        return self.prec

    # -- conversions ---------------------------------------------------

    def complex(self, x, y=0):
        if isinstance(x, Fraction) or isinstance(y, Fraction):
            return self._complex(self.real(x), self.real(y))
        return self._complex(x, y)

    def operand(self, x):
        """x as exact integers (re, im, exp), the value (re + i im) 2^exp:
        such a tuple as it is, an int as (x, 0, 0), a Fraction floored to
        ``GUARD_BITS`` above the working precision by one integer division,
        and any other number by the engine's exact read (``_parts``).  A
        non-finite value raises OverflowError."""
        if type(x) is tuple:
            return x
        if type(x) is int:
            return x, 0, 0
        if type(x) is Fraction:
            p, q = x.numerator, x.denominator
            e = p.bit_length() - q.bit_length() - self.working_prec - GUARD_BITS
            return (p << -e) // q if e < 0 else p // (q << e), 0, e
        return self._parts(x)

    def number(self, x):
        """An operand as a number of the engine, each part rounded once, to
        nearest (``_from_parts``), under mp at the context's precision when
        called; any other x as it is."""
        return self._from_parts(x) if type(x) is tuple else x

    # -- constants and elementary functions -----------------------------

    def gamma(self, z):
        """Gamma(z), for the contour oracle; loads mpmath under double."""
        return self._mpmath_context().gamma(z)

    def exp(self, z):
        return self._exp(z)

    def log(self, z):
        return self._log(z)

    def sqrt(self, z):
        return self._sqrt(z)

    def fabs(self, z):
        return float(abs(z))

    # -- linear algebra (4x4 scale) -------------------------------------

    def matmul(self, A, B):
        """A B, each entry the ``fdot`` of a row of A and a column of B as a
        number (``number``): exact, cut, then rounded once."""
        columns = tuple(zip(*B))
        fdot, number = self.fdot, self.number
        return tuple(tuple(number(fdot(row, col)) for col in columns) for row in A)

    def solve(self, A, B):
        """X with A X = B, for a square A: ``_eliminate``, one Gaussian
        elimination and back substitution on [A | B] in exact integers.

        The pivot rule and the refusal are those of mpmath's ``LU_decomp``,
        with the size of an entry measured as |re| + |im|, which takes no
        square root: at step j the pivot row is the first of the rows k >= j
        with the largest size of A[k][j] over the row's size sum from column
        j on.  A row sum or pivot at or below ||A||_1 2^(1 - prec -
        SOLVE_GUARD_BITS), prec the engine's working precision (53 bits
        under double), raises ZeroDivisionError ("numerically singular"), an
        ArithmeticError.
        """
        return self._eliminate(A, B)

    def inverse(self, A):
        """A^(-1): ``_eliminate`` against the identity."""
        n = len(A)
        return self._eliminate(A, [[int(i == j) for j in range(n)] for i in range(n)])

    def _eliminate(self, A, B):
        """``Engine.solve`` in exact integers.

        Each entry is read once, exactly, as integers (re, im, exp)
        (``operand``: an mp number's raw mantissas, a float's exact parts).
        Row k of A is held as Gaussian integers at its own exponent e_k, at
        which its largest part has prec + SOLVE_EXTRA_BITS bits, and row k
        of B at e_k + d, with d chosen alike for the rows B_k 2^-e_k
        together; a part below its exponent is floored.  The pivot rule and
        the refusal of ``Engine.solve`` are evaluated exactly on these
        integers.  Each multiplier A[k][j] / A[j][j] is floored to one bit
        more than the pivot's bit length, and each update a - f b is exact,
        then floored to the row's exponent.  So P (A + dA) = L U and
        L C = P (B + dB) hold exactly for the held multipliers L, triangle U
        and right-hand sides C, P the row swaps, where each part of row k of
        dA lies below n 2^e_k and of dB below n 2^(e_k + d): one floor for
        the read, and one for each of the at most n - 1 steps that update
        the entry or, in the pivot's column, leave it at 0.  The back
        substitution holds X at the exponent d - g, g one bit above the
        largest pivot, with one floor per quotient, so U X = C + R with each
        part of row i of R below 2^(e_i + d).  Each entry of X is then
        rounded once, to nearest (``number``): X is
        (A + dA)^(-1) (B + dB + P^T L R) rounded entry by entry.  A
        non-finite entry raises OverflowError, as does, under double, an
        entry of X outside the double range.
        """
        n, prec = len(A), self.prec
        bits = prec + SOLVE_EXTRA_BITS
        A = [[self.operand(x) for x in row] for row in A]
        B = [[self.operand(x) for x in row] for row in B]
        # a row of zeros in A is refused below, at any exponent
        exps = [max([_top_bit(*x) for x in row if x[0] or x[1]], default=bits) - bits for row in A]
        d = max((_top_bit(*x) - e for row, e in zip(B, exps) for x in row if x[0] or x[1]),
                default=bits) - bits
        rows = [_at_exponent(a, e) + _at_exponent(b, e + d) for a, b, e in zip(A, B, exps)]
        # the refusal: a row sum or pivot s of row k at or below ||A||_1 eps,
        # that is s 2^(e_k - low + prec + SOLVE_GUARD_BITS - 1) <= ||A||_1 2^-low
        low = min(exps)
        norm = max(sum((abs(re) + abs(im)) << (e - low) for (re, im), e in zip(col, exps))
                   for col in zip(*(row[:n] for row in rows)))
        shifts = [e - low + prec + SOLVE_GUARD_BITS - 1 for e in exps]
        for j in range(n):
            for k in range(j, n):
                sizes = [abs(re) + abs(im) for re, im in rows[k][j:n]]
                s = sum(sizes)
                if s << shifts[k] <= norm:
                    raise ZeroDivisionError("matrix is numerically singular")
                # the first of the largest size / s, compared crosswise
                if k == j or sizes[0] * best_s > best * s:
                    p, best, best_s = k, sizes[0], s
            if best << shifts[p] <= norm:
                raise ZeroDivisionError("matrix is numerically singular")
            rows[j], rows[p] = rows[p], rows[j]
            shifts[j], shifts[p] = shifts[p], shifts[j]
            pivot = rows[j][j + 1:]
            pr, pi = rows[j][j]
            q = pr * pr + pi * pi
            f = max(pr.bit_length(), pi.bit_length()) + 1
            for row in rows[j + 1:]:
                ar, ai = row[j]
                if ar or ai:
                    fr = ((ar * pr + ai * pi) << f) // q
                    fi = ((ai * pr - ar * pi) << f) // q
                    row[j + 1:] = [(re - ((fr * ur - fi * ui) >> f),
                                    im - ((fr * ui + fi * ur) >> f))
                                   for (re, im), (ur, ui) in zip(row[j + 1:], pivot)]
        g = max(max(abs(re), abs(im)).bit_length() for re, im in
                (rows[i][i] for i in range(n))) + 1
        X = [None] * n
        for i in reversed(range(n)):
            row = rows[i]
            t = [(cr << g, ci << g) for cr, ci in row[n:]]
            for k in range(i + 1, n):
                ur, ui = row[k]
                t = [(tr - ur * xr + ui * xi, ti - ur * xi - ui * xr)
                     for (tr, ti), (xr, xi) in zip(t, X[k])]
            ur, ui = row[i]
            q = ur * ur + ui * ui
            X[i] = [((tr * ur + ti * ui) // q, (ti * ur - tr * ui) // q) for tr, ti in t]
        return tuple(tuple(self.number((xr, xi, d - g)) for xr, xi in row) for row in X)

    # -- block sums of a power series in w ------------------------------

    def horner_columns(self, blocks):
        """The four coefficient columns of ``blocks`` (operands, or numbers
        that ``operand`` reads once), highest block first, in the form
        ``horner`` sums, each column with the bounds of its cut: (ns, tops)
        over its nonzero blocks n, lowest first, with top_n the ``_top_bit``
        of a[n], so that 2^(top_n - 1) <= |a[n]| < 2^(top_n + 1/2)."""
        out = []
        for col in zip(*reversed(blocks)):
            parts = tuple(map(self.operand, col))
            nonzero = [(n, _top_bit(*p)) for n, p in enumerate(reversed(parts)) if p[0] or p[1]]
            out.append((parts, tuple(zip(*nonzero)) or ((), ())))
        return tuple(out)

    def horner(self, columns, w):
        """T_k = sum_n w^n a_k[n] for each column of ``horner_columns``, as
        operands.

        The pass is the exact loop ``_horner``, over only the blocks that
        can reach the working precision prec (``working_prec``): the
        leading (highest) blocks whose summed magnitude bounds lie below
        2^-(prec + GUARD_BITS) of the column's largest term are skipped
        (``_summed_blocks``, from the bounds of ``horner_columns``), and
        block 0 is always summed.  T_k is the loop's result, cut to
        prec + GUARD_BITS bits and not rounded, so it is off by at most (4
        per summed block, and 1 for the skipped ones) times
        2^-(prec + GUARD_BITS) sum_n |w^n a_k[n]|.
        """
        bits = self.working_prec + GUARD_BITS
        w = self.operand(w)
        log2w = _log2_abs(*w)
        return tuple(_horner(col[len(col) - _summed_blocks(bounds, log2w, bits):], w, bits)
                     for col, bounds in columns)

    # -- the polynomial in log z and the dot product --------------------

    def log_polynomial(self, sums, l, scale):
        """scale (T0 + l (T1 + l (T2 + l T3))) for the block sums
        T = ``sums``, as an operand: the exact loop ``_horner`` over
        (T3, T2, T1, T0) at l, and an exact product with ``scale`` cut to
        prec + GUARD_BITS bits (``_cut``), not rounded.

        Each of the four cuts adds less than sqrt(2) 2^(1 - prec -
        GUARD_BITS) of its step's value, so the result is off from the
        exact value at these inputs by at most
        2^(4 - prec - GUARD_BITS) |scale| sum_k |l|^k |T_k|.  A non-finite
        input raises OverflowError.
        """
        bits = self.working_prec + GUARD_BITS
        tr, ti, te = _horner(map(self.operand, sums[::-1]), self.operand(l), bits)
        sr, si, se = self.operand(scale)
        return _cut(tr * sr - ti * si, tr * si + ti * sr, te + se, bits)

    def fdot(self, xs, ys):
        """sum_i xs[i] ys[i] as an operand: each entry read once
        (``operand``), the products and their sum exact, each product added
        at the smaller exponent of the two nonzero terms, and one cut to
        prec + GUARD_BITS bits (``_cut``), not rounded, so each part is the
        exact part floored, off by less than 2^(1 - prec - GUARD_BITS) of
        the exact dot product's modulus.  A non-finite entry raises
        OverflowError."""
        operand = self.operand
        re = im = exp = 0
        for x, y in zip(xs, ys):
            ar, ai, ae = operand(x)
            br, bi, be = operand(y)
            pr, pi, pe = ar * br - ai * bi, ar * bi + ai * br, ae + be
            if not (pr or pi):
                continue
            if not (re or im):
                re, im, exp = pr, pi, pe
            elif exp >= pe:
                re, im, exp = (re << exp - pe) + pr, (im << exp - pe) + pi, pe
            else:
                re, im = re + (pr << pe - exp), im + (pi << pe - exp)
        return _cut(re, im, exp, self.working_prec + GUARD_BITS)

    def quad(self, f, points):
        """mpmath's quadrature of f over the points, for the contour oracle;
        loads mpmath under double."""
        return self._mpmath_context().quad(f, points)

    def __repr__(self):
        return f"Engine({self.name!r}, dps={self.dps})"


# the elementary functions of mpmath's fp context, which picks ``math`` or
# ``cmath`` by the argument: the same choices give the same doubles

def _fp_exp(x):
    # math for a real argument, cmath for a complex one
    return cmath.exp(x) if type(x) is complex else math.exp(x)


def _fp_log(x):
    # math for a positive real, rounded to a double first; cmath for zero
    # (which raises ValueError), a negative real or a complex number
    if type(x) is complex or x <= 0:
        return cmath.log(x)
    return math.log(float(x))


def _fp_sqrt(x):
    # math for a real x >= 0, cmath otherwise
    if type(x) is complex or x < 0:
        return cmath.sqrt(x)
    return math.sqrt(x)


def _float_parts(x):
    """A Python number as exact integers (re, im, exp), the value
    (re + i im) 2^exp, by the exact ratios (``float.as_integer_ratio``) of
    its complex's parts at the smaller exponent.  A non-finite value raises
    OverflowError."""
    x = complex(x)
    try:
        (re, p), (im, q) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    except (OverflowError, ValueError):
        raise OverflowError("non-finite value in exact integer arithmetic") from None
    # the denominators are powers of 2
    if p < q:
        return re * (q // p), im, 1 - q.bit_length()
    return re, im * (p // q), 1 - p.bit_length()


def _double_from_parts(parts):
    """The Python complex of exact integers (re, im, exp), each part of
    (re + i im) 2^exp rounded once, to nearest: Python's int-to-float
    conversion and int true division are correctly rounded.  A part
    outside the double range raises OverflowError."""
    re, im, exp = parts
    try:
        if exp >= 0:
            return complex(float(re << exp), float(im << exp))
        return complex(re / (1 << -exp), im / (1 << -exp))
    except OverflowError:
        raise OverflowError("a value leaves the range of the double engine") from None


class DoubleEngine(Engine):
    """Double precision: the shared kernels at a working precision of 53
    bits, and Python floats and complex numbers for every number, each read exactly
    (``_float_parts``) and rounded once (``_double_from_parts``), with the
    elementary functions of ``math`` and ``cmath`` as mpmath's ``fp``
    context picks them, so that every such value is the one ``fp`` gives."""

    _complex = complex
    _exp = staticmethod(_fp_exp)
    _log = staticmethod(_fp_log)
    _sqrt = staticmethod(_fp_sqrt)

    # the correctly rounded doubles; tests check them against mpmath
    pi = math.pi
    euler = 0.5772156649015329
    zeta3 = 1.2020569031595942

    def __init__(self):
        # a double carries 15.95 significant digits: eps = 1e-16
        super().__init__("double", dps=16, eps=1e-16, prec=53)

    def real(self, x):
        """A float; a Fraction is rounded once, to nearest."""
        return float(x)

    def guarded(self):
        """A no-op: double arithmetic has no guard bits."""
        return contextlib.nullcontext()

    #: the exact read of a Python number and the one rounding of an operand
    _parts, _from_parts = staticmethod(_float_parts), staticmethod(_double_from_parts)

    def _mpmath_context(self):
        """mpmath's ``fp`` context, for the contour oracle alone."""
        from mpmath import fp

        return fp


class MPEngine(Engine):
    """Arbitrary precision: a private mpmath ``MPContext`` at ``dps``
    digits."""

    def __init__(self, dps):
        _load_mpmath()
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = dps
        self.ctx = ctx
        self._complex = ctx.mpc
        self._exp, self._log, self._sqrt = ctx.exp, ctx.log, ctx.sqrt
        super().__init__("mp", dps=dps, eps=float(mpmath.mpf(10) ** (-dps)), prec=ctx.prec)

    def real(self, x):
        """Convert int/float/Fraction/str to the context's real type, exactly
        where the input is exact.  A Fraction is rounded once, to nearest,
        however wide its numerator and denominator."""
        if isinstance(x, Fraction):
            p, q = from_int(x.numerator), from_int(x.denominator)
            return self.ctx.make_mpf(mpf_div(p, q, self.ctx.prec, round_nearest))
        return self.ctx.mpf(x)

    @property
    def working_prec(self):
        return self.ctx.prec

    def _parts(self, x):
        """The exact read of ``Engine.operand``: an mp number's raw mantissas
        (``_exact_parts``), any other number's as an mpc of the context."""
        return _exact_parts(x if isinstance(x, _MP_TYPES) else self.complex(x))

    def _from_parts(self, parts):
        """The one rounding of ``Engine.number``: an mpc of the context at
        its precision when called (``_rounded``)."""
        return _rounded(self.ctx, *parts)

    @property
    def pi(self):
        return +self.ctx.pi

    @property
    def euler(self):
        return +self.ctx.euler

    @property
    def zeta3(self):
        return self.ctx.zeta(3)

    def guarded(self):
        """A context in which mp arithmetic carries ``GUARD_BITS`` above the
        working precision, so that a chain of operations inside it can be
        rounded once, with unary plus, after it.  The precision is set, not
        raised: a guarded block inside another, like a cached value first
        formed inside one, runs at the same prec + GUARD_BITS bits."""
        return self.ctx.workprec(self.prec + GUARD_BITS)

    def _mpmath_context(self):
        return self.ctx


def _top_bit(re, im, exp):
    """The larger bit length of the parts plus exp, so that
    2^(top - 1) <= |(re + i im) 2^exp| < 2^(top + 1/2) for a nonzero value."""
    return max(re.bit_length(), im.bit_length()) + exp


def _at_exponent(parts, e):
    """The entries (re, im, exp) as pairs of integers at the exponent e,
    each part floored."""
    return [(re << exp - e, im << exp - e) if exp >= e else (re >> e - exp, im >> e - exp)
            for re, im, exp in parts]


def _horner(terms, w, bits):
    """sum_n w^n a[n] for the terms a[n], highest n first, and w, each as
    exact integers (re, im, exp), cut to ``bits`` bits.

    The first nonzero term is taken as it is; each later step is an exact
    product with w and an exact, aligned sum, then a cut (floor) of both
    parts to where the larger has ``bits`` bits, which adds less than
    sqrt(2) 2^(1 - bits) of the step's value.  A step that cancels to 0
    exactly starts the loop again at the next nonzero term.  The result is
    (re, im, exp), unrounded."""
    wr, wi, we = w
    tr = ti = te = 0
    terms = iter(terms)
    # the first nonzero term, and after a step that cancels to 0 the next
    for tr, ti, te in terms:
        if not (tr or ti):
            continue
        for ar, ai, ae in terms:
            pr = tr * wr - ti * wi
            pi = tr * wi + ti * wr
            te += we
            d = te - ae
            if not (ar or ai):
                tr, ti = pr, pi
            elif d >= 0:
                tr, ti, te = (pr << d) + ar, (pi << d) + ai, ae
            else:
                tr, ti = pr + (ar << -d), pi + (ai << -d)
            excess = (abs(tr) | abs(ti)).bit_length() - bits
            if excess > 0:
                tr >>= excess
                ti >>= excess
                te += excess
            elif not (tr or ti):
                break
    return tr, ti, te


def _cut(re, im, exp, bits):
    """(re, im, exp) with both parts floored (shifted right) by the bits by
    which the larger part's bit length passes ``bits``, as ``_horner`` cuts
    a step: each part is off by less than 2^(1 - bits) of the larger part
    before the cut, and a value of at most ``bits`` bits is kept as it is."""
    excess = (abs(re) | abs(im)).bit_length() - bits
    if excess > 0:
        return re >> excess, im >> excess, exp + excess
    return re, im, exp


def _rounded(ctx, re, im, exp):
    """The mpc (re + i im) 2^exp of the context ``ctx``, each part rounded
    once, to nearest, at ``ctx.prec``."""
    prec = ctx.prec
    return ctx.make_mpc((from_man_exp(re, exp, prec, round_nearest) if re else fzero,
                         from_man_exp(im, exp, prec, round_nearest) if im else fzero))


def _exact_parts(x):
    """An mpc or mpf as exact integers (re, im, exp) with
    x = (re + i im) 2^exp: mpmath's raw mantissas and exponents, brought to
    the smaller exponent.  A non-finite value raises OverflowError."""
    raw = getattr(x, "_mpc_", None) or (x._mpf_, fzero)
    (rsign, rman, rexp, rbc), (isign, iman, iexp, ibc) = raw
    if (not rman and rbc) or (not iman and ibc):
        raise OverflowError("non-finite value in exact integer arithmetic")
    if not rman:
        if not iman:
            return 0, 0, 0
        rexp = iexp
    elif not iman:
        iexp = rexp
    exp = min(rexp, iexp)
    re = (-rman if rsign else rman) << (rexp - exp)
    im = (-iman if isign else iman) << (iexp - exp)
    return re, im, exp


#: how far ``_log2_abs`` may be from log2 |w|, with room to spare: the
#: mantissas it reads are cut to 53 bits, a relative error of 2^-52
LOG2_SLACK = 1e-9


def _log2_abs(re, im, exp):
    """log2 |(re + i im) 2^exp| within ``LOG2_SLACK``, as a float; -inf for 0.
    Reads at most the top 53 bits of each mantissa, whatever their type."""
    if not (re or im):
        return -math.inf
    shift = max(re.bit_length(), im.bit_length(), 53) - 53
    re, im = re >> shift, im >> shift
    return math.log2(re * re + im * im) / 2 + shift + exp


def log2_magnitude(x):
    """log2 |x| as a float: within ``LOG2_SLACK`` of it for an mp number, an
    mp operand or a Python float or complex number, read from the exact
    parts (``_exact_parts``, ``_float_parts``) by ``_log2_abs``, which takes
    no mp arithmetic and no ``abs`` (which raises for a complex modulus past
    the double range, or after an overflow has left errno set), and from
    ``math`` for an int or a Fraction; -inf for 0, inf for an infinite x and
    NaN for a NaN, as |x| reads.  It never raises."""
    if type(x) is tuple:
        return _log2_abs(*x)
    if isinstance(x, (float, complex)):
        try:
            return _log2_abs(*_float_parts(x))
        except OverflowError:
            # a non-finite part: inf if one is infinite, else NaN
            return math.inf if math.isinf(x.real) or math.isinf(x.imag) else math.nan
    if not isinstance(x, _mp_types()):
        size = abs(x)
        return math.log2(size) if size else -math.inf
    try:
        return _log2_abs(*_exact_parts(x))
    except OverflowError:
        return math.log2(float(abs(x)))


def _summed_blocks(bounds, log2w, bits):
    """How many blocks of a column, from block 0, an exact pass at w sums.

    ``bounds`` are the column's (ns, tops) from ``Engine.horner_columns``
    and ``log2w`` is log2 |w| within ``LOG2_SLACK``, so that
    n log2|w| + top_n - 1 <= log2 |w^n a[n]| < n log2|w| + top_n + 1/2.  L is
    the lower bound at its first local maximum over the nonzero blocks, read
    upward: the bound of one term, so at most log2 of the largest term, and
    close to it for the log-concave terms of a residue series.  The leading
    blocks skipped are those whose upper bounds all lie at or below
    L - bits - log2 K - 1, K the number of nonzero blocks, so their terms
    sum to less than 2^-bits of the largest, with a spare bit for the
    rounding of these float bounds.  Block 0 is always summed, and a column
    of zeros, like a pass at w = 0, sums block 0 only.
    """
    ns, tops = bounds
    if not ns or log2w == -math.inf:
        return 1
    low, high = log2w - LOG2_SLACK, log2w + LOG2_SLACK
    floor = -math.inf
    for n, top in zip(ns, tops):
        term = n * low + top
        if term < floor:
            break
        floor = term
    # the lower bounds are term - 1, the upper ones n high + top + 1/2
    floor -= bits + math.log2(len(ns)) + 2.5
    i = len(ns) - 1
    while i and ns[i] * high + tops[i] <= floor:
        i -= 1
    return ns[i] + 1


def matrix_steps(block, steps, prec=None):
    """The blocks b_1, ..., b_m of b_j = Q_j b_(j-1) / den_j from
    b_0 = ``block``, for ``steps`` (Q_j, den_j): square integer matrices as
    tuples of rows, and positive integers.  The arithmetic follows the
    coefficients' type, as ``log2_magnitude`` does, with no engine fork.

    Fractions use their own operators, so they stay exact.  Operands
    (re, im, exp) run in exact integers at one exponent e_j per block, and
    each coefficient of b_j is returned as the operand (re, im, e_j), not
    rounded.  Each step's product is exact, and a step with den_j > 1
    divides (floor) to ``GUARD_BITS`` bits above ``prec`` of the block's
    largest part, which lowers each part by less than 2^e_j.  The matrices
    are integer, so each part of b_j is off from the exact image of b_0 by
    at most c_j, entry by entry, with c_0 = 0 and
    c_j = |Q_j| c_(j-1) / den_j + 2^e_j (without the 2^e_j for den_j = 1,
    so a single such step returns the exact image)."""
    out = []
    if type(block[0]) is not tuple:
        for Q, den in steps:
            block = tuple([sum(map(operator.mul, row, block)) for row in Q])
            if den != 1:
                block = tuple([x / den for x in block])
            out.append(block)
        return out
    exp = min([e for re, im, e in block if re or im], default=0)
    re = [r << (e - exp) if r else 0 for r, _, e in block]
    im = [i << (e - exp) if i else 0 for _, i, e in block]
    for Q, den in steps:
        re = [sum(map(operator.mul, row, re)) for row in Q]
        im = [sum(map(operator.mul, row, im)) for row in Q]
        if den != 1 and any(re + im):
            # the quotient's largest part gets at least prec + GUARD_BITS bits
            shift = prec + GUARD_BITS + den.bit_length() - max(x.bit_length() for x in re + im)
            up, den = max(shift, 0), den << max(-shift, 0)
            re = [(x << up) // den for x in re]
            im = [(x << up) // den for x in im]
            exp -= shift
        out.append(tuple([(r, i, exp) for r, i in zip(re, im)]))
    return out


_ENGINES = {}


def get_engine(name, dps=None):
    """Interned engine factory.  ``name`` is ``"double"`` or ``"mp"``; only
    mp reads ``dps``, and needs it."""
    key = (name, dps if name == "mp" else None)
    if key not in _ENGINES:
        if name == "double":
            _ENGINES[key] = DoubleEngine()
        elif name == "mp":
            if dps is None:
                raise ValueError("the mp engine needs dps, its number of digits")
            _ENGINES[key] = MPEngine(dps)
        else:
            raise ValueError(f"unknown engine {name!r}")
    return _ENGINES[key]
