"""Oracles and helpers only the tests use: dense checks of ``phi_top``'s
sparse recursion, the ODE residual of a log-series, the ODE's recursion
in its ``_dlog`` form and the solution it gives from Frobenius
coordinates, the residue block of Laurent data, mpmath's matrices for
oracle products, the tail certificate of ``eval_series`` formed in engine
reals, and the sympy forms of the published closed forms
(``GAMMA_MINUS_REF``, ``C_REF`` and ``C_GAMMA_REF``, built on first access;
only they import sympy).
They live here, not in ``monodromy_lab``, because no command runs them.
"""

import functools
import math
from fractions import Fraction

import mpmath

from monodromy_lab import closedform, reference
from monodromy_lab.monodromy import MU_DIAG
from monodromy_lab.ring import operator_matrices
from monodromy_lab.solutions import LogSeries


# -- the published closed forms in sympy -------------------------------------

@functools.lru_cache(maxsize=None)
def _sympy_references():
    import sympy as sp

    gamma_minus, c, c_gamma = reference._published(sp.EulerGamma, sp.pi, sp.zeta(3), sp.I)
    return {
        "GAMMA_MINUS_REF": gamma_minus,
        "C_REF": closedform.sympy_over_d(c),
        "C_GAMMA_REF": closedform.sympy_over_d(c_gamma),
    }


def __getattr__(name):
    """GAMMA_MINUS_REF, C_REF and C_GAMMA_REF: the sympy forms of
    ``reference._published``."""
    if name in ("GAMMA_MINUS_REF", "C_REF", "C_GAMMA_REF"):
        return _sympy_references()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- Phi_top -----------------------------------------------------------------

def phi_top_recursion_residuals(series):
    """Exact residuals of k Phi_k + [Phi_k, mu]-twist = U Phi_{k-1} - Phi_{k-1} R,
    summed densely over every entry of U_cal, R and Phi_(k-1): the
    independent check of ``phi_top``'s sparse recursion."""
    _, R, U = operator_matrices(q=Fraction(1))
    out = []
    for k in range(1, series.order + 1):
        cur, prev = series.coeffs[k], series.coeffs[k - 1]
        res = []
        for a in range(4):
            for b in range(4):
                lhs = (k + MU_DIAG[b] - MU_DIAG[a]) * cur[a][b]
                rhs = sum(U[a][t] * prev[t][b] for t in range(4)) - sum(
                    prev[a][t] * R[t][b] for t in range(4)
                )
                res.append(lhs - rhs)
        out.append(res)
    return out


def phi_top_grading_violations(series):
    """Entries (k, a, b) with nonzero Phi_k where k + mu_b - mu_a < 0, plus
    nonzero resonant entries; empty iff z^(-mu) Phi z^mu is holomorphic with
    H(0) = I.  Reads every entry, independently of ``phi_top``'s sparse
    recursion."""
    bad = []
    for k in range(series.order + 1):
        for a in range(4):
            for b in range(4):
                w = k + MU_DIAG[b] - MU_DIAG[a]
                if (w < 0 or (w == 0 and k > 0)) and series.coeffs[k][a][b] != 0:
                    bad.append((k, a, b))
    return bad


def phi_top_orthogonality_residuals(series):
    """Exact residuals of sum_{a+b=k} (-1)^a Phi_a^T eta Phi_b = delta_{k0} eta,
    summed densely: an independent check of ``phi_top``'s sparse recursion."""
    eta = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    out = []
    for k in range(series.order + 1):
        acc = [[Fraction(0)] * 4 for _ in range(4)]
        for a in range(k + 1):
            b = k - a
            Pa, Pb = series.coeffs[a], series.coeffs[b]
            sign = -1 if a % 2 else 1
            for i in range(4):
                for j in range(4):
                    v = sum(Pa[t][i] * Pb[3 - t][j] for t in range(4))
                    acc[i][j] += sign * v
        if k == 0:
            for i in range(4):
                acc[i][3 - i] -= 1
        out.append(max(abs(x) for row in acc for x in row))
    return out


# -- matrices ----------------------------------------------------------------

def mpmath_context(engine):
    """The mpmath context of the engine's numbers: ``mpmath.fp`` for the
    double engine, whose numbers are Python floats and complex numbers, and
    the mp engine's own."""
    return mpmath.fp if engine.name == "double" else engine.ctx


def context_matrix(engine, rows):
    """A matrix given as rows as mpmath's matrix of the engine's context
    (``mpmath_context``), each Fraction rounded once by ``Engine.complex``:
    products and differences for the oracles, independent of
    ``Engine.matmul``."""
    return mpmath_context(engine).matrix([[engine.complex(v) if isinstance(v, Fraction) else v
                               for v in row] for row in rows])


# -- the tail certificate in engine reals ------------------------------------

def engine_real_certificate(series, z, engine, tol, total):
    """The tail certificate of ``solutions.eval_series`` at a call on
    ``series`` (the summed derivative series) at z, formed in engine reals
    as it was before its log2 form: (bound, accepted).  The bound is
    sum_k M_k |l|^k, l = log z, with M_k the componentwise maximum over the
    last three nonzero blocks (all, for a shorter series) of
    |z|^(rho+3n) |a_k[n]|; a number ``total`` is accepted if the bound lies
    within tol max(|total|, 1), and a NaN total never is."""
    blocks = series.blocks
    if isinstance(blocks[0][0], Fraction):
        blocks = [[engine.real(a) for a in blk] for blk in blocks]
    last = max((n for n, blk in enumerate(blocks) if any(blk)), default=0)
    r = engine.real(z.modulus)
    scaled = [[r ** (series.rho + 3 * n) * abs(a) for a in blocks[n]]
              for n in range(max(0, last - 2), last + 1)]
    m0, m1, m2, m3 = map(max, zip(*scaled))
    labs = abs(z.log(engine))
    bound = ((m3 * labs + m2) * labs + m1) * labs + m0
    accepted = (bound <= tol and total == total) or bound <= tol * max(abs(total), 1)
    return bound, accepted


# -- scalar ODE solutions ----------------------------------------------------

def _dlog(poly):
    """d/d(log z) on a cubic block (tuple of 4 coefficients)."""
    return (poly[1], 2 * poly[2], 3 * poly[3], 0 * poly[0])


def _shift_inverse_pow4(poly, n):
    """Apply (3n + d/dl)^(-4) to a cubic block, in the blocks' own
    arithmetic: (c + d)^(-4) = c^(-4) (1 - 4 d/c + 10 d^2/c^2 - 20 d^3/c^3)
    on cubics, with c = 3n and d = d/d(log z) applied as ``_dlog``, apart
    from ``solutions._recursion_matrix``'s integer matrices."""
    c = 3 * n
    d1 = _dlog(poly)
    d2 = _dlog(d1)
    d3 = _dlog(d2)
    out = []
    for k in range(4):
        v = poly[k] - 4 * d1[k] / c + 10 * d2[k] / (c * c) - 20 * d3[k] / (c * c * c)
        out.append(v / c ** 4)
    return tuple(out)


def recursion_step(prev, n):
    """Block n from block n-1:  (3n+d)^4 p_n = (324n - 162) p_{n-1} + 108 p'_{n-1}."""
    dprev = _dlog(prev)
    rhs = tuple((324 * n - 162) * prev[k] + 108 * dprev[k] for k in range(4))
    return _shift_inverse_pow4(rhs, n)


def series_from_coordinates(coords, order):
    """Solution with the given Frobenius coordinates (initial block), built
    by ``recursion_step``, independently of ``solutions``' recursion."""
    blocks = [tuple(coords)]
    for n in range(1, order):
        blocks.append(recursion_step(blocks[-1], n))
    return LogSeries(rho=0, blocks=tuple(blocks))


def residue_block(L, engine):
    """Block of 2 pi i Res g(s) z^(-3s) at the pole of the Laurent data L
    (``special.LaurentBlock``): the (log z)^k coefficient is
    2 pi i * L[3-k] * (-3)^k / k!, in the engine."""
    two_pi_i = 2 * engine.i * engine.pi
    return tuple(
        two_pi_i * L.coeffs[3 - k] * engine.real(Fraction((-3) ** k, math.factorial(k)))
        for k in range(4)
    )


def ode_residual_blocks(series):
    """Blocks of D^4 phi - 108 z^3 D phi - 162 z^3 phi applied to a LogSeries.

    Exact for Fraction coefficients; for engine coefficients the caller
    checks the magnitudes.  Blocks are reported for n = 0 .. order-1 (the
    last input block only feeds the order-th output block, which truncation
    drops).
    """
    rho = series.rho
    out = []
    for n in range(series.order):
        p = series.blocks[n]
        c = rho + 3 * n
        # (c + d)^4 p
        cur = p
        for _ in range(4):
            d = _dlog(cur)
            cur = tuple(c * cur[k] + d[k] for k in range(4))
        if n == 0:
            res = cur
        else:
            prev = series.blocks[n - 1]
            dprev = _dlog(prev)
            cprev = rho + 3 * (n - 1)
            res = tuple(
                cur[k] - 108 * (cprev * prev[k] + dprev[k]) - 162 * prev[k]
                for k in range(4)
            )
        out.append(res)
    return out
