"""Oracles and helpers only the tests use: dense checks of ``phi_top``'s
sparse recursion, the ODE residual of a log-series, the ODE's recursion
in its ``_dlog`` form and the solution it gives from Frobenius
coordinates, the residue block of Laurent data, mpmath's matrices for
oracle products, the tail certificate of ``eval_series`` formed in engine
reals, the evaluation's expressions from before its engine kernels, the
exact value of an mp operand, an ``mpmath.iv`` enclosure of each mp series
value, the attribution of a residual to the classes of its inputs, the
rotation on the cover and in the Frobenius basis, the sectorial and
topological solutions' exact Frobenius coordinates, and the sympy forms of
the published closed forms
(``GAMMA_MINUS_REF``, ``C_REF`` and ``C_GAMMA_REF``, built on first access;
only they import sympy).
They live here, not in ``monodromy_lab``, because no command runs them.
"""

import functools
import math
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_man_exp

from monodromy_lab import closedform, monodromy, pipeline, reference, solutions
from monodromy_lab.engine import GUARD_BITS, get_engine
from monodromy_lab.monodromy import MU_DIAG
from monodromy_lab.ring import matmul, operator_matrices
from monodromy_lab.solutions import LogSeries, UCComplex


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
    for k in range(1, len(series)):
        cur, prev = series[k], series[k - 1]
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
    for k in range(len(series)):
        for a in range(4):
            for b in range(4):
                w = k + MU_DIAG[b] - MU_DIAG[a]
                if (w < 0 or (w == 0 and k > 0)) and series[k][a][b] != 0:
                    bad.append((k, a, b))
    return bad


def phi_top_orthogonality_residuals(series):
    """Exact residuals of sum_{a+b=k} (-1)^a Phi_a^T eta Phi_b = delta_{k0} eta,
    summed densely: an independent check of ``phi_top``'s sparse recursion."""
    eta = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    out = []
    for k in range(len(series)):
        acc = [[Fraction(0)] * 4 for _ in range(4)]
        for a in range(k + 1):
            b = k - a
            Pa, Pb = series[a], series[b]
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


# -- the mp elimination's bound, from an exact solve ---------------------------

def _fraction(raw):
    """A finite raw mpf tuple as a Fraction."""
    sign, man, exp, _ = raw
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


def gaussian(x):
    """An int, mp number or mp engine operand (re, im, exp) as exact
    (re, im) Fractions."""
    if isinstance(x, int):
        return Fraction(x), Fraction(0)
    if type(x) is tuple:
        re, im, exp = x
        return Fraction(re) * Fraction(2) ** exp, Fraction(im) * Fraction(2) ** exp
    return tuple(_fraction(v._mpf_) for v in (x.real, x.imag))


def operand_value(ctx, x):
    """An mp engine operand (re, im, exp) as an mpc of ``ctx``, exactly,
    at any precision: its raw parts are made without a rounding."""
    re, im, exp = x
    return ctx.make_mpc((from_man_exp(re, exp), from_man_exp(im, exp)))


def block_values(series, engine):
    """The blocks of a series as numbers of the engine's arithmetic: mp
    operands read exactly (``operand_value``), anything else as it is."""
    return tuple(tuple(operand_value(engine.ctx, a) if type(a) is tuple else a for a in blk)
                 for blk in series.blocks)


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gdiv(a, b):
    q = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / q, (a[1] * b[0] - a[0] * b[1]) / q


def _size(a):
    return abs(a[0]) + abs(a[1])


def _exact_elimination(A, B):
    """Gaussian elimination of A X = B on Gaussian rationals, with the pivot
    rule of ``Engine.solve`` evaluated exactly: the pivot rows in order, the
    rows of the unit lower triangle L (its multipliers, swapped with their
    rows), and the exact X."""
    n = len(A)
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    order = list(range(n))
    for j in range(n):
        ratios = [_size(row[j]) / sum(map(_size, row[j:n])) for row in rows[j:]]
        p = j + ratios.index(max(ratios))
        rows[j], rows[p], order[j], order[p] = rows[p], rows[j], order[p], order[j]
        for row in rows[j + 1:]:
            f = _gdiv(row[j], rows[j][j])
            row[j + 1:] = [(a[0] - c[0], a[1] - c[1]) for a, c in
                           zip(row[j + 1:], (_gmul(f, b) for b in rows[j][j + 1:]))]
            row[j] = f
    X = [None] * n
    for i in reversed(range(n)):
        x = rows[i][n:]
        for k in range(i + 1, n):
            x = [(a[0] - c[0], a[1] - c[1]) for a, c in
                 zip(x, (_gmul(rows[i][k], b) for b in X[k]))]
        X[i] = [_gdiv(a, rows[i][i]) for a in x]
    L = [[rows[i][j] if j < i else (Fraction(int(i == j)), Fraction(0)) for j in range(n)]
         for i in range(n)]
    return order, L, X


def _top(parts):
    """The largest floor(log2 |v|) + 1 over the nonzero dyadic parts, the
    bit length plus exponent of an mp mantissa; None if all are 0."""
    return max((v.numerator.bit_length() - v.denominator.bit_length() + 1
                for v in parts if v), default=None)


def elimination_bound(engine, A, B):
    """The exact X of A X = B as rows of (re, im) Fractions, and a bound on
    each part of the error of the mp engine's ``solve(A, B)``, from the
    statement of ``MPEngine._eliminate``: X is
    (A + dA)^(-1) (B + dB + P^T L R) rounded entry by entry.  Before the
    rounding, its error is (A + dA)^(-1) r with r = dB + P^T L R - dA X;
    with w = |A^(-1)| |r| from the moduli of the stated part bounds, and
    the rows of |A^(-1)| |dA| summing to at most 1/2 (asserted), that is at
    most w plus the largest w of its column.  L is the exact elimination's,
    which the held multipliers match far below that slack.  The rounding
    adds at most 2^-prec of each part."""
    from monodromy_lab.engine import SOLVE_EXTRA_BITS

    n, m, prec = len(A), len(B[0]), engine.ctx.prec
    bits = prec + SOLVE_EXTRA_BITS
    A = [[gaussian(x) for x in row] for row in A]
    B = [[gaussian(x) for x in row] for row in B]
    exps = [_top(v for x in row for v in x) - bits for row in A]
    d = max((top - e for top, e in zip((_top(v for x in row for v in x) for row in B), exps)
             if top is not None), default=bits) - bits
    # the moduli of the stated bounds: n units per part of dA and dB, one of R
    dA = [math.sqrt(2) * n * 2.0 ** e for e in exps]
    dB = [math.sqrt(2) * n * 2.0 ** (e + d) for e in exps]
    order, L, X = _exact_elimination(A, B)
    R = [math.sqrt(2) * 2.0 ** (exps[k] + d) for k in order]
    LR = [0.0] * n
    for i, k in enumerate(order):
        LR[k] = sum(abs(complex(*map(float, L[i][j]))) * R[j] for j in range(i + 1))
    identity = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    inv = [[abs(complex(*map(float, x))) for x in row]
           for row in _exact_elimination(A, identity)[2]]
    assert all(sum(v * n * dA[k] for k, v in enumerate(row)) <= 0.5 for row in inv)
    cols = [sum(abs(complex(*map(float, X[k][c]))) for k in range(n)) for c in range(m)]
    w = [[sum(v * (dA[k] * cols[c] + dB[k] + LR[k]) for k, v in enumerate(row))
          for c in range(m)] for row in inv]
    top = [max(col) for col in zip(*w)]
    bound = [[[w[i][c] + top[c] + 2.0 ** -prec * (abs(float(v)) + w[i][c] + top[c])
               for v in X[i][c]] for c in range(m)] for i in range(n)]
    return X, bound


# -- the tail certificate in engine reals ------------------------------------

def engine_real_certificate(series, z, engine, tol, total):
    """The tail certificate of ``solutions.eval_series`` at a call on
    ``series`` (the summed derivative series) at z, formed in engine reals
    as it was before its log2 form: (bound, accepted).  The bound is
    sum_k M_k |l|^k, l = log z, with M_k the componentwise maximum over the
    last three nonzero blocks (all, for a shorter series) of
    |z|^(rho+3n) |a_k[n]|; a number ``total`` is accepted if the bound lies
    within tol max(|total|, 1), and a NaN total never is."""
    blocks = block_values(series, engine)
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


# -- the evaluation's expressions before its engine kernels -------------------

def log_polynomial_expression(sums, l, scale):
    """scale (T0 + l (T1 + l (T2 + l T3))) in the numbers' own arithmetic,
    as ``solutions.eval_series`` formed it before ``Engine.log_polynomial``;
    a scale of 1 (rho = 0) is not multiplied."""
    t0, t1, t2, t3 = sums
    total = t0 + l * (t1 + l * (t2 + l * t3))
    return total if scale == 1 else scale * total


def scalar_column_derivatives_expression(spec, z, order, engine):
    """``monodromy.scalar_column_derivatives`` before ``Engine.fdot``: each
    term's factor times its value added in turn, from engine zero."""
    derivs = [engine.complex(0) for _ in range(4)]
    for coef, kind, m in spec:
        series = solutions.phi_series(kind, order, engine)
        w = z.rotated(m)
        for d, factor in enumerate(monodromy._term_factors(coef, kind, m, engine)):
            derivs[d] += factor * solutions.eval_series(series, w, m=d, engine=engine)
    return derivs


def vector_from_scalar_expression(derivs, z, engine):
    """``monodromy.vector_from_scalar`` before ``Engine.fdot``: products
    and sums in the numbers' own arithmetic, y1 less y4."""
    p0, p1, p2, p3 = derivs
    z32, z32_3, z32_18, sz_18, z32_54, inv_54sz, _ = solutions.point_data(z, engine).lift
    y4 = z32 * p0
    y3 = z32_3 * p1
    y2 = z32_18 * p2 + sz_18 * p1
    y1 = z32_54 * p3 + inv_54sz * p1 + sz_18 * p2 - y4
    return (y1, y2, y3, y4)


def horner_reference(terms, w, bits):
    """``engine._horner`` as it was written with a test for a zero sum at
    every step and the cut from ``max`` of the two bit lengths, kept
    verbatim as the reference of the loop that replaced it."""
    wr, wi, we = w
    tr = ti = te = 0
    for ar, ai, ae in terms:
        if not (tr or ti):
            tr, ti, te = ar, ai, ae
            continue
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
        excess = max(tr.bit_length(), ti.bit_length()) - bits
        if excess > 0:
            tr >>= excess
            ti >>= excess
            te += excess
    return tr, ti, te


# -- an interval enclosure of the mp series values ----------------------------

def _endpoints(x):
    """The endpoints of an ``mpmath.iv`` real interval as Fractions."""
    return tuple(map(_fraction, x._mpi_))


def _enclose(iv, x):
    """An int, an mp number or an mp engine operand (re, im, exp) as an
    interval of ``iv``, exactly."""
    if type(x) is int:
        return iv.mpc(x)
    if type(x) is tuple:
        re, im, exp = x
        return iv.mpc(iv.ldexp(iv.mpf(re), exp), iv.ldexp(iv.mpf(im), exp))
    return iv.mpc(iv.mpf(x.real), iv.mpf(x.imag))


@functools.lru_cache(maxsize=None)
def _block_enclosures(series, w, prec):
    """Intervals of T_k = sum_n w^n a_k[n] and of sum_n |w|^n |a_k[n]|,
    k = 0..3, over every block of the series, with w and each coefficient
    read exactly, at ``prec`` bits."""
    iv = MPIntervalContext()
    iv.prec = prec
    W = iv.mpc(iv.mpf(w.real), iv.mpf(w.imag))
    size = abs(W)
    sums, magnitudes = [], []
    for k in range(4):
        t, s = iv.mpc(0), iv.mpf(0)
        for blk in reversed(series.blocks):
            a = _enclose(iv, blk[k])
            t, s = t * W + a, s * size + abs(a)
        sums.append(t)
        magnitudes.append(s)
    return iv, sums, magnitudes


def series_value_enclosure(series, z, engine, m=0):
    """An ``mpmath.iv`` enclosure of ``eval_series(series, z, engine, m)``
    under mp, and the radius its kernels state: ((re_lo, re_hi),
    (im_lo, im_hi), radius), Fractions.

    The enclosure is the exact truncated m-th derivative series at the
    engine's own inputs: the coefficients of the derivative series, w of
    the point's class representative, and l and z^rho of the point (its
    ``PointData``), each read exactly and summed over every block in
    interval arithmetic at 2 prec + 64 bits.  The radius bounds the
    modulus of the engine value's error; the value is the operand
    ``Engine.log_polynomial`` returns, which no rounding follows: the bound
    of ``Engine.horner`` on each T_k ((4 per block plus 1)
    2^-(prec + GUARD_BITS) sum_n |w^n a_k[n]|, taking every block as
    summed; the T_k are operands, not rounded) carried through
    scale (T0 + l (T1 + ...)), plus the bound of ``Engine.log_polynomial``
    at the engine's T_k."""
    cur = series
    for _ in range(m):
        cur = cur.derivative()
    point = solutions.point_data(z, engine)
    w = solutions.point_data(UCComplex(*point.key), engine).cube
    prec = engine.ctx.prec
    iv, T, S = _block_enclosures(cur, w, 2 * prec + 64)
    L = _enclose(iv, point.l)
    scale = _enclose(iv, point.inverse_powers[-cur.rho] if cur.rho else 1)
    value = scale * (T[0] + L * (T[1] + L * (T[2] + L * T[3])))
    blocks = len(cur.blocks)
    guard = iv.mpf(2) ** -(prec + GUARD_BITS)
    radius = iv.mpf(0)
    for k, t in enumerate(solutions._block_sums(cur, *point.key, engine)[0]):
        radius += abs(L) ** k * guard * ((4 * blocks + 1) * S[k] + 16 * abs(_enclose(iv, t)))
    radius *= abs(scale)
    return _endpoints(value.real), _endpoints(value.imag), _endpoints(radius)[1]


def within_enclosure(parts, enclosure):
    """Whether each of the exact parts (re, im) of a value lies in its
    interval of ``series_value_enclosure``, widened by the radius."""
    *intervals, radius = enclosure
    return all(lo - radius <= v <= hi + radius for v, (lo, hi) in zip(parts, intervals))


# -- error attribution -------------------------------------------------------

#: the classes of inputs ``attribute_residual`` can take exactly: the residue
#: series' coefficients past block 0 (the recursion's cuts), block 0, a
#: point's l, its z^-1 to z^-3, its lift factors and its class's w, the
#: column terms' factors, and the entries of Y_R and Y_L (the lift's own dot
#: products)
ATTRIBUTION_CLASSES = ("coefficients", "block0", "l", "inverse_powers", "lift", "w",
                       "term_factors", "Y_entries")


def attribute_residual(stage, config, classes):
    """The residuals of ``stage`` ("stokes" or "connection", the pipeline's
    stage of that name) of an mp ``config``, re-run with each named class
    of ``ATTRIBUTION_CLASSES`` taken exactly, from an engine at twice the
    config's digits, as operands the kernels read as they are.  Every other
    input is the run's own.  A residual that falls by a large factor when a
    class is exact names that class as the cause of its error.

    "coefficients" runs the recursion from the run's block 0 at the fine
    precision, and "block0" runs it at the run's precision from the fine
    block 0.  "Y_entries" dots the run's own lift factors and derivatives at
    the fine precision.  A point's z^(1/2) and z, which
    ``monodromy.eval_Ytop`` reads, are no class.

    It patches ``point_data`` (in ``solutions`` and ``monodromy``), and
    ``_term_factors``, ``phi_series`` and ``vector_from_scalar`` in
    ``monodromy``, each for the run's engine only, and empties the block
    sums' cache before and the block-pass caches after, so that no value of
    the patched run stays cached."""
    unknown = set(classes) - set(ATTRIBUTION_CLASSES)
    if unknown:
        raise ValueError(f"unknown classes {sorted(unknown)}")
    engine, fine = config.engine(), get_engine("mp", 2 * config.dps)
    originals = {name: getattr(monodromy, name) for name in
                 ("point_data", "_term_factors", "phi_series", "vector_from_scalar")}
    points, series = {}, {}

    def point_data(z, e):
        if e is not engine:
            return originals["point_data"](z, e)
        if z not in points:
            point, exact = solutions.PointData(z, e), solutions.PointData(z, fine)
            # the values formed from the run's own l, before l is replaced
            for name in ("half_powers", "log2_labs", "inverse_powers", "lift", "cube"):
                getattr(point, name)
            if "l" in classes:
                point.l, point.l_operand = exact.l, exact.l_operand
            if "inverse_powers" in classes:
                point.inverse_powers = exact.inverse_powers
            if "lift" in classes:
                point.lift = exact.lift
            if "w" in classes:
                point.cube = e.operand(exact.cube)
            points[z] = point
        return points[z]

    def term_factors(coef, kind, m, e):
        exact = e is engine and "term_factors" in classes
        return originals["_term_factors"](coef, kind, m, fine if exact else e)

    def phi_series(kind, order, e):
        own = originals["phi_series"](kind, order, e)
        if e is not engine or not {"coefficients", "block0"} & set(classes):
            return own
        if (kind, order) not in series:
            block0 = (originals["phi_series"](kind, order, fine).blocks[0]
                      if "block0" in classes else own.blocks[0])
            prec = fine.prec if "coefficients" in classes else e.prec
            series[kind, order] = solutions._series_from_initial_block(block0, order, prec)
        return series[kind, order]

    def vector_from_scalar(derivs, z, e):
        if e is not engine or "Y_entries" not in classes:
            return originals["vector_from_scalar"](derivs, z, e)
        e.fdot = fine.fdot
        try:
            return originals["vector_from_scalar"](derivs, z, e)
        finally:
            del e.fdot

    sd = pipeline.stokes_stage(config)[0] if stage == "connection" else None
    patches = {"point_data": point_data, "_term_factors": term_factors,
               "phi_series": phi_series, "vector_from_scalar": vector_from_scalar}
    solutions._block_sums.cache_clear()
    try:
        for name, value in patches.items():
            setattr(monodromy, name, value)
        solutions.point_data = point_data
        if stage == "stokes":
            return pipeline.stokes_stage(config)[1]
        return pipeline.connection_stage(config, sd)[1]
    finally:
        for name, value in originals.items():
            setattr(monodromy, name, value)
        solutions.point_data = originals["point_data"]
        solutions._block_sums.cache_clear()
        solutions._prepare.cache_clear()


# -- the rotation on the cover and in the Frobenius basis -----------------------

def shifted_by_turns(z, turns):
    """z times e^(2 pi i * turns), exactly on the cover."""
    return UCComplex(z.modulus, Fraction(z.arg_over_pi) + 2 * Fraction(turns))


def rotation_operator_matrix(engine):
    """Matrix of (A phi)(z) = phi(z eps) in the Frobenius basis.

    Rotation leaves every z^(3n) fixed and shifts log z by 2 pi i / 3, so in
    the basis indexed by the initial block (1, l, l^2, l^3) the matrix is the
    unipotent shift  A[k][j] = C(j, k) (2 pi i/3)^(j-k).
    """
    h = 2 * engine.i * engine.pi / 3
    A = [[engine.real(0)] * 4 for _ in range(4)]
    for j in range(4):
        for k in range(j + 1):
            A[k][j] = math.comb(j, k) * h ** (j - k)
    return tuple(map(tuple, A))


# -- the sectorial solutions in exact Frobenius coordinates -------------------

#: f_kind: pi D times the prefactor of phi1 (F) or phi2 (G) times the
#: pi^(-1/2) or pi^(1/2) that ``phi_series`` puts on
#: ``solutions.gamma_coordinates``, with D = 2 sqrt(2) pi^(3/2)
SPEC_FACTORS = {solutions.PHI1: -1, solutions.PHI2: -2}


def exact_rotation(m):
    """A^m, the rotation phi(z) -> phi(z eps^m) in the Frobenius basis, as
    ``rotation_operator_matrix`` but exact: (A^m)[k][j] = C(j, k) (m h)^(j-k)
    with h = 2 pi i/3, in ClosedForms."""
    h = Fraction(2 * m, 3) * closedform.PI * closedform.I
    return tuple(tuple(math.comb(j, k) * h ** (j - k) if j >= k else 0 for j in range(4))
                 for k in range(4))


def spec_numerators(specs, factors=SPEC_FACTORS):
    """pi D times the Frobenius coordinates of the scalar columns that
    ``specs`` describe (as ``monodromy._YR_SPECS``), exactly: column j is
    the sum over its terms (coef, kind, m) of
    coef (-1)^m factors[kind] A^m gamma_coordinates(kind), so no entry
    divides by pi."""
    columns = []
    for spec in specs:
        column = [0] * 4
        for coef, kind, m in spec:
            A, v = exact_rotation(m), solutions.gamma_coordinates(kind)
            c = coef * (-1) ** (m % 2) * factors[kind]
            column = [column[k] + c * sum(A[k][j] * v[j] for j in range(4)) for k in range(4)]
        columns.append(column)
    return tuple(zip(*columns))


def m_top():
    """M_top, the Frobenius coordinates of the columns of Y_top: entry
    (k, j) is the (log z)^k coefficient of z^0 in z^(-3/2) times row 3 of
    Phi_top z^mu z^R, sum_b (Phi_(3/2 - mu_b))[3][b] (R^k)[b][j] / k!, read
    from ``phi_top(3)`` and R, exactly; 3/2 - mu_b = 3 - b."""
    _, R, _ = operator_matrices()
    phi = monodromy.phi_top(3)
    power = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    rows = []
    for k in range(4):
        rows.append(tuple(sum(phi[3 - b][3][b] * power[b][j] for b in range(4))
                          / math.factorial(k) for j in range(4)))
        power = matmul(power, R)
    return tuple(rows)


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
    (the four coefficients ``special.laurent_coefficients`` returns, from
    the (s+n)^(-4) coefficient down to the residue): the (log z)^k
    coefficient is 2 pi i * L[3-k] * (-3)^k / k!, in the engine."""
    two_pi_i = 2 * engine.i * engine.pi
    return tuple(
        two_pi_i * L[3 - k] * engine.real(Fraction((-3) ** k, math.factorial(k)))
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
