"""Fundamental matrix solutions and monodromy data of the q=1 system.

The flat-section system dy/dz = (U_cal + mu/z) y has

* a distinguished solution at z=0, Y_top(z) = Phi_top(z) z^mu z^R, whose
  coefficients Phi_k solve the exact recursion
  (k + mu_b - mu_a) (Phi_k)_ab = (U_cal Phi_{k-1} - Phi_{k-1} R)_ab with
  resonant entries set to zero (that is the holomorphy normalization of
  z^(-mu) Phi z^mu with H(0) = I), and

* sectorial solutions Y_L / Y_R determined by their asymptotics
  y_4k ~ c_k e^(u_k z), c = (-i/sqrt2, 1/sqrt6, 1/sqrt6, 1/sqrt6), on the
  extended sectors of the admissible line arg z = pi/4.

Every column is z^(3/2) phi for a scalar solution phi built from the two
Mellin-Barnes solutions with rotated arguments.  Writing

    F(w) = -w^(3/2)/(2 sqrt2 pi^2) phi1(w) ~ (1/sqrt6)  e^(u4 w)
    G(w) = -w^(3/2)/(sqrt2 pi^3)   phi2(w) ~ (-i/sqrt2) e^(u1 w)

(both asymptotics were re-derived here from the integral representations;
the prefactor of G is pinned by the c_1 normalization), the columns are

    Y_R: ( G(z),          F(z eps^2),  F(z eps),                    F(z) )
    Y_L: ( G(z eps^-1),   F(z eps^-1), F(z eps^-2) + 5 F(z eps^-1), F(z) )

on the universal cover, with eps = e^(2 pi i/3); the half-integer powers of
the rotations produce the alternating signs.  The Stokes matrix S' and the
central connection matrix C' are extracted by evaluating these globally
convergent representations at finite points and solving 4x4 systems; both
are exactly constant in z, so the spread across several z_0 is a pure
numerical-error diagnostic.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from monodromy_lab.engine import log2_magnitude, max_deviation
from monodromy_lab.frame import (
    ADMISSIBLE_ANGLE,
    complex_canonical_coordinates,
    in_interval,
    sector_config,
)
from monodromy_lab.ring import matmul, operator_matrices, unipotent_inverse
from monodromy_lab.solutions import (
    PHI1,
    PHI2,
    SectorError,
    UCComplex,
    eval_series,
    phi_series,
    point_data,
)

#: mu's diagonal (-3/2, -1/2, 1/2, 3/2), read from ``ring.operator_matrices``
MU_DIAG = tuple(row[k] for k, row in enumerate(operator_matrices()[0]))
#: the integers 2 mu_k
TWICE_MU = tuple(int(2 * mu) for mu in MU_DIAG)


class ResonanceError(ArithmeticError):
    """Nonzero right-hand side at a resonant recursion entry."""


class SnapError(ArithmeticError):
    """A Stokes entry failed to snap to an integer."""


# -- topological solution ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def phi_top(order):
    """The tuple (Phi_0 = I, ..., Phi_order) of Phi_top, solved exactly.

    Phi_k is carried as 16 integers (row-major) over one positive
    denominator, reduced once per k, and turned into Fractions only for the
    result.  Entry (a, b) of the right-hand side sums the products of the
    nonzero entries of U_cal and R (six and three of them, integers) with
    the entries of Phi_(k-1) they meet.  Every entry is still solved for, so
    a nonzero resonant right-hand side raises ResonanceError and the z^3
    grading is left to ``_phi_top_columns`` to check."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _, R, U = operator_matrices(q=Fraction(1))
    # rhs[4a + b] = sum of c * prev[j] over (j, c) in terms[4a + b]
    terms = [tuple((4 * t + b, int(U[a][t])) for t in range(4) if U[a][t])
             + tuple((4 * a + t, -int(R[t][b])) for t in range(4) if R[t][b])
             for a in range(4) for b in range(4)]
    shifts = [int(MU_DIAG[b] - MU_DIAG[a]) for a in range(4) for b in range(4)]
    prev, den = [int(a == b) for a in range(4) for b in range(4)], 1
    mats = [(prev, den)]
    for k in range(1, order + 1):
        # entry i of Phi_k is rhs[i] / (den * (k + shifts[i]))
        rhs = [sum(c * prev[j] for j, c in t) for t in terms]
        divs = [k + shift for shift in shifts]
        for i, (r, div) in enumerate(zip(rhs, divs)):
            if r and div == 0:
                raise ResonanceError(f"inconsistent resonance at k={k}, entry ({i // 4},{i % 4})")
        scale = math.lcm(*(div for r, div in zip(rhs, divs) if r))
        cur = [r * (scale // div) if r else 0 for r, div in zip(rhs, divs)]
        den *= scale
        g = math.gcd(den, *cur)
        if g != 1:
            den //= g
            cur = [x // g for x in cur]
        prev = cur
        mats.append((cur, den))
    zero = Fraction(0)
    return tuple(tuple(tuple(Fraction(x, den) if x else zero for x in flat[4 * a:4 * a + 4])
                       for a in range(4))
                 for flat, den in mats)


@functools.lru_cache(maxsize=None)
def _phi_top_columns(order, engine):
    """Phi_top's 16 entry series in the form ``Engine.horner`` sums, with
    the offset of each.

    Entry (a, b) of Phi_k vanishes unless k = (a - b) mod 3, as the
    recursion's U_cal and R only have entries with a - b = 1 mod 3 (each
    coefficient is checked), so the entry is z^c sum_n (Phi_(c+3n))_ab w^n
    with c = (a - b) mod 3 and w = z^3.  Returns (columns, offsets), both
    row-major in (a, b); converted once per order and engine by
    ``Engine.operand``, floored to ``GUARD_BITS`` above prec.
    """
    coeffs = phi_top(order)
    offsets = tuple((a - b) % 3 for a in range(4) for b in range(4))
    for k, mat in enumerate(coeffs):
        for a in range(4):
            for b in range(4):
                if mat[a][b] and (k - offsets[4 * a + b]) % 3:
                    raise ArithmeticError(f"Phi_{k} entry ({a},{b}) breaks the z^3 grading")
    blocks = [[coeffs[c + 3 * n][a][b] if c + 3 * n <= order else Fraction(0)
               for (a, b), c in zip(itertools.product(range(4), repeat=2), offsets)]
              for n in range(order // 3 + 1)]
    columns = engine.horner_columns([[engine.operand(v) for v in row] for row in blocks])
    return columns, offsets


@functools.lru_cache(maxsize=None)
def _exp_R_terms():
    """The nonzero terms of e^(tR) = sum_p R^p t^p/p! as (k, j, p, c), a
    term c t^p of entry (k, j); R is subdiagonal (3, 6, 3), so each of the
    ten nonzero entries has one; the powers of R are formed in integers."""
    _, R, _ = operator_matrices()
    R = [[int(x) for x in row] for row in R]
    terms, power = [], [[int(i == j) for j in range(4)] for i in range(4)]
    for p in range(4):
        terms.extend((k, j, p, Fraction(power[k][j], math.factorial(p)))
                     for k in range(4) for j in range(4) if power[k][j])
        power = matmul(power, R)
    return tuple(terms)


def eval_Ytop(z, order, engine):
    """Y_top(z) = Phi_top(z) z^mu z^R on the universal cover.

    Phi_top's entries are summed in one ``Engine.horner`` pass in w = z^3,
    in exact integers.  Entry (a, b) of Phi_top z^mu is the sum
    times z^(c + mu_b), a half-integer power of the point's z^(1/2) (its
    ``PointData``), formed once per entry; e^(lR) multiplies entry by
    entry.  Under mp the point's z^(1/2), z and l are formed ``GUARD_BITS``
    above the working precision, and every step after them runs there too,
    where the sums enter mpmath (``Engine.number``); each entry is rounded
    once.
    """
    point = point_data(z, engine)
    (h, zc, _), l = point.half_powers, point.l
    columns, offsets = _phi_top_columns(order, engine)
    with engine.guarded():
        odd = {1: h, -1: 1 / h}
        for e in (3, 5, 7):
            odd[e] = odd[e - 2] * zc
        odd[-3] = odd[-1] / zc
        sums = tuple(map(engine.number, engine.horner(columns, zc * zc * zc)))
        E = exp_R(l, engine)
        Y = [[0] * 4 for _ in range(4)]
        for a in range(4):
            # row a of Phi_top z^mu
            P = [sums[4 * a + k] * odd[2 * offsets[4 * a + k] + TWICE_MU[k]] for k in range(4)]
            for k, j, _, _ in _exp_R_terms():
                Y[a][j] += P[k] * E[k][j]
    return tuple(tuple(+y for y in row) for row in Y)


def exp_mu_units(turns):
    """e^(pi i turns mu) for an integer number ``turns`` of half turns, as
    the exact units i^(2 turns mu_i) (mu is half-odd-integer): -I at
    turns = 2, diag(-i, i, -i, i) at turns = -1."""
    return tuple((1, 1j, -1, -1j)[int(2 * turns * mu) % 4] for mu in MU_DIAG)


def exp_R(t, engine):
    """e^(t R), cubic in t as R is nilpotent; z^R is e^(t R) at t = log z."""
    M = [[engine.real(0)] * 4 for _ in range(4)]
    for k, j, p, c in _exp_R_terms():
        M[k][j] = engine.real(c) * t ** p
    return tuple(map(tuple, M))


# -- sectorial solutions ----------------------------------------------------

#: the sector of the admissible line (a ``SectorConfig`` field) that every
#: base point of an extraction lies in: a Stokes point needs both Y_L and
#: Y_R, i.e. their overlap Pi_+; a connection point needs Y_R
STOKES_SECTOR = "pi_plus"
CONNECTION_SECTOR = "pi_right"


def check_sector(points, sector, label="z"):
    """Raise SectorError unless arg z lies in the named sector (a field of
    ``sector_config()``) for every point z; ``label`` names the points in
    the message."""
    interval = getattr(sector_config(), sector)
    for z in points:
        if not in_interval(z.arg, interval):
            raise SectorError(f"arg {label} = {z.arg} outside {sector} = {interval}")


#: scalar building blocks: a column is sum of coef * PREF[kind] * (-1)^m *
#: phi_kind(z eps^m); the (-1)^m is the half-integer power of the rotation.
_YR_SPECS = (
    ((1, PHI2, 0),),
    ((1, PHI1, 2),),
    ((1, PHI1, 1),),
    ((1, PHI1, 0),),
)
_YL_SPECS = (
    ((1, PHI2, -1),),
    ((1, PHI1, -1),),
    ((1, PHI1, -2), (5, PHI1, -1)),
    ((1, PHI1, 0),),
)
#: alternative expression for the third left column.  Solving for the
#: combination in Frobenius coordinates gives
#:     y^L_43 = F(z eps) + 4 G(z eps^-1) + 5 F(z),
#: identical (as a solution germ) to the primary expression above (the tests
#: compare the two on the overlap); the commonly displayed variant carries -4
#: on the first-column term, which fails that comparison by ~2% and is
#: recorded as a sign typo.
_YL_COL3_ALT = ((1, PHI1, 1), (4, PHI2, -1), (5, PHI1, 0))


def _prefactor(kind, engine):
    """pref(kind), the scalar factor of F (PHI1) or G (PHI2) without its
    power of z, at the precision of the call."""
    if kind is PHI1:
        return engine.complex(-1) / (2 * engine.sqrt(engine.real(2)) * engine.pi ** 2)
    return engine.complex(-1) / (engine.sqrt(engine.real(2)) * engine.pi ** 3)


#: the report's text of the prefactors F and G of the module docstring and
#: of the two expressions of the third left column; the second prefactor
#: differs from the commonly displayed sqrt(2) i/pi^2 form by exactly 2 pi i
#: (recorded, not forced)
PREFACTORS = {
    "phi1_column": "-z^(3/2)/(2*sqrt(2)*pi^2)",
    "phi2_column": "-z^(3/2)/(sqrt(2)*pi^3)",
    "phi2_vs_alternate_display_ratio": complex(0, -1 / (2 * math.pi)),
    "left_column3": "F(z*eps^-2) + 5*F(z*eps^-1)",
    "left_column3_alternate": "F(z*eps) + 4*G(z*eps^-1) + 5*F(z)",
}


def scalar_column_derivatives(spec, z, order, engine, tol=None):
    """phi-hat and its first three derivatives at z for a column spec.

    phi-hat(z) = sum coef * pref(kind) * (-1)^m * phi_kind(z eps^m); the
    chain rule turns each z-derivative into eps^m times the rotated-argument
    derivative, so derivative d of a term is one factor (``_term_factors``)
    times the series' d-th derivative at z eps^m.  Derivative d is one
    ``engine.fdot`` of the terms' factors and values, the operand it
    returns, for the lift to read.
    ``tol`` is the tail-certificate tolerance for the series evaluations
    (defaults to the engine's working accuracy).
    """
    factors, values = [], []
    for coef, kind, m in spec:
        series = phi_series(kind, order, engine)
        w = z.rotated(m)
        factors.append(_term_factors(coef, kind, m, engine))
        values.append([eval_series(series, w, m=d, engine=engine, tol=tol) for d in range(4)])
    return [engine.fdot(f, v) for f, v in zip(zip(*factors), zip(*values))]


@functools.lru_cache(maxsize=None)
def _term_factors(coef, kind, m, engine):
    """coef * pref(kind) * (-1)^m * (eps^m)^d for d = 0..3,
    eps = e^(2 pi i/3), once per engine, as engine operands: formed with the
    prefactor inside ``engine.guarded()``, under mp ``GUARD_BITS`` above the
    working precision, and not rounded after it, each within
    2^(6 - prec - GUARD_BITS) of its own modulus of the exact factor."""
    with engine.guarded():
        c = coef * _prefactor(kind, engine) * (-1) ** (m % 2)
        epsm = engine.exp(2 * engine.i * engine.pi * m / 3)
        return tuple(engine.operand(c * epsm ** d) for d in range(4))


def vector_from_scalar(derivs, z, engine):
    """Lift a scalar solution (given with derivatives 0..3 at z) to the 4x4
    system: y4 = z^(3/2) phi, y3 = z^(3/2) phi'/3,
    y2 = (z^(3/2) phi'' + z^(1/2) phi')/18,
    y1 = (z^2 phi''' + phi' + 3 z phi'' - 54 z^2 phi)/(54 sqrt z)
       = z^(3/2)/54 phi''' + phi'/(54 sqrt z) + sqrt z/18 phi'' - y4,
    with the factors read from the point's ``PointData.lift``, so the lift
    takes no division.  Each entry is one ``engine.fdot`` of its factors and
    derivatives, y1 with -z^(3/2) as the factor of phi: the operand it
    returns, which the solves read as it is."""
    p0, p1, p2, p3 = derivs
    z32, z32_3, z32_18, sz_18, z32_54, inv_54sz, neg_z32 = point_data(z, engine).lift
    fdot = engine.fdot
    return (fdot((z32_54, inv_54sz, sz_18, neg_z32), (p3, p1, p2, p0)),
            fdot((z32_18, sz_18), (p2, p1)),
            fdot((z32_3,), (p1,)),
            fdot((z32,), (p0,)))


def _assemble(specs, z, order, engine, sector, tol=None):
    check_sector([z], sector)
    cols = []
    for spec in specs:
        derivs = scalar_column_derivatives(spec, z, order, engine, tol=tol)
        cols.append(vector_from_scalar(derivs, z, engine))
    return tuple(zip(*cols))


def assemble_YR(z, order, engine, tol=None):
    """The right sectorial solution at a universal-cover point of Pi_right."""
    return _assemble(_YR_SPECS, z, order, engine, "pi_right", tol=tol)


def assemble_YL(z, order, engine, tol=None):
    """The left sectorial solution at a universal-cover point of Pi_left."""
    return _assemble(_YL_SPECS, z, order, engine, "pi_left", tol=tol)


# -- extraction -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def dominance_order():
    """sigma: the indices of the canonical coordinates ordered by growing
    Re(u e^(i pi/4)) on the admissible line, read once.  The dominance
    permutation P has P[i][sigma[i]] = 1, so entry (i, j) of P M P^(-1) is
    M[sigma[i]][sigma[j]] and column j of M P^(-1) is column sigma[j] of M."""
    u = complex_canonical_coordinates()
    w = complex(math.cos(ADMISSIBLE_ANGLE), math.sin(ADMISSIBLE_ANGLE))
    return tuple(sorted(range(4), key=lambda k: (u[k] * w).real))


def dominance_permutation():
    """The permutation matrix P of ``dominance_order``, which
    upper-triangularizes S'."""
    return tuple(tuple(int(j == s) for j in range(4)) for s in dominance_order())


class StokesData(NamedTuple):
    """The Stokes stage's matrices and residuals.  A NamedTuple, not a
    dataclass: see ``monodromy_lab.record``."""

    s_prime: tuple          # snapped integer S'
    P: tuple
    S: tuple
    z0s: list
    residuals: dict         # stokes_constancy, stokes_snap


def stokes_points(z0):
    """The Stokes base points: z0 and z0 rotated by -0.05 and +0.05 rad."""
    return [
        UCComplex(z0.modulus, z0.arg_over_pi - 0.05 / math.pi),
        z0,
        UCComplex(z0.modulus, z0.arg_over_pi + 0.05 / math.pi),
    ]


def connection_points(z0):
    """The connection base points: z0 with half and twice its modulus."""
    m = float(z0.modulus)
    return [
        UCComplex(m / 2, z0.arg_over_pi),
        z0,
        UCComplex(m * 2, z0.arg_over_pi),
    ]


def heldout_point(z0):
    """The connection check point, none of ``connection_points(z0)``."""
    return UCComplex.polar(float(z0.modulus) * 4 / 5, z0.arg + 0.1)


@contextlib.contextmanager
def _at_point(z):
    """Put the point before the message of an ArithmeticError raised
    inside, keeping its type: "at z = 5e-301,0.785: ..."."""
    try:
        yield
    except ArithmeticError as exc:
        exc.args = (f"at z = {z}: {exc}",)
        raise


def _extract(engine, z0s, lhs, rhs):
    """Solve lhs(z0) X = rhs(z0) at every base point z0.  Returns the
    middle point's X and the spread, the largest entrywise difference
    between any two of the solutions (0.0 for a single point)."""
    mats = []
    for z0 in z0s:
        with _at_point(z0):
            mats.append(engine.solve(lhs(z0), rhs(z0)))
    spread = max((max_deviation(a, b) for a, b in itertools.combinations(mats, 2)),
                 default=0.0)
    return mats[len(mats) // 2], spread


def stokes_matrix(engine, z0s, order, snap_tol):
    """S' from Y_R(z0)^(-1) Y_L(z0) at several z0 in Pi_+ (the assembly of
    Y_R and Y_L checks Pi_right and Pi_left, whose intersection it is), as
    the nearest integers of the middle solve; S = P S' P^(-1) is the
    upper-triangular Stokes matrix, read through ``dominance_order``.

    Returns StokesData with residuals ``stokes_constancy`` (max spread
    across base points) and ``stokes_snap``, the ``max_deviation`` of the
    middle solve from S' in the engine's own arithmetic.  A non-finite
    entry, like a distance above ``snap_tol``, raises SnapError.
    """
    z0s = list(z0s)
    mid, spread = _extract(engine, z0s, lambda z: assemble_YR(z, order, engine),
                           lambda z: assemble_YL(z, order, engine))
    for i, j in itertools.product(range(4), repeat=2):
        # log2 |x| is inf or NaN for a non-finite x, which fails
        if not log2_magnitude(mid[i][j]) < math.inf:
            raise SnapError(f"entry ({i},{j}) = {mid[i][j]} is not finite")
    s_prime = tuple(tuple(round(x.real) for x in row) for row in mid)
    snap = max_deviation(mid, s_prime)
    if snap > snap_tol:
        raise SnapError(f"S' is not within {snap_tol} of an integer matrix: "
                        f"an entry is {snap} from the nearest integer")
    sigma = dominance_order()
    return StokesData(s_prime=s_prime, P=dominance_permutation(),
                      S=tuple(tuple(s_prime[a][b] for b in sigma) for a in sigma), z0s=z0s,
                      residuals={"stokes_constancy": spread, "stokes_snap": snap})


class ConnectionData(NamedTuple):
    """The connection stage's matrices and residuals.  A NamedTuple, not a
    dataclass: see ``monodromy_lab.record``."""

    c_prime: tuple
    C: tuple
    z0s: list
    residuals: dict         # connection_stability, connection_heldout


def connection_matrix(engine, z0s, order):
    """C' from Y_top(z0)^(-1) Y_R(z0) at small z0 in Pi_right
    (``CONNECTION_SECTOR``, checked by the assembly of Y_R); C = C' P^(-1),
    with P the dominance permutation of the Stokes extraction, whose
    columns ``dominance_order`` reads.

    Residuals: ``connection_stability`` (spread across radii; instability
    signals a branch or truncation error) and ``connection_heldout`` (defect
    of Y_R - Y_top C' at ``heldout_point`` of the middle base point, which
    is not used in the fit).
    """
    z0s = list(z0s)
    c_prime, spread = _extract(engine, z0s, lambda z: eval_Ytop(z, order, engine),
                               lambda z: assemble_YR(z, order, engine))

    zh = heldout_point(z0s[len(z0s) // 2])
    with _at_point(zh):
        YR = tuple(tuple(map(engine.number, row)) for row in assemble_YR(zh, order, engine))
        held = max_deviation(YR, engine.matmul(eval_Ytop(zh, order, engine), c_prime))

    sigma = dominance_order()
    C = tuple(tuple(row[s] for s in sigma) for row in c_prime)
    return ConnectionData(c_prime=c_prime, C=C, z0s=z0s,
                          residuals={"connection_stability": spread, "connection_heldout": held})


# -- constraints -------------------------------------------------------------

def verify_constraints(S, C, engine):
    """Residuals of the two monodromy constraints:

    (i)   C S^T S^(-1) C^(-1) = e^(2 pi i mu) e^(2 pi i R)
    (ii)  S = C^(-1) e^(-pi i R) e^(-pi i mu) eta^(-1) (C^T)^(-1)

    S holds exact entries (int or Fraction; a float is taken as it is): it
    is a Stokes matrix, unipotent upper-triangular, so S^(-1) and S^T S^(-1)
    are formed exactly (``ring.unipotent_inverse``, ``ring.matmul``), and
    S and S^T S^(-1) go to ``Engine.matmul`` and ``max_deviation`` as they
    are: both read integers exactly.  e^(2 pi i mu) = -I and
    e^(-pi i mu) = diag(-i, i, -i, i) are exact units
    (``exp_mu_units``) that scale rows or columns without rounding, and the
    anti-diagonal 0/1 eta is its own inverse and acts as a column reversal:
    both right-hand factors are built once per engine
    (``_constraint_targets``).  (C^T)^(-1) is the transpose of C^(-1).  So
    the residuals take no exponential, one inverse and four engine
    products.
    """
    St_S_inv = matmul(tuple(zip(*S)), unipotent_inverse(S))
    cyclic, middle = _constraint_targets(engine)
    C_inv = engine.inverse(C)
    C_inv_T = tuple(zip(*C_inv))
    mul = engine.matmul
    return {"constraint_cyclic": max_deviation(mul(mul(C, St_S_inv), C_inv), cyclic),
            "constraint_pairing": max_deviation(S, mul(mul(C_inv, middle), C_inv_T))}


@functools.lru_cache(maxsize=None)
def _constraint_targets(engine):
    """e^(2 pi i mu) e^(2 pi i R) and e^(-pi i R) e^(-pi i mu) eta in the
    engine: e^(tR) scaled by the exact units of ``exp_mu_units`` (rows for
    the first, columns for the second, whose column j is then column 3 - j
    for eta)."""
    E1, unit1 = exp_R(2 * engine.i * engine.pi, engine), exp_mu_units(2)
    E2, unit2 = exp_R(-engine.i * engine.pi, engine), exp_mu_units(-1)
    return (tuple(tuple(unit1[i] * x for x in row) for i, row in enumerate(E1)),
            tuple(tuple(row[3 - j] * unit2[3 - j] for j in range(4)) for row in E2))
