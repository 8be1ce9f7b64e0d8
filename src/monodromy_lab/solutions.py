"""Scalar solutions of the quantum differential equation of LG(2,4).

The 4x4 flat-section system at the semisimple point q=1 reduces to the
scalar ODE

    D^4 phi - 108 z^3 D phi - 162 z^3 phi = 0,      D = z d/dz,

whose indicial equation at z=0 is r^4 = 0.  Every solution is a log-series

    phi(z) = sum_n z^(3n) * (a_n + b_n log z + c_n (log z)^2 + d_n (log z)^3)

with (a_0, b_0, c_0, d_0) free and higher blocks fixed by the recursion
obtained from the ODE.  This module builds:

* the quantum period (the unique log-free solution with a_0 = 1),
* the Frobenius basis (initial blocks = unit vectors),
* the two Mellin-Barnes solutions phi1, phi2 as globally convergent
  log-series from the Gamma class (``ktheory.gamma_class``), with their
  contour-integral representations (kept as an independent oracle),
* the Euler and rotation identities tying phi1, phi2 and the rotation
  z -> z*eps, eps = e^(2 pi i/3).

All arguments live on the universal cover of C*: a point is a pair
(modulus, arg), with arg stored in units of pi so that rotations by eps and
sector bookkeeping stay exact.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

from monodromy_lab.closedform import I, PI, evaluate
from monodromy_lab.engine import LOG2_SLACK, log2_magnitude, matrix_steps
from monodromy_lab.ktheory import H, _exp_nilpotent, gamma_class
from monodromy_lab.record import Record
from monodromy_lab.ring import CohClass, classical_product


class MellinIntegrand(enum.Enum):
    PHI1 = "phi1"
    PHI2 = "phi2"


PHI1, PHI2 = MellinIntegrand.PHI1, MellinIntegrand.PHI2

#: validity sectors (in units of pi) of the two contour-integral
#: representations along a vertical line Re s = kappa; outside them the
#: log-series is the only evaluation path.  For the first integrand the
#: e^(i pi s) factor grows like e^(pi|t|) down the line, so the vertical
#: contour converges only for arg z > -pi/6; combined with the upper bound
#: of the representation this leaves (-pi/6, pi/2).
CONTOUR_SECTORS = {
    PHI1: (Fraction(-1, 6), Fraction(1, 2)),
    PHI2: (Fraction(-5, 6), Fraction(5, 6)),
}


class SectorError(ValueError):
    """Argument of z outside the validity sector of a representation."""


class TailBoundError(ArithmeticError):
    """Series truncation order too small for the requested point."""


class UCComplex(Record):
    """A nonzero point on the universal cover of C*, at finite coordinates.

    ``arg_over_pi`` is the (unrestricted) argument divided by pi; it is kept
    as a Fraction whenever it is one, so rotations by eps^k add exactly
    2k/3.  Points compare and hash by (modulus, arg_over_pi).  A
    ``Record``, not a dataclass: see ``monodromy_lab.record``.
    """

    __slots__ = _fields = ("modulus", "arg_over_pi")

    def __init__(self, modulus, arg_over_pi):
        if not (modulus > 0 and math.isfinite(modulus) and math.isfinite(arg_over_pi)):
            raise ValueError("modulus must be positive and finite, and arg_over_pi finite")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "arg_over_pi", arg_over_pi)

    def __str__(self):
        """The point as the command line writes it, "MOD,ARG"."""
        return f"{float(self.modulus):g},{self.arg:.6g}"

    @classmethod
    def polar(cls, modulus, arg):
        """Construct from a radian argument (kept exact if Fraction*pi-free)."""
        return cls(modulus, arg / math.pi)

    @property
    def arg(self):
        return float(self.arg_over_pi) * math.pi

    def rotated(self, thirds):
        """Multiply by eps^thirds, eps = e^(2 pi i/3).

        Exactness matters: columns of the sectorial solutions combine
        phi(z eps^m) with phase factors ((-1)^m) that assume the rotation is
        exactly a cube root of unity; a float-rounded angle would leave a
        defect that the ill-conditioned Stokes extraction amplifies.  The
        argument is therefore promoted to an exact Fraction of pi.
        """
        return UCComplex(self.modulus, Fraction(self.arg_over_pi) + Fraction(2, 3) * thirds)

    def log(self, engine):
        """log z in the engine: ln(modulus) + i*pi*arg_over_pi, with
        ln(modulus) and i*pi formed once per modulus and engine, under mp
        ``GUARD_BITS`` above the working precision (``_log_modulus``,
        ``_i_pi``); the sum is formed at the precision of the call, which
        is the guarded one in ``PointData``."""
        return _log_modulus(self.modulus, engine) + _i_pi(engine) * engine.real(self.arg_over_pi)


class LogSeries(Record):
    """Truncated series  sum_n z^(rho+3n) * sum_k a[n][k] (log z)^k,  k <= 3.

    ``blocks[n][k]`` are exact Fractions for the Frobenius-type solutions
    and engine operands (``Engine.operand``) for the residue series:
    (re, im, exp) at the block's exponent, which ``Engine.number`` rounds.
    ``rho`` is 0 for scalar ODE solutions and -m for the m-th derivative
    series.
    It hashes by identity, so caches key on it without reading its blocks.
    A ``Record``, not a dataclass: see ``monodromy_lab.record``.  It keeps a
    ``__dict__`` for the cached derivative.
    """

    _fields = ("rho", "blocks")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rho, blocks):
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "blocks", blocks)

    @property
    def order(self):
        return len(self.blocks)

    def derivative(self):
        """Term-by-term d/dz (lowers every exponent by one): block n maps by
        rho + 3n + d/d(log z), the bidiagonal integer matrix with rho + 3n
        on the diagonal and k + 1 at (k, k+1), through
        ``engine.matrix_steps``.  Exact for Fractions and for operands,
        whose derivative is an exact integer map with no rounding.

        Built once per series and kept on it, so the cached residue series
        carry their derivative series from one evaluation to the next.
        """
        return self._derivative

    @functools.cached_property
    def _derivative(self):
        blocks = []
        for n, blk in enumerate(self.blocks):
            c = self.rho + 3 * n
            d = ((c, 1, 0, 0), (0, c, 2, 0), (0, 0, c, 3), (0, 0, 0, c))
            blocks.append(matrix_steps(blk, [(d, 1)])[0])
        return LogSeries(rho=self.rho - 1, blocks=tuple(blocks))

    def initial_block(self):
        """Leading block (a_0, b_0, c_0, d_0): coordinates in the Frobenius basis."""
        return self.blocks[0]


# -- recursion ----------------------------------------------------------

@functools.cache
def _recursion_matrix(n):
    """(Q_n, (3n)^7) with block_n = Q_n block_(n-1) / (3n)^7, the ODE's
    recursion (3n + d)^4 p_n = (324n - 162) p_(n-1) + 108 d p_(n-1) on cubic
    blocks, d = d/d(log z).  On cubics (3n)^7 (3n + d)^-4 is
    c^3 - 4 c^2 d + 10 c d^2 - 20 d^3 (binomials of -4, c = 3n), and d^m
    has the entries (k+m)!/k! at (k, k+m), so Q_n is upper-triangular with
    integer entries.  Built once per n."""
    c = 3 * n
    inverse = (c ** 3, -4 * c ** 2, 10 * c, -20)
    rhs = (324 * n - 162, 108)
    r = [inverse[m] * rhs[0] + (inverse[m - 1] * rhs[1] if m else 0) for m in range(4)]
    Q = tuple(tuple(r[j - k] * math.perm(j, j - k) if j >= k else 0 for j in range(4))
              for k in range(4))
    return Q, c ** 7


def _series_from_initial_block(block0, order, prec=None):
    """The scalar ODE's solution with block 0 ``block0``, to ``order``
    blocks: blocks 1..order-1 by ``engine.matrix_steps`` with the matrices
    of ``_recursion_matrix``: exact for Fractions, and for operands each
    coefficient an operand within the bound ``matrix_steps`` states of the
    exact recursion from block0, its divisions cut ``engine.GUARD_BITS``
    above ``prec``."""
    block0 = tuple(block0)
    steps = [_recursion_matrix(n) for n in range(1, order)]
    return LogSeries(rho=0, blocks=(block0, *matrix_steps(block0, steps, prec)))


@functools.lru_cache(maxsize=None)
def quantum_period(order):
    """The log-free normalized solution: coefficients (2d)!/(d!)^5, exactly."""
    if order < 1:
        raise ValueError("order must be >= 1")
    blocks = []
    for d in range(order):
        a = Fraction(math.factorial(2 * d), math.factorial(d) ** 5)
        blocks.append((a, Fraction(0), Fraction(0), Fraction(0)))
    return LogSeries(rho=0, blocks=tuple(blocks))


@functools.lru_cache(maxsize=None)
def frobenius_basis(order):
    """Four solutions with initial blocks (1,0,0,0) ... (0,0,0,1), exact."""
    if order < 1:
        raise ValueError("order must be >= 1")
    basis = []
    for k in range(4):
        block0 = tuple(Fraction(1 if j == k else 0) for j in range(4))
        basis.append(_series_from_initial_block(block0, order))
    return tuple(basis)


# -- residue series for phi1 / phi2 --------------------------------------

@functools.cache
def gamma_coordinates(kind):
    """Frobenius coordinates of phi1 times pi^(1/2), or of phi2 times
    pi^(-1/2), exact: block 0, 2 pi i Res_(s=0) g(s) z^(-3s).  By Legendre
    duplication s^4 g(s) is pi^(-1/2) e^(i pi s) Ghat(s) for PHI1 and
    pi^(1/2) sec(pi s) Ghat(s) for PHI2; Ghat(s) = Gamma(1+s)^5/Gamma(1+2s)
    is GammaHat^+ (``ktheory.gamma_class(+1)``) in powers of s = H.  With h_j
    the H^j coefficient of twist(H) GammaHat^+ (H^2 = 2 s2, H^3 = 2 s21), the
    (log z)^k coordinate is 2 pi i h_(3-k) (-3)^k / k!.  Built once per kind."""
    twist = _exp_nilpotent(H.scaled(I * PI)) if kind is PHI1 else CohClass((1, 0, PI ** 2, 0))
    c = classical_product(twist, gamma_class(+1)).coeffs
    h = (c[0], c[1], c[2] / 2, c[3] / 2)
    return tuple(2 * PI * I * h[3 - k] * Fraction((-3) ** k, math.factorial(k)) for k in range(4))


@functools.lru_cache(maxsize=None)
def phi_series(kind, order, engine):
    """Residue log-series of the chosen Mellin-Barnes solution.

    Block n carries 2 pi i times the residue of g(s) z^(-3s) at s = -n.
    Block 0 is ``gamma_coordinates`` (``closedform.evaluate``) times
    pi^(-1/2) (phi1) or pi^(1/2) (phi2), as engine operands; every later
    block follows by the recursion of the scalar ODE written as integer
    matrices, as for the Frobenius basis (``_series_from_initial_block``):
    in exact integers with guard bits carried from block to block,
    each coefficient an operand, never rounded, within the bound of
    ``engine.matrix_steps`` of the exact recursion from block 0.  No Gamma
    function and no quadrature is evaluated.  The result is entire in
    z^3 up to log weights and converges superexponentially, so it serves as
    the global evaluation path on the whole universal cover.  Built once
    per (kind, order, engine): the cached series carry their derivative
    series, and the block-pass caches key on their identity.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    scale = engine.sqrt(engine.pi) ** (-1 if kind is PHI1 else 1)
    block0 = tuple(engine.operand(evaluate(x, engine) * scale) for x in gamma_coordinates(kind))
    return _series_from_initial_block(block0, order, engine.prec)


# -- evaluation -----------------------------------------------------------

#: how many (point, engine) records ``point_data`` keeps, the least recently
#: used dropped first; a verification visits 27 points (five rotations of
#: each Stokes base point, three of each connection point)
POINTS_SIZE = 32


@functools.lru_cache(maxsize=POINTS_SIZE)
def _log_modulus(modulus, engine):
    """ln(modulus) as an engine complex number, formed inside
    ``engine.guarded()``; the points of a verification share few moduli
    (its 15 Stokes points one)."""
    with engine.guarded():
        return engine.complex(engine.log(engine.real(modulus)), 0)


@functools.cache
def _i_pi(engine):
    """i pi in the engine, formed once per engine inside
    ``engine.guarded()``."""
    with engine.guarded():
        return engine.i * engine.pi


class PointData:
    """What every evaluation at one point z in one engine reads, each
    computed once per record (``point_data`` caches the records): l = log z,
    also as an engine operand (``Engine.operand``), and the point-class key
    (modulus, arg/pi mod 2/3) on construction; z^(1/2) and its powers,
    log2 |l|, e^(3l), and as operands z^-1 to z^-3 and the lift factors of
    ``monodromy.vector_from_scalar``, on first use.  The kernels that take
    the operands at every call then read none of them again.

    Each value is formed inside ``engine.guarded()``, under mp
    ``GUARD_BITS`` above the working precision, from l formed there too,
    and reaches the kernels unrounded: an operand holds the exact parts of
    the guarded number.  l lies within B = 2^(6 - prec - GUARD_BITS)
    (1 + |l|) of log z, and every other value within B times its own
    modulus of its exact value at z: each of the few roundings is a
    relative 2^-(prec + GUARD_BITS), and e^(l/2) and e^(3l) carry the error
    of l into a relative error at most three times as large.  Under double
    ``guarded`` is a no-op, and each value is a double, which its operand
    reads exactly."""

    def __init__(self, z, engine):
        self.engine = engine
        with engine.guarded():
            self.l = z.log(engine)
        self.l_operand = engine.operand(self.l)
        self.key = (z.modulus, Fraction(z.arg_over_pi) % Fraction(2, 3))

    @functools.cached_property
    def half_powers(self):
        """(z^(1/2), z, z^(3/2)), from e^(l/2), the point's one exponential."""
        with self.engine.guarded():
            h = self.engine.exp(self.l / 2)
            z = h * h
            return h, z, h * z

    @functools.cached_property
    def log2_labs(self):
        """log2 |l| within ``LOG2_SLACK`` (-inf at l = 0), which every tail
        certificate at the point reads; it takes no mp arithmetic."""
        return log2_magnitude(self.l)

    @functools.cached_property
    def inverse_powers(self):
        """(1, z^-1, z^-2, z^-3) as operands: z^rho of a derivative series
        is entry -rho."""
        with self.engine.guarded():
            inverse = 1 / self.half_powers[1]
            return (1,) + tuple(self.engine.operand(inverse ** k) for k in (1, 2, 3))

    @functools.cached_property
    def lift(self):
        """(z^(3/2), z^(3/2)/3, z^(3/2)/18, z^(1/2)/18, z^(3/2)/54,
        1/(54 z^(1/2)), -z^(3/2)) as operands: the factors of
        ``monodromy.vector_from_scalar``, so that its lift takes no division;
        the negation is exact."""
        h, _, z32 = self.half_powers
        with self.engine.guarded():
            factors = z32, z32 / 3, z32 / 18, h / 18, z32 / 54, 1 / (54 * h), -z32
        return tuple(map(self.engine.operand, factors))

    @functools.cached_property
    def cube(self):
        """w = z^3 as e^(3l).  A block pass reads it at its class
        representative only, so every point of a class, and a cache hit as
        a miss, reads the same w."""
        with self.engine.guarded():
            return self.engine.exp(3 * self.l)


point_data = functools.lru_cache(maxsize=POINTS_SIZE)(PointData)


#: how far a float log2 bound of the tail certificate may be off, relative
#: to the size of the log2 values it is formed from, by the rounding of the
#: few float operations that form it, with room to spare: each operation is
#: off by at most 2^-53 of its result, and ``math.log2`` by about as much
ROUNDING = 2.0 ** -45

#: how many (series, point class, engine) block sums ``_block_sums`` keeps,
#: the least recently used dropped first; one base point of an extraction
#: needs eight (phi1 and phi2, each with its derivatives 1-3)
BLOCK_SUMS_SIZE = 32


@functools.lru_cache(maxsize=None)
def _prepare(series, engine):
    """What every block pass of one series in one engine reads, converted
    once per series and engine (the cache keys on the series' identity):
    the coefficient columns in the form of ``Engine.horner``, with the
    mantissa bit-length bounds that cut each column's pass, and the tail's
    log2 magnitudes (rho + 3n, (log2|a0|, ..., log2|a3|)), each within
    ``LOG2_SLACK`` (``engine.log2_magnitude``, no mp arithmetic), for the
    last three blocks (all, for a shorter series).  Each coefficient is
    read once, by ``Engine.operand``: an operand as it is, and an exact
    (Fraction) one floored to ``engine.GUARD_BITS`` bits above the working
    precision, as Phi_top's coefficients are read."""
    blocks = [tuple(map(engine.operand, blk)) for blk in series.blocks]
    tail = tuple((series.rho + 3 * n, tuple(map(log2_magnitude, blocks[n])))
                 for n in range(max(0, len(blocks) - 3), len(blocks)))
    return engine.horner_columns(blocks), tail


@functools.lru_cache(maxsize=BLOCK_SUMS_SIZE)
def _block_sums(series, modulus, arg_over_pi, engine):
    """One block pass of ``series`` at the point class (modulus,
    arg_over_pi), as the pair (sums, majorant).  ``sums[k]`` is
    T_k(w) = sum_n w^n a_k[n], w = z^3 at the class representative, summed
    by Horner (``Engine.horner``, which skips the leading blocks below the
    working precision) as the operand it returns, so the series
    at any point z of the class is z^rho (T0 + l (T1 + l (T2 + l T3))),
    l = log z.  ``majorant`` is the certificate's one majorant block, four
    floats: for each k = 0..3 an upper bound M_k on the log2 of the largest
    |z|^(rho+3n) |a_k[n]| over the blocks n of the certificate (-inf if all
    are 0), M_k = max_n ((rho+3n) log2|z| + log2|a_k[n]|) raised by the
    slack of its log2 magnitudes (``LOG2_SLACK``) and the rounding of
    log2|z|, of the product and of the sum (``ROUNDING``); it takes no mp
    arithmetic.  Kept in an LRU cache keyed on the series' identity
    (``LogSeries`` hashes by it).  Leaving the engine's range anywhere in
    the pass is a TailBoundError."""
    try:
        columns, tail = _prepare(series, engine)
        w = point_data(UCComplex(modulus, arg_over_pi), engine).cube
        log2r = math.log2(modulus)
        exponents = [[c * log2r + g for g in logs] for c, logs in tail]
        size = max((abs(c) * (abs(log2r) + 1) + abs(g)
                    for c, logs in tail for g in logs if g > -math.inf), default=0)
        slack = LOG2_SLACK + ROUNDING * size
        return engine.horner(columns, w), tuple(max(col) + slack for col in zip(*exponents))
    except OverflowError as exc:
        raise _range_error(modulus, engine) from exc


def _range_error(modulus, engine):
    """The TailBoundError of a series that leaves the engine's range at
    |z| = modulus."""
    return TailBoundError(f"the series at |z|={float(modulus)} leaves the range "
                          f"of the {engine.name} engine")


def _tail_bound(block_pass, point):
    """The certificate's bound on the truncated tail at a call at the point
    with l = log z, in log2: an upper bound on log2 sum_k 2^(M_k) |l|^k over
    the majorant block M of ``block_pass`` (``_block_sums``), so at least
    log2 of the largest of |z|^(rho+3n) sum_k |a_k[n]| |l|^k over the
    certificate's blocks, each an upper bound on
    |z^(rho+3n) (a0 + l (a1 + ...))|.  It reads the
    point's log2 |l| (within ``LOG2_SLACK``) and adds the rounding of its
    few float operations (``ROUNDING``); at l = 0 only the k = 0 term is
    left, without forming 0 (-inf).  -inf if every term is 0."""
    m0, m1, m2, m3 = block_pass[1]
    terms, size = [m0], 4
    if point.log2_labs > -math.inf:
        up = point.log2_labs + LOG2_SLACK
        terms += [m1 + up, m2 + 2 * up, m3 + 3 * up]
        size += 3 * abs(up)
    top = max(terms)
    if top == -math.inf:
        return top
    size += max(abs(t) for t in terms if t > -math.inf)
    return top + math.log2(sum(2.0 ** (t - top) for t in terms)) + ROUNDING * size


def _log2_floor(x):
    """A lower bound on log2 |x|: ``log2_magnitude`` less its slack and its
    rounding."""
    g = log2_magnitude(x)
    return g - LOG2_SLACK - ROUNDING * abs(g)


@functools.cache
def _default_tol(engine):
    """The certificate's default tolerance, 10^(2-dps) in engine reals under
    mp and 1e-10 under double, with the lower bound on its log2 that the
    certificate compares (``_log2_floor``); read once per engine."""
    tol = 1e-10 if engine.name == "double" else engine.real(10) ** (2 - engine.dps)
    return tol, _log2_floor(tol)


def eval_series(series, z, engine, m=0, tol=None):
    """m-th derivative of a LogSeries at a universal-cover point.

    The derivative series is taken term by term (exact, and kept on the
    series by ``LogSeries.derivative``).  Rotating z by eps^m fixes w = z^3
    and shifts only l = log z, so the blocks are summed once per point
    class (modulus, arg mod 2 pi/3) into T_k(w) = sum_n w^n a_k[n]: one
    Horner pass in w at the class representative, kept in the LRU cache
    ``_block_sums``.  Each call returns z^rho (T0 + l (T1 + l (T2 + l T3)))
    with its own l, and so the same value whether its sums were cached or
    not: ``Engine.log_polynomial`` forms it in exact integers, cut to
    ``engine.GUARD_BITS`` bits above the working precision after each step,
    within the bound its docstring states.  The value is that kernel's
    operand (re, im, exp), not rounded, for the next kernel to read; a
    caller that computes with it in the engine's arithmetic rounds it with
    ``Engine.number``.  The point's l, |l|, z^-1 to z^-3 and class key, and
    the class's w, come from its ``PointData`` (the LRU cache
    ``point_data``), l, z^-1 to z^-3 and w formed under mp ``GUARD_BITS``
    above the working precision and read unrounded: a point takes one
    exponential, z^(1/2), and only if some call needs z^rho with rho != 0;
    a class takes one more, w, and only if some call misses the cache.

    The pass reads coefficient columns converted once per series and
    engine, each coefficient read once by ``Engine.operand`` (``_prepare``),
    exact (Fraction) ones too.  It runs in exact integers over the blocks
    that can reach the working precision, cut to ``engine.GUARD_BITS`` bits
    above the working precision after each block, and keeps each T_k as
    that operand (``Engine.horner``).

    A tail certificate bounds the last three blocks (all, for a
    shorter series) by one majorant block that the pass stores, the
    componentwise maximum M_k of |z|^(rho+3n) |a_k[n]| over those blocks:
    sum_k M_k |l|^k, at least every |z^(rho+3n) (a0 + l (a1 + l (a2 + l a3)))|,
    must lie below ``tol`` times max(1, |sum|) at this call's l (the default
    tol, read once per engine, is 10^(2-dps) under mp, 1e-10 under double).
    The comparison is made in log2 floats, which cover any number of
    digits and take no mp arithmetic: an upper bound on the log2 of the
    tail bound (``_tail_bound``) against lower bounds on log2 tol and
    log2 |sum|, read from the sum's exact parts.  Otherwise TailBoundError
    is raised, on a cache hit as on a miss; a non-finite w, z^rho or block
    sum is one too, named as the series leaving the engine's range.
    """
    if m not in (0, 1, 2, 3):
        raise ValueError("derivative order must be 0..3")
    cur = series
    for _ in range(m):
        cur = cur.derivative()
    if tol is None:
        tol, log2_tol = _default_tol(engine)
    else:
        log2_tol = _log2_floor(tol)

    point = point_data(z, engine)
    block_pass = _block_sums(cur, *point.key, engine)
    try:
        # z^rho is read only for a derivative series, so the series itself
        # takes no exponential at the point; under double, z^-3 may overflow
        scale = point.inverse_powers[-cur.rho] if cur.rho else 1
        total = engine.log_polynomial(block_pass[0], point.l_operand, scale)
    except OverflowError as exc:
        raise _range_error(z.modulus, engine) from exc
    log2_total = log2_magnitude(total)

    # log2 of tol max(|total|, 1) from below, less the rounding of its sum
    floor = max(log2_total - LOG2_SLACK, 0)
    if not _tail_bound(block_pass, point) <= log2_tol + floor - ROUNDING * (abs(log2_tol) + floor):
        raise TailBoundError(
            f"truncation order {series.order} too small at |z|={float(z.modulus)} "
            f"for tolerance {tol}"
        )
    return total


# -- contour-integral oracle ----------------------------------------------

def contour_eval(kind, z, engine):
    """Evaluate phi1/phi2 by quadrature along the vertical line Re s = kappa,
    with kappa = 1/2 for phi1 and 1/4 for phi2 (the first needs kappa > 0,
    the second 0 < kappa < 1/2).

    Only valid strictly inside the representation's sector (see
    CONTOUR_SECTORS).  The truncation height T is chosen from the
    integrand's exponential decay rates, which depend on arg z.  Retained as
    an independent cross-check of the residue series; the pipeline itself
    never calls this.
    """
    from monodromy_lab.special import integrand_value  # here, so verify skips special
    lo, hi = CONTOUR_SECTORS[kind]
    theta = float(z.arg_over_pi)
    if not (float(lo) < theta < float(hi)):
        raise SectorError(
            f"arg z = {theta} pi outside validity sector ({lo} pi, {hi} pi) of {kind.value}"
        )

    th = theta * math.pi
    if kind is PHI1:
        rate_up, rate_down = 2.5 * math.pi - 3 * th, 0.5 * math.pi + 3 * th
    else:
        rate_up, rate_down = 2.5 * math.pi - 3 * th, 2.5 * math.pi + 3 * th
    digits = 17 if engine.name == "double" else engine.dps + 3
    target = digits * math.log(10) + 12 + 3 * abs(math.log(float(z.modulus)))
    T = max(target / rate_up, target / rate_down, 4.0)
    if engine.name == "double":
        # keep every factor of the integrand inside double range: the
        # z-power alone reaches e^(3T|arg z|), the e^(i pi s) factor
        # e^(pi T); truncation error stays ~e^(-rate*T), far below 1e-9
        T = min(T, 650.0 / (3 * abs(th) + 1e-9), 200.0)

    lz = z.log(engine)
    kap = engine.real(0.5 if kind is PHI1 else 0.25)

    def f(t):
        s = kap + engine.i * t
        return integrand_value(kind, s, engine) * engine.exp(-3 * s * lz)

    # geometric splitting resolves the slowly decaying tail near sector edges
    side = [T / 27, T / 9, T / 3, T]
    points = [-x for x in reversed(side)] + [0] + side
    val = engine.quad(f, points)
    return engine.i * val


# -- identities ------------------------------------------------------------

def identity_residuals(z, order, engine):
    """Relative residuals of the Euler and rotation identities at z.

    Euler:     phi2(z eps^-1) - (2 pi phi1(z) - phi2(z)) = 0,
    rotation:  phi2(z eps^4) - 4 phi2(z eps^3) + 6 phi2(z eps^2)
               - 4 phi2(z eps) + phi2(z) = 0,

    both evaluated through the globally convergent residue series, so no
    sector restriction applies on the universal cover.
    """
    s1 = phi_series(PHI1, order, engine)
    s2 = phi_series(PHI2, order, engine)

    def value(series, w):
        return engine.number(eval_series(series, w, engine=engine))

    p1 = value(s1, z)
    p2 = value(s2, z)
    p2_rot = value(s2, z.rotated(-1))
    euler_num = engine.fabs(p2_rot - (2 * engine.pi * p1 - p2))
    euler_den = max(engine.fabs(2 * engine.pi * p1), engine.fabs(p2), engine.eps)
    euler_res = euler_num / euler_den

    vals = [value(s2, z.rotated(k)) for k in range(5)]
    rot_num = engine.fabs(vals[4] - 4 * vals[3] + 6 * vals[2] - 4 * vals[1] + vals[0])
    rot_den = max(max(engine.fabs(v) for v in vals), engine.eps)
    return euler_res, rot_num / rot_den

