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
from monodromy_lab.engine import LOG2_SLACK, log2_magnitude
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

    def shifted_by_turns(self, turns):
        """Multiply by e^(2 pi i * turns), exactly on the cover."""
        return UCComplex(self.modulus, Fraction(self.arg_over_pi) + 2 * Fraction(turns))

    def log(self, engine):
        """log z in the engine: ln(modulus) + i*pi*arg_over_pi."""
        return (engine.complex(engine.log(engine.real(self.modulus)), 0)
                + engine.i * engine.pi * engine.real(self.arg_over_pi))


class LogSeries(Record):
    """Truncated series  sum_n z^(rho+3n) * sum_k a[n][k] (log z)^k,  k <= 3.

    ``blocks[n][k]`` are exact Fractions for the Frobenius-type solutions and
    engine complex numbers for the residue series.  ``rho`` is the integer
    0 for scalar ODE solutions; the m-th derivative series has rho = -m.
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
        """Term-by-term d/dz (exact; lowers every exponent by one).

        Built once per series and kept on it, so the cached residue series
        carry their derivative series from one evaluation to the next.
        """
        return self._derivative

    @functools.cached_property
    def _derivative(self):
        out = []
        for n, blk in enumerate(self.blocks):
            c = self.rho + 3 * n
            row = []
            for k in range(4):
                val = c * blk[k]
                if k < 3:
                    val = val + (k + 1) * blk[k + 1]
                row.append(val)
            out.append(tuple(row))
        return LogSeries(rho=self.rho - 1, blocks=tuple(out))

    def initial_block(self):
        """Leading block (a_0, b_0, c_0, d_0): coordinates in the Frobenius basis."""
        return self.blocks[0]


# -- recursion ----------------------------------------------------------

def _dlog(poly):
    """d/d(log z) on a cubic block (tuple of 4 coefficients)."""
    return (poly[1], 2 * poly[2], 3 * poly[3], 0 * poly[0])


def _shift_inverse_pow4(poly, n):
    """Apply (3n + d/dl)^(-4) to a cubic block, exactly.

    (c + d)^(-4) = c^(-4) (1 - 4 d/c + 10 d^2/c^2 - 20 d^3/c^3) on cubics,
    with c = 3n and d = d/d(log z).
    """
    c = 3 * n
    d1 = _dlog(poly)
    d2 = _dlog(d1)
    d3 = _dlog(d2)
    out = []
    for k in range(4):
        v = poly[k] - 4 * d1[k] / c + 10 * d2[k] / (c * c) - 20 * d3[k] / (c * c * c)
        out.append(v / c ** 4)
    return tuple(out)


def _recursion_step(prev, n):
    """Block n from block n-1:  (3n+d)^4 p_n = (324n - 162) p_{n-1} + 108 p'_{n-1}."""
    rhs = tuple((324 * n - 162) * prev[k] + 108 * _dlog(prev)[k] for k in range(4))
    return _shift_inverse_pow4(rhs, n)


def _series_from_initial_block(block0, order):
    blocks = [tuple(block0)]
    for n in range(1, order):
        blocks.append(_recursion_step(blocks[-1], n))
    return LogSeries(rho=0, blocks=tuple(blocks))


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
    pi^(-1/2) (phi1) or pi^(1/2) (phi2); every later block follows by the
    exact recursion of the scalar ODE, as for the Frobenius basis.  No
    Gamma function and no quadrature is evaluated.  The result is entire in
    z^3 up to log weights and converges superexponentially, so it serves as
    the global evaluation path on the whole universal cover.  Built once
    per (kind, order, engine): the cached series carry their derivative
    series, and the block-pass caches key on their identity.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    scale = engine.sqrt(engine.pi) ** (-1 if kind is PHI1 else 1)
    block0 = tuple(evaluate(x, engine) * scale for x in gamma_coordinates(kind))
    return _series_from_initial_block(block0, order)


# -- evaluation -----------------------------------------------------------

#: how many (point, engine) records ``point_data`` keeps, the least recently
#: used dropped first; a verification visits 27 points (five rotations of
#: each Stokes base point, three of each connection point)
POINTS_SIZE = 32


class PointData:
    """What every evaluation at one point z in one engine reads, each
    computed once per record (``point_data`` caches the records): l = log z
    and the point-class key (modulus, arg/pi mod 2/3) on construction;
    z^(1/2) and its powers, z^-1 to z^-3, log2 |l|, e^(3l) and the lift
    factors of ``monodromy.vector_from_scalar``, on first use."""

    def __init__(self, z, engine):
        self.engine = engine
        self.l = z.log(engine)
        self.key = (z.modulus, Fraction(z.arg_over_pi) % Fraction(2, 3))

    @functools.cached_property
    def half_powers(self):
        """(z^(1/2), z, z^(3/2)), from e^(l/2), the point's one exponential."""
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
        """(1, z^-1, z^-2, z^-3): z^rho of a derivative series is entry -rho."""
        inverse = 1 / self.half_powers[1]
        return (1,) + tuple(inverse ** k for k in (1, 2, 3))

    @functools.cached_property
    def lift(self):
        """(z^(3/2), z^(3/2)/3, z^(3/2)/18, z^(1/2)/18, z^(3/2)/54,
        1/(54 z^(1/2))): the factors of ``monodromy.vector_from_scalar``,
        so that its lift takes no division."""
        h, _, z32 = self.half_powers
        return z32, z32 / 3, z32 / 18, h / 18, z32 / 54, 1 / (54 * h)

    @functools.cached_property
    def cube(self):
        """w = z^3 as e^(3l).  A block pass reads it at its class
        representative only, so every point of a class, and a cache hit as
        a miss, reads the same w."""
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
    the coefficient columns in the form of ``Engine.horner``, without
    trailing zero blocks (under double, those past n = 83) and, under mp,
    with the mantissa bit-length bounds that cut each column's pass; and
    the tail's log2 magnitudes (rho + 3n, (log2|a0|, ..., log2|a3|)), each
    within ``LOG2_SLACK`` (``engine.log2_magnitude``, no mp arithmetic), for
    the last three nonzero blocks (all, for a shorter series).  Exact
    (Fraction) coefficients enter through ``Engine.real``, the one rounding
    path for exact data.  A non-finite tail coefficient raises
    OverflowError."""
    blocks = series.blocks
    if isinstance(blocks[0][0], Fraction):
        blocks = [[engine.real(a) for a in blk] for blk in blocks]
    last = max((n for n, blk in enumerate(blocks) if any(blk)), default=0)
    blocks = blocks[:last + 1]
    first = max(0, len(blocks) - 3)
    tail = tuple((series.rho + 3 * n, tuple(map(log2_magnitude, blocks[n])))
                 for n in range(first, len(blocks)))
    if not all(g < math.inf for _, logs in tail for g in logs):
        raise OverflowError("a non-finite coefficient in the tail")
    return engine.horner_columns(blocks), tail


class _BlockSums(Record):
    """One block pass of a series at a point class.

    ``sums[k]`` is T_k(w) = sum_n w^n a_k[n] with w = z^3, so the series at
    any point z of the class is z^rho (T0 + l (T1 + l (T2 + l T3))),
    l = log z.  ``tail`` is the certificate's one majorant block, four
    floats: for each k = 0..3, an upper bound M_k on the log2 of the largest
    magnitude |z|^(rho+3n) |a_k[n]| over the blocks n of the certificate
    (-inf if all are 0).  It compares and hashes by identity.  A
    ``Record``, not a dataclass: see ``monodromy_lab.record``.
    """

    __slots__ = _fields = ("sums", "tail")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, sums, tail):
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "tail", tail)


@functools.lru_cache(maxsize=BLOCK_SUMS_SIZE)
def _block_sums(series, modulus, arg_over_pi, engine):
    """One block pass of ``series`` at the point class (modulus,
    arg_over_pi): the blocks summed by Horner in w (``Engine.horner``, which
    under mp skips the leading blocks below the working precision) at the
    class representative, and the certificate's majorant block in floats,
    M_k = max_n ((rho+3n) log2|z| + log2|a_k[n]|) raised by the slack of
    its log2 magnitudes (``LOG2_SLACK``) and the rounding of log2|z|, of the
    product and of the sum (``ROUNDING``); it takes no mp arithmetic.  Kept
    in an LRU cache keyed on the series' identity (``LogSeries`` hashes by
    it).  Leaving the engine's range anywhere in the pass is a
    TailBoundError."""
    try:
        columns, tail = _prepare(series, engine)
        w = point_data(UCComplex(modulus, arg_over_pi), engine).cube
        log2r = math.log2(modulus)
        exponents = [[c * log2r + g for g in logs] for c, logs in tail]
        size = max((abs(c) * (abs(log2r) + 1) + abs(g)
                    for c, logs in tail for g in logs if g > -math.inf), default=0)
        slack = LOG2_SLACK + ROUNDING * size
        majorant = tuple(max(column) + slack for column in zip(*exponents))
        return _BlockSums(engine.horner(columns, w), majorant)
    except OverflowError as exc:
        raise TailBoundError(f"the series at |z|={float(modulus)} leaves the range "
                             f"of the {engine.name} engine") from exc


def _tail_bound(sums, point):
    """The certificate's bound on the truncated tail at a call at the point
    with l = log z, in log2: an upper bound on log2 sum_k 2^(M_k) |l|^k over
    the majorant block M of ``sums``, so at least log2 of the largest of
    |z|^(rho+3n) sum_k |a_k[n]| |l|^k over the certificate's blocks, each
    an upper bound on |z^(rho+3n) (a0 + l (a1 + ...))|.  It reads the
    point's log2 |l| (within ``LOG2_SLACK``) and adds the rounding of its
    few float operations (``ROUNDING``); at l = 0 only the k = 0 term is
    left, without forming 0 (-inf).  -inf if every term is 0."""
    m0, m1, m2, m3 = sums.tail
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
    not.  The point's l, |l|, z^-1 to z^-3 and class key, and the class's
    w, come from its ``PointData`` (the LRU cache ``point_data``): a point
    takes one exponential, z^(1/2), and only if some call needs z^rho with
    rho != 0; a class takes one more, w, and only if some call misses the
    cache.

    The pass reads coefficient columns converted once per series and
    engine.  Exact (Fraction) coefficients enter through ``Engine.real``,
    the one rounding path for exact data.  Under mp the pass runs in exact
    integers over the blocks that can reach the working precision, cut to
    ``engine.GUARD_BITS`` bits above the working precision after each
    block, and rounds each T_k once, to nearest; under double it is a
    hardware-complex Horner loop over every block (``Engine.horner``).

    A tail certificate bounds the last three nonzero blocks (all, for a
    shorter series) by one majorant block that the pass stores, the
    componentwise maximum M_k of |z|^(rho+3n) |a_k[n]| over those blocks:
    sum_k M_k |l|^k, at least every |z^(rho+3n) (a0 + l (a1 + l (a2 + l a3)))|,
    must lie below ``tol`` times max(1, |sum|) at this call's l (the default
    tol, read once per engine, is 10^(2-dps) under mp, 1e-10 under double).
    The comparison is made in log2 floats, which cover any number of
    digits and take no mp arithmetic: an upper bound on the log2 of the
    tail bound (``_tail_bound``) against lower bounds on log2 tol and
    log2 |sum|.  Otherwise, and for any non-finite sum, TailBoundError is
    raised, on a cache hit as on a miss, as it is when the series leaves
    the engine's range.
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
    sums = _block_sums(cur, *point.key, engine)
    t0, t1, t2, t3 = sums.sums
    l = point.l
    total = t0 + l * (t1 + l * (t2 + l * t3))
    if cur.rho:
        total = point.inverse_powers[-cur.rho] * total

    # log2 of tol max(|total|, 1) from below, less the rounding of its sum;
    # log2 |total| is inf or NaN for a non-finite total, which fails
    log2_total = log2_magnitude(total)
    floor = max(log2_total - LOG2_SLACK, 0)
    if not (log2_total < math.inf and _tail_bound(sums, point)
            <= log2_tol + floor - ROUNDING * (abs(log2_tol) + floor)):
        raise TailBoundError(
            f"truncation order {series.order} too small at |z|={float(z.modulus)} "
            f"for tolerance {tol}"
        )
    return total


# -- contour-integral oracle ----------------------------------------------

def contour_eval(kind, z, engine, kappa=None, T=None):
    """Evaluate phi1/phi2 by quadrature along the vertical line Re s = kappa.

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
    if kappa is None:
        kappa = 0.5 if kind is PHI1 else 0.25
    if kind is PHI1 and kappa <= 0:
        raise ValueError("PHI1 contour needs kappa > 0")
    if kind is PHI2 and not 0 < kappa < 0.5:
        raise ValueError("PHI2 contour needs 0 < kappa < 1/2")

    th = theta * math.pi
    if kind is PHI1:
        rate_up, rate_down = 2.5 * math.pi - 3 * th, 0.5 * math.pi + 3 * th
    else:
        rate_up, rate_down = 2.5 * math.pi - 3 * th, 2.5 * math.pi + 3 * th
    if T is None:
        digits = 17 if engine.name == "double" else engine.dps + 3
        target = digits * math.log(10) + 12 + 3 * abs(math.log(float(z.modulus)))
        T = max(target / rate_up, target / rate_down, 4.0)
        if engine.name == "double":
            # keep every factor of the integrand inside double range: the
            # z-power alone reaches e^(3T|arg z|), the e^(i pi s) factor
            # e^(pi T); truncation error stays ~e^(-rate*T), far below 1e-9
            T = min(T, 650.0 / (3 * abs(th) + 1e-9), 200.0)

    lz = z.log(engine)
    kap = engine.real(kappa)

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

    p1 = eval_series(s1, z, engine=engine)
    p2 = eval_series(s2, z, engine=engine)
    p2_rot = eval_series(s2, z.rotated(-1), engine=engine)
    euler_num = engine.fabs(p2_rot - (2 * engine.pi * p1 - p2))
    euler_den = max(engine.fabs(2 * engine.pi * p1), engine.fabs(p2), engine.eps)
    euler_res = euler_num / euler_den

    vals = [eval_series(s2, z.rotated(k), engine=engine) for k in range(5)]
    rot_num = engine.fabs(vals[4] - 4 * vals[3] + 6 * vals[2] - 4 * vals[1] + vals[0])
    rot_den = max(max(engine.fabs(v) for v in vals), engine.eps)
    return euler_res, rot_num / rot_den


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
