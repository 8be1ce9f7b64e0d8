"""Scalar solutions: quantum period, Frobenius basis, Mellin-Barnes series,
contour oracle, rotation operator, and the Euler/rotation identities."""

import cmath
import collections
import importlib
import itertools
import math
import pathlib
from fractions import Fraction

import mpmath
import pytest

from monodromy_lab import engine as engine_module
from monodromy_lab import monodromy, solutions
from monodromy_lab.engine import GUARD_BITS, get_engine, max_deviation
from monodromy_lab.solutions import (
    PHI1,
    PHI2,
    SectorError,
    TailBoundError,
    UCComplex,
    contour_eval,
    eval_series,
    frobenius_basis,
    identity_residuals,
    phi_series,
    quantum_period,
)
from monodromy_lab import ktheory, special
from monodromy_lab.engine import Engine
from monodromy_lab.special import laurent_coefficients
from monodromy_lab.pipeline import RunConfig, run_verify
from oracles import (
    block_values,
    engine_real_certificate,
    gaussian,
    mpmath_context,
    ode_residual_blocks,
    recursion_step,
    residue_block,
    rotation_operator_matrix,
    series_from_coordinates,
    operand_value,
    series_value_enclosure,
    shifted_by_turns,
    within_enclosure,
)

E = get_engine("double")


def test_quantum_period_published_coefficients():
    series = quantum_period(6)
    got = [blk[0] for blk in series.blocks]
    assert got == [
        Fraction(1), Fraction(2), Fraction(3, 4), Fraction(5, 54),
        Fraction(35, 6912), Fraction(7, 48000),
    ]
    assert all(blk[1] == blk[2] == blk[3] == 0 for blk in series.blocks)
    assert series.rho == 0


def test_series_exponents_are_integers():
    # every exponent rho + 3n is an integer, so rho is an int, also on the
    # derivative series that eval_series sums
    for engine in (E, get_engine("mp", dps=40)):
        for series in (quantum_period(8), phi_series(PHI1, 20, engine)):
            for m in range(4):
                assert type(series.rho) is int and series.rho == -m, (engine, m)
                series = series.derivative()


def test_quantum_period_matches_ode_recursion():
    # closed form (2d)!/(d!)^5 against the Frobenius recursion, exactly
    closed = quantum_period(9)
    recursed = frobenius_basis(9)[0]
    assert closed.blocks == recursed.blocks
    assert closed.blocks[6][0] == Fraction(math.factorial(12), math.factorial(6) ** 5)


def test_frobenius_basis_solves_ode_exactly():
    basis = frobenius_basis(8)
    for k, series in enumerate(basis):
        assert series.initial_block() == tuple(
            Fraction(1 if j == k else 0) for j in range(4)
        )
        for blk in ode_residual_blocks(series):
            assert all(x == 0 for x in blk)


def test_recursion_matrices_match_the_dlog_oracle():
    # Q_n / (3n)^7 against (3n + d)^-4 ((324n - 162) + 108 d) applied to the
    # unit blocks in the _dlog form, exactly
    units = [tuple(Fraction(int(j == k)) for j in range(4)) for k in range(4)]
    for n in range(1, 121):
        Q, den = solutions._recursion_matrix(n)
        columns = [recursion_step(unit, n) for unit in units]
        assert [[Fraction(q, den) for q in row] for row in Q] == [
            [columns[j][k] for j in range(4)] for k in range(4)], n


def test_frobenius_basis_matches_the_dlog_oracle():
    basis = frobenius_basis(60)
    for k, series in enumerate(basis):
        unit = tuple(Fraction(int(j == k)) for j in range(4))
        assert series.blocks == series_from_coordinates(unit, 60).blocks, k


@pytest.mark.parametrize("dps, order", [(40, 40), (60, 40), (40, 120), (60, 120)])
def test_phi_series_blocks_lie_within_their_cut_bound(dps, order):
    # each part of each coefficient operand against the recursion run in
    # the _dlog form in exact Fractions from the same block-0 operands:
    # within the bound engine.matrix_steps states, c_0 = 0 and
    # c_n = |Q_n| c_(n-1) / (3n)^7 + 2^e_n, e_n the block's one exponent,
    # with no half ulp; and each block of the derivative series 1-3 the
    # exact derivative of its parent's operands
    engine = get_engine("mp", dps=dps)
    for kind in (PHI1, PHI2):
        series = phi_series(kind, order, engine)
        exact = list(zip(*map(gaussian, series.blocks[0])))
        bound = [Fraction(0)] * 4
        for n in range(1, order):
            exact = [recursion_step(part, n) for part in exact]
            (e,) = {exp for _, _, exp in series.blocks[n]}
            Q, den = solutions._recursion_matrix(n)
            bound = [sum(abs(q) * c for q, c in zip(row, bound)) / den + Fraction(2) ** e
                     for row in Q]
            got = zip(*map(gaussian, series.blocks[n]))
            for part, ref in zip(got, exact):
                assert all(abs(g - x) <= c for g, x, c in zip(part, ref, bound)), (kind, n)
        parent = series
        for m in range(1, 4):
            child = parent.derivative()
            for n, (a, b) in enumerate(zip(parent.blocks, child.blocks)):
                c, a = parent.rho + 3 * n, [*map(gaussian, a), (0, 0)]
                assert list(map(gaussian, b)) == [
                    tuple(c * x + (k + 1) * y for x, y in zip(a[k], a[k + 1]))
                    for k in range(4)], (kind, m, n)
            parent = child


def test_uccomplex_bookkeeping():
    z = UCComplex.polar(2.0, math.pi / 4)
    with pytest.raises(ValueError):
        UCComplex(-1.0, 0.0)
    # rotation by eps adds exactly 2 pi/3 on the cover
    w = z.rotated(1)
    assert w.arg_over_pi == Fraction(z.arg_over_pi) + Fraction(2, 3)
    assert abs(w.arg - z.arg - 2 * math.pi / 3) < 1e-15
    # log z, and so z^(3/2) = exp(3/2 log z), is single-valued in (modulus, arg)
    l = z.log(E)
    assert abs(l - complex(math.log(2), math.pi / 4)) < 1e-15
    full_turn = shifted_by_turns(z, 1)
    assert abs(full_turn.log(E) - (l + 2j * math.pi)) < 1e-14
    p = E.exp(E.complex(Fraction(3, 2)) * l)
    assert abs(p - cmath.exp(1.5 * l)) < 1e-14
    assert abs(p - 2 ** 1.5 * cmath.exp(1.5j * math.pi / 4)) < 1e-14


def test_uccomplex_refuses_non_finite_fields():
    # a NaN or infinite modulus is the caller's error, not a truncation
    # order too small at |z| = nan
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="modulus must be positive"):
            UCComplex(bad, 0.25)
        with pytest.raises(ValueError, match="arg_over_pi finite"):
            UCComplex(2.0, bad)


def test_eval_matches_direct_summation():
    series = quantum_period(12)
    z = UCComplex.polar(0.5, 0.0)
    direct = sum(float(blk[0]) * 0.5 ** (3 * n) for n, blk in enumerate(series.blocks))
    assert abs(eval_series(series, z, engine=E) - direct) < 1e-14


def test_eval_quantum_period_single_valued():
    # integer powers of z^3 only: invariant under arg -> arg + 2 pi and
    # under z -> z eps
    series = quantum_period(12)
    z = UCComplex.polar(0.7, 0.3)
    v0 = eval_series(series, z, engine=E)
    v1 = eval_series(series, shifted_by_turns(z, 1), engine=E)
    v2 = eval_series(series, z.rotated(1), engine=E)
    assert abs(v0 - v1) < 1e-13
    assert abs(v0 - v2) < 1e-13


def test_eval_tail_bound_error():
    with pytest.raises(TailBoundError):
        eval_series(quantum_period(5), UCComplex.polar(3.0, 0.0), engine=E)
    # too few blocks to certify: the partial sum 3.75 is far from 3.848
    with pytest.raises(TailBoundError):
        eval_series(quantum_period(3), UCComplex.polar(1.0, 0.0), engine=E)


def test_double_range_overflow_is_a_tail_bound_error():
    # far out, the double range ends: w = z^3 overflows at |z| = 1e110, its
    # tail powers at |z| = 1e3, and at |z| = 1e40 the sum turns NaN; near 0,
    # z^-2 and z^-3 are NaN at |z| = 5e-301 at any order.  Each is a named
    # certificate failure, never an OverflowError or a NaN value, and a NaN
    # is named as leaving the range, not as too low an order
    series = phi_series(PHI1, 40, E)
    for modulus in (1e3, 1e40, 1e110):
        with pytest.raises(TailBoundError):
            eval_series(series, UCComplex.polar(modulus, 0.3), engine=E)
    out_of_range = "leaves the range of the double engine"
    with pytest.raises(TailBoundError, match=out_of_range):
        eval_series(series, UCComplex.polar(1e40, 0.3), engine=E)
    for order, m in itertools.product((40, 200), (2, 3)):
        with pytest.raises(TailBoundError, match=f"at [|]z[|]=5e-301 {out_of_range}"):
            eval_series(phi_series(PHI1, order, E), UCComplex.polar(5e-301, 0.785), E, m=m)


def test_trailing_zero_blocks_add_nothing():
    # under double every residue block past n = 83 underflows to 0; a longer
    # series gives the same value, with no overflow in its tail powers
    z = UCComplex.polar(2.0, math.pi / 4)
    for kind in (PHI1, PHI2):
        long, short = phi_series(kind, 400, E), phi_series(kind, 90, E)
        assert not any(long.blocks[84]) and any(long.blocks[83])
        for m in range(4):
            assert eval_series(long, z, E, m=m) == eval_series(short, z, E, m=m)


def test_eval_derivative_orders():
    with pytest.raises(ValueError):
        eval_series(quantum_period(5), UCComplex.polar(0.1, 0.0), m=4, engine=E)
    # term-by-term derivative against finite differences
    series = phi_series(PHI1, 30, E)
    z = UCComplex.polar(0.8, math.pi / 5)
    h = 1e-6
    zp = UCComplex.polar(0.8 + h, math.pi / 5)
    zm = UCComplex.polar(0.8 - h, math.pi / 5)
    fd = (eval_series(series, zp, engine=E) - eval_series(series, zm, engine=E)) / (
        2 * h * cmath.exp(1j * math.pi / 5)
    )
    d1 = eval_series(series, z, m=1, engine=E)
    assert abs(fd - d1) / abs(d1) < 1e-8


def test_phi_series_block0_values():
    # leading Laurent data: the (log z)^3 coefficients of the two series
    s2 = phi_series(PHI2, 12, E)
    expected2 = 2j * math.pi * math.sqrt(math.pi) * (-3) ** 3 / 6
    assert abs(complex(s2.blocks[0][3]) - expected2) < 1e-12 * abs(expected2)
    # phi1: -1/(2 sqrt2 pi^2) * a[0][3] = 9 i/(2 sqrt2 pi^(3/2)), the leading
    # log^3 coefficient of the z^(3/2)-normalized last row entry
    s1 = phi_series(PHI1, 12, E)
    lhs = -complex(s1.blocks[0][3]) / (2 * math.sqrt(2) * math.pi ** 2)
    rhs = 9j / (2 * math.sqrt(2) * math.pi ** 1.5)
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_phi_series_solves_ode():
    # primary correctness gate for the residue assembly
    for kind in (PHI1, PHI2):
        series = phi_series(kind, 25, E)
        scale = max(abs(complex(x)) for blk in series.blocks for x in blk)
        for blk in ode_residual_blocks(series)[1:]:
            assert all(abs(complex(x)) < 1e-11 * scale for x in blk)


#: how far a block of the residue series may lie from the per-pole Laurent
#: quadrature, relative to the block's size, and the quadrature's node count
LAURENT_ORACLE = {"double": (1e-12, 256), "mp": (1e-36, 128)}


def _laurent_oracle_deviation(kind, n, series, engine):
    """|block n - its quadrature oracle| relative to the oracle's size."""
    bound, nodes = LAURENT_ORACLE[engine.name]
    oracle = residue_block(laurent_coefficients(kind, n, nodes=nodes, engine=engine), engine)
    scale = max(engine.fabs(x) for x in oracle)
    block = block_values(series, engine)[n]
    return max(engine.fabs(a - b) for a, b in zip(block, oracle)) / scale


@pytest.mark.parametrize("engine", [E, get_engine("mp", dps=40)], ids=["double", "mp"])
def test_phi_series_recursion_vs_laurent_oracle(engine):
    # block 0 is read from the Gamma class and later blocks come from the
    # recursion; the per-pole Laurent quadrature is an independent oracle
    # for all of them
    bound, _ = LAURENT_ORACLE[engine.name]
    for kind in (PHI1, PHI2):
        series = phi_series(kind, 40, engine)
        for n in (0, 1, 2, 5, 10, 20, 39):
            dev = _laurent_oracle_deviation(kind, n, series, engine)
            assert dev <= bound, (kind, n, dev)


def test_gamma_coordinates_match_sympy_series():
    # block 0 over pi^(-p/2) is the residue of the Taylor series of
    # twist(s) Gamma(1+s)^5/Gamma(1+2s), expanded by sympy: exactly
    import sympy as sp

    s = sp.Symbol("s")
    ghat = sp.gamma(1 + s) ** 5 / sp.gamma(1 + 2 * s)
    for kind, twist in ((PHI1, sp.exp(sp.I * sp.pi * s)), (PHI2, 1 / sp.cos(sp.pi * s))):
        taylor = sp.series(twist * ghat, s, 0, 4).removeO()
        for k, x in enumerate(solutions.gamma_coordinates(kind)):
            want = (2 * sp.pi * sp.I * taylor.coeff(s, 3 - k)
                    * sp.Rational((-3) ** k, math.factorial(k)))
            assert sp.expand(sp.sympify(x) - want) == 0, (kind, k)


@pytest.fixture
def fresh_block0():
    """Empty block-0 and series caches before and after the test, so a
    mutated block 0 is neither read from nor left in them."""
    solutions.gamma_coordinates.cache_clear()
    phi_series.cache_clear()
    yield
    solutions.gamma_coordinates.cache_clear()
    phi_series.cache_clear()


@pytest.mark.parametrize("mutation", ["gamma_minus", "no_twist"])
def test_mutated_block0_fails_the_laurent_oracle(mutation, monkeypatch, fresh_block0):
    # GammaHat^- in place of GammaHat^+, or block 0 without its twist
    # e^(i pi H) or sec(pi H), lies far from the quadrature at the pole s = 0
    if mutation == "gamma_minus":
        monkeypatch.setattr(solutions, "gamma_class", lambda sign: ktheory.gamma_class(-sign))
    else:
        monkeypatch.setattr(solutions, "classical_product", lambda twist, gamma: gamma)
    bound, _ = LAURENT_ORACLE[E.name]
    for kind in (PHI1, PHI2):
        assert _laurent_oracle_deviation(kind, 0, phi_series(kind, 1, E), E) > 1e3 * bound


def test_phi_series_no_quadrature(monkeypatch):
    # building the residue series evaluates no Laurent quadrature and no
    # Gamma function, under either engine
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(special, "laurent_coefficients", counted(laurent_coefficients))
    monkeypatch.setattr(Engine, "gamma", counted(Engine.gamma))
    phi_series.cache_clear()
    for engine in (E, get_engine("mp", dps=40)):
        for kind in (PHI1, PHI2):
            phi_series(kind, 40, engine)
    assert calls == {}


def test_phi_series_change_of_basis():
    # express phi1 in Frobenius coordinates (= its initial block), rebuild
    # through the exact recursion, and compare evaluations
    e = E
    s1 = phi_series(PHI1, 30, e)
    rebuilt = series_from_coordinates(s1.initial_block(), 30)
    z = UCComplex.polar(0.3, math.pi / 8)
    a = eval_series(s1, z, engine=e)
    b = eval_series(rebuilt, z, engine=e)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_contour_matches_series_in_sectors():
    # five points inside each representation's validity sector
    pts1 = [(1.0, 0.0), (2.0, math.pi / 4), (1.5, -math.pi / 8),
            (0.7, 0.45 * math.pi), (1.2, -0.13 * math.pi)]
    pts2 = [(0.7, -math.pi / 3), (1.0, 0.0), (1.5, 0.7 * math.pi),
            (2.0, math.pi / 4), (0.9, -0.75 * math.pi)]
    for kind, pts in ((PHI1, pts1), (PHI2, pts2)):
        series = phi_series(kind, 40, E)
        for mod, arg in pts:
            z = UCComplex.polar(mod, arg)
            a = complex(eval_series(series, z, engine=E))
            b = complex(contour_eval(kind, z, E))
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), (kind, mod, arg)


def test_contour_sector_violation():
    with pytest.raises(SectorError):
        contour_eval(PHI1, UCComplex.polar(1.0, 3 * math.pi / 4), E)
    with pytest.raises(SectorError):
        contour_eval(PHI2, UCComplex.polar(1.0, 0.9 * math.pi), E)


def test_identity_residuals_examples():
    # euler identity at z = 1.3 e^(i pi/6)
    e_res, _ = identity_residuals(UCComplex.polar(1.3, math.pi / 6), order=40, engine=E)
    assert e_res <= 1e-9
    # rotation identity applied at z = 0.8 e^(i pi)
    _, r_res = identity_residuals(UCComplex.polar(0.8, math.pi), order=40, engine=E)
    assert r_res <= 1e-9
    # inside the extended sector
    e_res, _ = identity_residuals(UCComplex.polar(1.1, 1.4 * math.pi), order=40, engine=E)
    assert e_res <= 1e-9


def test_identities_across_extended_sector():
    # points spanning (-5 pi/6, 5 pi/3)
    args = [-0.75 * math.pi, -math.pi / 3, 0.0, math.pi / 2, 1.05 * math.pi,
            1.55 * math.pi]
    for arg in args:
        z = UCComplex.polar(1.2, arg)
        e_res, r_res = identity_residuals(z, order=40, engine=E)
        assert e_res <= 1e-9, arg
        assert r_res <= 1e-9, arg


def test_rotation_operator_unipotent():
    A = rotation_operator_matrix(E)
    for i in range(4):
        assert abs(A[i][i] - 1) < 1e-15
        for j in range(i):
            assert abs(A[i][j]) == 0
    A = mpmath.fp.matrix(A)
    I = mpmath.fp.eye(4)
    M = A * A * A * A - 4 * A * A * A + 6 * A * A - 4 * A + I
    assert max_deviation(M.tolist(), [[0] * 4] * 4) < 1e-12


def test_rotation_operator_consistent_with_series():
    # (A phi)(z) = phi(z eps) evaluated through the basis: applying A to the
    # initial block of phi2 must reproduce phi2(z eps)
    e = E
    s2 = phi_series(PHI2, 30, e)
    A = rotation_operator_matrix(e)
    coords = [e.complex(x) for x in s2.initial_block()]
    rotated_coords = [sum(A[k][j] * coords[j] for j in range(4)) for k in range(4)]
    rebuilt = series_from_coordinates(tuple(rotated_coords), 30)
    z = UCComplex.polar(0.4, math.pi / 7)
    a = eval_series(rebuilt, z, engine=e)
    b = eval_series(s2, z.rotated(1), engine=e)
    assert abs(a - b) < 1e-11 * max(1.0, abs(b))


ENGINES = [E, get_engine("mp", dps=40)]


def reference_derivative(series):
    """d/dz monomial by monomial: c z^e l^k -> c e z^(e-1) l^k
    + c k z^(e-1) l^(k-1), collected back into blocks."""
    terms = collections.defaultdict(list)
    for n, blk in enumerate(series.blocks):
        e = series.rho + 3 * n
        for k, c in enumerate(blk):
            terms[n, k].append(e * c)
            if k:
                terms[n, k - 1].append(k * c)
    blocks = tuple(
        tuple(sum(terms[n, k][1:], terms[n, k][0]) for k in range(4))
        for n in range(series.order)
    )
    return solutions.LogSeries(rho=series.rho - 1, blocks=blocks)


def test_a_cold_series_build_rounds_no_coefficient(monkeypatch):
    # phi1 and phi2, their derivative series 1-3, the block-pass columns of
    # all eight and Phi_top's: the eight numbers of block 0 are read into
    # exact integers once, and from there the recursion, the derivatives and
    # the columns pass operands, so no coefficient is rounded or read again
    e = get_engine("mp", dps=40)
    calls = collections.Counter()
    for name in ("_rounded", "_exact_parts"):
        original = getattr(engine_module, name)
        monkeypatch.setattr(engine_module, name,
                            lambda *args, f=original, name=name: calls.update([name]) or f(*args))
    for kind in (PHI1, PHI2):
        series = phi_series.__wrapped__(kind, 40, e)  # built afresh, past the cache
        for _ in range(4):
            solutions._prepare(series, e)
            series = series.derivative()
    monodromy._phi_top_columns(40, e)
    assert calls == {"_exact_parts": 8}


def exact_parts(series):
    """The real and imaginary parts of an mp series' operands as two series
    of exact Fractions (``gaussian``)."""
    re, im = zip(*(tuple(zip(*map(gaussian, blk))) for blk in series.blocks))
    return tuple(solutions.LogSeries(rho=series.rho, blocks=p) for p in (re, im))


@pytest.mark.parametrize("engine", ENGINES, ids=["double", "mp"])
def test_derivative_is_kept_and_term_by_term(engine):
    # under mp each part against the exact derivative of each level's
    # parent, the operands it is built from, with no rounding
    for kind in (PHI1, PHI2):
        series = phi_series(kind, 40, engine)
        for m in range(1, 4):
            assert series.derivative() is series.derivative()
            if engine.name == "double":
                ref = reference_derivative(series)
                series = series.derivative()
                assert series.blocks == ref.blocks, (kind, m)
            else:
                refs = [reference_derivative(p) for p in exact_parts(series)]
                series = series.derivative()
                got = exact_parts(series)
                assert [p.blocks for p in got] == [p.blocks for p in refs], (kind, m)
            assert series.rho == -m


def per_block_exp_oracle(series, z, m, engine):
    """The m-th derivative summed with one exp((rho + 3n) l) per block, and
    the sum of the contributions' magnitudes (the scale of their rounding)."""
    for _ in range(m):
        series = series.derivative()
    l = z.log(engine)
    total, scale = engine.complex(0), 0.0
    for n, (a0, a1, a2, a3) in enumerate(block_values(series, engine)):
        contrib = engine.exp((series.rho + 3 * n) * l) * (a0 + l * (a1 + l * (a2 + l * a3)))
        total += contrib
        scale += engine.fabs(contrib)
    return total, scale


@pytest.mark.parametrize("engine", ENGINES, ids=["double", "mp"])
def test_eval_series_power_chain_matches_per_block_exp(engine):
    # relative to the sum of |contributions|: at |z| = 6 the terms cancel by
    # orders of magnitude, so the sum itself is no scale for rounding error
    bound = 1e-13 if engine.name == "double" else 1e-37
    for kind in (PHI1, PHI2):
        series = phi_series(kind, 60, engine)
        for modulus in (0.05, 0.1, 2, 6):
            base = UCComplex.polar(modulus, 0.3)
            for rotation in (-2, -1, 0, 1, 2):
                z = base.rotated(rotation)
                for m in range(4):
                    ref, scale = per_block_exp_oracle(series, z, m, engine)
                    got = engine.number(eval_series(series, z, m=m, engine=engine))
                    dev = engine.fabs(got - ref) / scale
                    assert dev <= bound, (kind, modulus, rotation, m, dev)


def count_exponentials(monkeypatch):
    """Count Engine.exp calls per engine name."""
    calls = collections.Counter()
    original = Engine.exp

    def counted(self, x):
        calls[self.name] += 1
        return original(self, x)

    monkeypatch.setattr(Engine, "exp", counted)
    return calls


def test_eval_series_takes_two_exponentials(monkeypatch):
    # at a new point of a new class: w for the block pass, and z^(1/2) for
    # the z^rho of a derivative series; a second call at the point takes none
    calls = count_exponentials(monkeypatch)
    for engine in ENGINES:
        series = phi_series(PHI1, 40, engine)
        for m in range(4):
            solutions._block_sums.cache_clear()
            solutions.point_data.cache_clear()
            calls.clear()
            eval_series(series, UCComplex.polar(2, math.pi / 4), m=m, engine=engine)
            assert calls == {engine.name: 1 if m == 0 else 2}, (engine, m)
            calls.clear()
            eval_series(series, UCComplex.polar(2, math.pi / 4), m=m, engine=engine)
            assert calls == {}, (engine, m)


@pytest.mark.parametrize("engine", ENGINES, ids=["double", "mp"])
def test_fraction_blocks_are_read_once_by_engine_operand(engine):
    # an exact series and its derivatives evaluated as they are, and after
    # reading their coefficients with Engine.operand, give the same value:
    # the block pass reads an exact coefficient once, by Engine.operand, and
    # under mp each column entry is the Fraction floored at prec + GUARD_BITS
    z = UCComplex.polar(1, 0.3)
    for exact in (quantum_period(40), *frobenius_basis(40)):
        for m in range(4):
            read = solutions.LogSeries(
                rho=exact.rho,
                blocks=tuple(tuple(map(engine.operand, blk)) for blk in exact.blocks))
            assert eval_series(exact, z, engine=engine) == eval_series(read, z, engine=engine), m
            if engine.name == "mp":
                columns, _ = solutions._prepare(exact, engine)
                for k, (column, _) in enumerate(columns):
                    # block 0 first; the column has no trailing zero blocks
                    for a, (re, im, e) in zip([blk[k] for blk in exact.blocks], column[::-1]):
                        assert im == 0 and re == math.floor(a / Fraction(2) ** e), (m, k)
                        bits = abs(re).bit_length() - engine.prec - GUARD_BITS
                        assert not a or bits in (0, 1), (m, k)
            exact = exact.derivative()


def block_passes():
    """The Horner passes behind eval_series since the block-sum cache was
    last cleared: each is a miss of the cache."""
    return solutions._block_sums.cache_info().misses


@pytest.mark.parametrize("engine", ENGINES, ids=["double", "mp"])
def test_stokes_point_takes_eight_block_passes(engine):
    # Y_R and Y_L at one point read phi1 and phi2 with derivatives 0..3 at
    # rotations of that point only: one pass per series
    from monodromy_lab.monodromy import assemble_YL, assemble_YR

    z0 = UCComplex.polar(2.0, math.pi / 4)
    assemble_YR(z0, 40, engine)
    assemble_YL(z0, 40, engine)
    assert block_passes() == 8


def test_rotations_share_a_block_pass():
    series = phi_series(PHI1, 40, E)
    z = UCComplex.polar(2.0, math.pi / 4)
    eval_series(series, z, engine=E)
    for thirds in (1, -1, 2, -2):
        eval_series(series, z.rotated(thirds), engine=E)
    assert block_passes() == 1
    # a point 0.05 rad away is another class
    eval_series(series, UCComplex.polar(2.0, math.pi / 4 + 0.05), engine=E)
    assert block_passes() == 2
    # a float argument and the equal Fraction share a class
    eval_series(series, UCComplex(2.0, 0.375), engine=E)
    eval_series(series, UCComplex(2.0, Fraction(3, 8)), engine=E)
    eval_series(series, UCComplex(Fraction(2), Fraction(3, 8)).rotated(-1), engine=E)
    assert block_passes() == 3


@pytest.mark.parametrize("engine", ENGINES, ids=["double", "mp"])
def test_block_sum_cache_does_not_change_values(engine):
    # each value equals the one from an empty cache, whichever point of its
    # class filled the cache and in whatever order the points come
    series = phi_series(PHI2, 40, engine)
    base = UCComplex.polar(1.7, 0.3)
    points = [base.rotated(k) for k in (0, 1, -1, 2, -2)] + [shifted_by_turns(base, 1)]
    cold = {}
    for i, z in enumerate(points):
        for m in range(4):
            solutions._block_sums.cache_clear()
            cold[i, m] = eval_series(series, z, m=m, engine=engine)
    for order in (range(len(points)), reversed(range(len(points))), (3, 0, 5, 1, 4, 2)):
        solutions._block_sums.cache_clear()
        for i in order:
            for m in (3, 0, 2, 1):
                assert eval_series(series, points[i], m=m, engine=engine) == cold[i, m], (i, m)


def test_cache_hit_still_checks_the_tail():
    z = UCComplex.polar(3.0, 0.0)
    for point in (z, z, z.rotated(1), z.rotated(-2)):
        with pytest.raises(TailBoundError):
            eval_series(quantum_period(5), point, engine=E)
    assert block_passes() == 1


def test_block_sum_cache_stays_bounded():
    # 32 verifications over distinct base points, as in a sweep
    from monodromy_lab.pipeline import RunConfig, run_verify

    for k in range(32):
        offset = 0.1 * (2 * k / 31 - 1)
        run_verify(RunConfig(
            engine_name="double",
            z0_stokes=UCComplex.polar(1 + k / 31, math.pi / 4 + offset),
            z0_connection=UCComplex.polar(0.05 + 0.15 * k / 31, math.pi / 4 - offset),
        ))
        assert solutions._block_sums.cache_info().currsize <= solutions.BLOCK_SUMS_SIZE
        assert solutions.point_data.cache_info().currsize <= solutions.POINTS_SIZE
    assert solutions._block_sums.cache_info().currsize == solutions.BLOCK_SUMS_SIZE
    assert solutions.point_data.cache_info().currsize == solutions.POINTS_SIZE


def test_rotated_hit_takes_one_exponential(monkeypatch):
    # a new point whose class is summed: z^(1/2) for a derivative series,
    # nothing for the series itself
    calls = count_exponentials(monkeypatch)
    z = UCComplex.polar(2, math.pi / 4)
    for engine in ENGINES:
        series = phi_series(PHI1, 40, engine)
        for m in range(4):
            eval_series(series, z, m=m, engine=engine)
            for thirds in (1, -2):
                solutions.point_data.cache_clear()
                calls.clear()
                eval_series(series, z.rotated(thirds), m=m, engine=engine)
                assert calls == ({engine.name: 1} if m else {}), (engine, m, thirds)


@pytest.mark.parametrize("engine_name", ("mp", "double"))
def test_verify_takes_34_exponentials(monkeypatch, engine_name):
    # from empty point and block-sum caches: z^(1/2) at each of the 27
    # points (five rotations of 3 Stokes points, three of 4 connection
    # points) and w at each of the 7 point classes; with the caches full
    # none, as verify_constraints reads e^(2 pi i mu) and e^(-pi i mu) as
    # exact units.  The dominance order is computed once per process.
    from monodromy_lab.pipeline import RunConfig, run_verify

    config = RunConfig(engine_name=engine_name)
    run_verify(config)
    solutions._block_sums.cache_clear()
    solutions.point_data.cache_clear()
    calls = count_exponentials(monkeypatch)
    run_verify(config)
    assert calls == {engine_name: 34}
    assert solutions.point_data.cache_info().currsize == 27
    calls.clear()
    run_verify(config)
    assert calls == {}


def horner_oracle(column, w, ctx):
    """sum_n w^n a[n] by mpc Horner at twice the working precision, on the
    same coefficients (lowest block first), and sum_n |w^n a[n]|."""
    with ctx.workprec(2 * ctx.prec):
        t = ctx.mpc(0)
        for a in reversed(column):
            t = t * w + a
        scale = sum(abs(w) ** n * abs(a) for n, a in enumerate(column))
    return t, scale


@pytest.mark.parametrize("kind", (PHI1, PHI2))
def test_exact_block_pass_matches_a_double_precision_oracle(kind):
    # the integer kernel against mpc Horner at 2 prec: each T_k, an operand
    # read exactly, within 2^-prec of the sum of its terms' magnitudes, w
    # taken at every rotation
    e = get_engine("mp", dps=40)
    bound = e.ctx.mpf(2) ** -e.ctx.prec
    series = phi_series(kind, 60, e)
    for m in range(4):
        columns = e.horner_columns(series.blocks)
        for modulus in (0.05, 0.1, 2, 6):
            base = UCComplex.polar(modulus, 0.3)
            for rotation in (-2, -1, 0, 1, 2):
                w = e.exp(3 * base.rotated(rotation).log(e))
                sums = e.horner(columns, w)
                for k, t in enumerate(sums):
                    ref, scale = horner_oracle([blk[k] for blk in block_values(series, e)],
                                               w, e.ctx)
                    t = operand_value(e.ctx, t)
                    assert abs(t - ref) <= bound * scale, (kind, m, modulus, rotation, k)
        series = series.derivative()


def cut_bound(blocks, prec):
    """The error bound of ``Engine.horner`` under mp over sum_n |w^n a[n]|:
    4 * 2^-(prec + GUARD_BITS) per block and one more for the skipped
    blocks; the T_k it returns are operands, not rounded."""
    return (4 * blocks + 1) * 2.0 ** -(prec + GUARD_BITS)


def recorded_cuts(monkeypatch):
    """How many blocks of each column every mp pass sums."""
    cuts = []
    summed_blocks = engine_module._summed_blocks

    def recorded(bounds, log2w, bits):
        kept = summed_blocks(bounds, log2w, bits)
        cuts.append(kept)
        return kept

    monkeypatch.setattr(engine_module, "_summed_blocks", recorded)
    return cuts


@pytest.mark.parametrize("kind", (PHI1, PHI2))
def test_cut_block_pass_stays_within_its_bound(kind, monkeypatch):
    # phi and its derivatives 1-3 at order 40: every T_k of the shortened
    # pass within the docstring's bound of mpc Horner over all blocks at
    # twice the precision; fewer than all 40 blocks summed at |z| <= 0.4
    e = get_engine("mp", dps=40)
    cuts = recorded_cuts(monkeypatch)
    series = phi_series(kind, 40, e)
    for m in range(4):
        columns = e.horner_columns(series.blocks)
        for modulus in (0.025, 0.1, 0.4, 1, 2):
            for rotation in (0, 1):
                w = e.exp(3 * UCComplex.polar(modulus, 0.3).rotated(rotation).log(e))
                cuts.clear()
                sums = e.horner(columns, w)
                for k, t in enumerate(sums):
                    ref, scale = horner_oracle([blk[k] for blk in block_values(series, e)],
                                               w, e.ctx)
                    t = operand_value(e.ctx, t)
                    assert abs(t - ref) <= cut_bound(40, e.ctx.prec) * scale, (m, modulus, k)
                assert all(1 <= kept <= 40 for kept in cuts)
                if modulus <= 0.4:
                    assert all(kept < 40 for kept in cuts), (m, modulus, cuts)
        series = series.derivative()


def test_cut_phi_top_pass_stays_within_its_bound():
    # the 16 Phi_top entry series, leading and trailing zero blocks
    # included, summed as eval_Ytop sums them: GUARD_BITS above the working
    # precision, against mpc Horner on the exact coefficients, which the
    # columns hold rounded to that precision, each within 2^-prec of itself
    from monodromy_lab.monodromy import _phi_top_columns, phi_top

    e = get_engine("mp", dps=40)
    coeffs = phi_top(40)
    columns, offsets = _phi_top_columns(40, e)
    for modulus in (0.025, 0.1, 0.4, 1, 2):
        with e.guarded():
            w = e.exp(3 * UCComplex.polar(modulus, 0.7).log(e))
            sums = e.horner(columns, w)
            prec = e.ctx.prec
        ctx = e.ctx.clone()
        ctx.prec = 2 * prec
        for (a, b), c, t in zip(itertools.product(range(4), repeat=2), offsets, sums):
            exact = [coeffs[c + 3 * n][a][b] if c + 3 * n <= 40 else 0 for n in range(14)]
            column = [ctx.mpf(v.numerator) / v.denominator for v in map(Fraction, exact)]
            ref, scale = horner_oracle(column, w, ctx)
            bound = 2.0 ** -prec + cut_bound(len(column), prec)
            assert abs(operand_value(ctx, t) - ref) <= bound * scale, (modulus, a, b)


@pytest.mark.parametrize("dps", (12, 40))
def test_point_inputs_and_term_factors_lie_within_their_guarded_bound(dps):
    # every value of a point's PointData at the verification's base points,
    # their rotations and off-default moduli, against the same value at
    # twice the digits: l within B = 2^(6 - prec - GUARD_BITS) (1 + |l|),
    # every other value within B times its modulus; and every column term's
    # factors within 2^(6 - prec - GUARD_BITS) times their modulus.  A value
    # formed from l rounded at the working precision is off by about
    # 2^-prec |l|, some 2^13 times the bound
    engine, fine = get_engine("mp", dps=dps), get_engine("mp", dps=2 * dps)
    unit = 2.0 ** (6 - engine.prec - GUARD_BITS)

    def size(x):
        return math.hypot(*map(float, gaussian(x)))

    def distance(x, y):
        return math.hypot(*(float(a - b) for a, b in zip(gaussian(x), gaussian(y))))

    config = RunConfig()
    bases = [*monodromy.stokes_points(config.z0_stokes),
             *monodromy.connection_points(config.z0_connection),
             monodromy.heldout_point(config.z0_connection),
             UCComplex.polar(1.0, 0.8), UCComplex.polar(0.05, 0.7)]
    for z in (base.rotated(m) for base in bases for m in (-2, -1, 0, 1, 2)):
        point, exact = solutions.PointData(z, engine), solutions.PointData(z, fine)
        bound = unit * (1 + size(exact.l))
        assert distance(point.l, exact.l) <= bound, z
        assert point.l_operand == engine.operand(point.l)
        for name in ("half_powers", "inverse_powers", "lift"):
            for x, y in zip(getattr(point, name), getattr(exact, name)):
                assert distance(x, y) <= bound * size(y), (z, name)
        assert distance(point.cube, exact.cube) <= bound * size(exact.cube), z
    specs = monodromy._YR_SPECS + monodromy._YL_SPECS + (monodromy._YL_COL3_ALT,)
    for term in {term for spec in specs for term in spec}:
        got = monodromy._term_factors(*term, engine)
        for x, y in zip(got, monodromy._term_factors(*term, fine)):
            assert distance(x, y) <= unit * size(y), term


@pytest.mark.parametrize("dps", (40, 60))
def test_mp_series_values_lie_in_their_interval_enclosure(dps):
    # phi1, phi2 and their derivatives 1-3 at every point an extraction at
    # the defaults evaluates them: the Stokes base point's five rotations
    # and the connection base point's three, each value within the
    # interval enclosure of the truncated series widened by the radius
    # that Engine.horner and Engine.log_polynomial state, with no rounding
    # after them.  Where that radius is below 1.5 ulp of the value (of its
    # larger part), 54 of the 64 values, a part moved by 4 ulp falls
    # outside; elsewhere the radius is the guard bits' share of the
    # cancellation of the sum, up to 2^22 at phi1 on the Stokes base point,
    # where the T_k cancel in the polynomial in l
    e = get_engine("mp", dps=dps)
    points = ([RunConfig.z0_stokes.rotated(m) for m in (-2, -1, 0, 1, 2)]
              + [RunConfig.z0_connection.rotated(m) for m in (0, 1, 2)])
    sharp = 0
    for kind in (PHI1, PHI2):
        series = phi_series(kind, RunConfig.truncation_order, e)
        for z in points:
            for m in range(4):
                value = eval_series(series, z, e, m)
                enclosure = series_value_enclosure(series, z, e, m)
                assert within_enclosure(gaussian(value), enclosure), (kind, z, m)
                re, im, exp = value
                top = max(re.bit_length(), im.bit_length()) + exp
                ulp = Fraction(2) ** (top - e.ctx.prec)
                if enclosure[2] >= Fraction(3, 2) * ulp:
                    continue
                sharp += 1
                for i, step in itertools.product((0, 1), (-4, 4)):
                    moved = list(gaussian(value))
                    moved[i] += step * ulp
                    assert not within_enclosure(moved, enclosure), (kind, z, m, i, step)
    assert sharp == 54


def test_cut_sums_block_zero_always():
    e = get_engine("mp", dps=40)
    tiny, big = e.exp(-300), e.exp(300)
    # an all-zero column sums to 0, at any w
    zeros = e.horner_columns([[e.complex(0)] * 4 for _ in range(5)])
    for w in (tiny, big, e.complex(0)):
        assert e.horner(zeros, w) == ((0, 0, 0),) * 4
    # only leading blocks are skipped: block 0, far below the largest term
    # (block 1), is summed with it, and w = 0 sums block 0 alone
    column = e.horner_columns([[e.complex(1)] * 4, [e.complex(10) ** 200] * 4])
    assert engine_module._summed_blocks(column[0][1], 0.0, 156) == 2
    assert engine_module._summed_blocks(column[0][1], float("-inf"), 156) == 1
    assert e.horner(column, e.complex(0)) == ((1, 0, 0),) * 4
    # past the working precision every block but block 0 is skipped
    column = e.horner_columns([[e.complex(1)] * 4, [e.complex(1)] * 4])
    assert engine_module._summed_blocks(column[0][1], -200.0, 156) == 1
    assert e.horner(column, e.complex(2) ** -200) == ((1, 0, 0),) * 4
    assert engine_module._summed_blocks(column[0][1], -100.0, 156) == 2


def test_verify_cuts_its_mp_block_passes(monkeypatch):
    # a default mp verify sums blocks 0..kept-1 of each column: always
    # block 0, and at most 5600 column steps over its 56 phi passes and 4
    # Phi_top passes (9856 without the cut)
    from monodromy_lab.pipeline import RunConfig, run_verify

    cuts = recorded_cuts(monkeypatch)
    run_verify(RunConfig())
    assert len(cuts) == 56 * 4 + 4 * 16
    assert min(cuts) >= 1
    assert sum(cuts) <= 5600


def tail_quantity(series, l, engine):
    """The largest |z^(rho+3n) (a0 + l (a1 + l (a2 + l a3)))| over the last
    three nonzero blocks: the contribution the certificate bounds."""
    blocks = block_values(series, engine)
    nonzero = [n for n, blk in enumerate(blocks) if any(blk)]
    contributions = []
    for n in nonzero[-3:]:
        a0, a1, a2, a3 = blocks[n]
        zpow = engine.exp((series.rho + 3 * n) * l)
        contributions.append(abs(zpow * (a0 + l * (a1 + l * (a2 + l * a3)))))
    return max(contributions)


def log2_of(x):
    """log2 of an engine real x >= 0 as a float, -inf for 0: its value read
    at 30 digits, so within a few units in the last place."""
    if not x:
        return -math.inf
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.mpf(x), 2))


@pytest.mark.parametrize("engine_name", ("mp", "double"))
def test_tail_bound_is_at_least_the_tail(monkeypatch, engine_name):
    # the certificate's log2 bound is at least log2 of the tail it bounds
    calls, summed = [], {}
    block_sums, tail_bound = solutions._block_sums, solutions._tail_bound

    def recorded_sums(series, *key):
        sums = block_sums(series, *key)
        summed[sums] = series
        return sums

    def recorded_bound(sums, point):
        bound = tail_bound(sums, point)
        calls.append((summed[sums], point.l, bound))
        return bound

    monkeypatch.setattr(solutions, "_block_sums", recorded_sums)
    monkeypatch.setattr(solutions, "_tail_bound", recorded_bound)
    config = RunConfig(engine_name=engine_name)
    run_verify(config)
    assert len(calls) == 172
    engine = config.engine()
    for series, l, bound in calls:
        assert bound >= log2_of(tail_quantity(series, l, engine)), (series.rho, l)


@pytest.mark.parametrize("engine_name", ("mp", "double"))
def test_tail_majorant_is_at_least_the_per_block_maximum(monkeypatch, engine_name):
    # the one componentwise-max block of a pass bounds the tail at every
    # call of a verify no lower than the largest of the certificate's
    # per-block bounds, formed in engine reals as they were before that
    # block replaced them
    calls, summed = [], {}
    block_sums, tail_bound = solutions._block_sums, solutions._tail_bound

    def recorded_sums(series, modulus, arg_over_pi, engine):
        sums = block_sums(series, modulus, arg_over_pi, engine)
        summed[sums] = series, modulus, engine
        return sums

    def recorded_bound(sums, point):
        bound = tail_bound(sums, point)
        calls.append((summed[sums], point.l, bound))
        return bound

    monkeypatch.setattr(solutions, "_block_sums", recorded_sums)
    monkeypatch.setattr(solutions, "_tail_bound", recorded_bound)
    run_verify(RunConfig(engine_name=engine_name))
    assert len(calls) == 172
    for (series, modulus, engine), l, bound in calls:
        r, labs, blocks = engine.real(modulus), abs(l), block_values(series, engine)
        last = max(n for n, blk in enumerate(blocks) if any(blk))
        per_block = []
        for n in range(max(0, last - 2), last + 1):
            m0, m1, m2, m3 = (r ** (series.rho + 3 * n) * abs(a) for a in blocks[n])
            per_block.append(((m3 * labs + m2) * labs + m1) * labs + m0)
        assert bound >= log2_of(max(per_block)), (series.rho, modulus)


def eval_with_a_zero_tail_bound(monkeypatch, engine, t0):
    """eval_series where every block pass returns the sums (t0, 0, 0, 0) and
    the majorant block of a zero tail, log2 -inf."""
    sums = (t0, 0, 0, 0), (-math.inf,) * 4
    monkeypatch.setattr(solutions, "_block_sums", lambda *key: sums)
    return eval_series(phi_series(PHI1, 40, engine), UCComplex.polar(2, math.pi / 4), engine)


@pytest.mark.parametrize("engine", ENGINES, ids=["double", "mp"])
def test_a_nan_sum_within_the_tolerance_is_a_tail_bound_error(monkeypatch, engine):
    # a zero tail bound passes, unless the sum is NaN
    assert engine.number(eval_with_a_zero_tail_bound(monkeypatch, engine, engine.complex(1))) == 1
    with pytest.raises(TailBoundError):
        nan = mpmath_context(engine).nan
        eval_with_a_zero_tail_bound(monkeypatch, engine, engine.complex(nan))


@pytest.mark.parametrize("engine", ENGINES, ids=["double", "mp"])
def test_an_infinite_sum_within_the_tolerance_is_a_tail_bound_error(monkeypatch, engine):
    # tol max(|sum|, 1) is infinite for an infinite sum, so no bound could
    # fail it; any non-finite sum is refused by its value
    inf = mpmath_context(engine).inf
    for t0 in ((inf, 0), (-inf, 0), (0, inf), (0, -inf), (inf, inf)):
        with pytest.raises(TailBoundError):
            eval_with_a_zero_tail_bound(monkeypatch, engine, engine.complex(*t0))


def certified_calls(monkeypatch):
    """Record the tail certificate of every eval_series call from here on:
    (summed series, z, engine, tol, sum, log2 bound, accepted), with the sum
    formed from the call's block sums by ``Engine.log_polynomial``, as
    eval_series forms it, so that a refused call has one too."""
    calls, summed, bounds = [], {}, []
    block_sums, tail_bound, evaluate = (solutions._block_sums, solutions._tail_bound,
                                        solutions.eval_series)

    def recorded_sums(series, *key):
        sums = block_sums(series, *key)
        summed[sums] = series
        return sums

    def recorded_bound(sums, point):
        bounds.append((sums, point, tail_bound(sums, point)))
        return bounds[-1][2]

    def recorded_eval(series, z, engine, m=0, tol=None):
        bounds.clear()
        accepted = False
        try:
            value = evaluate(series, z, engine, m, tol)
            accepted = True
            return value
        finally:
            (sums, point, bound), = bounds
            cur = summed[sums]
            scale = point.inverse_powers[-cur.rho] if cur.rho else 1
            total = engine.number(engine.log_polynomial(sums[0], point.l, scale))
            if tol is None:
                tol = solutions._default_tol(engine)[0]
            calls.append((cur, z, engine, tol, total, bound, accepted))

    monkeypatch.setattr(solutions, "_block_sums", recorded_sums)
    monkeypatch.setattr(solutions, "_tail_bound", recorded_bound)
    for module in (solutions, monodromy):
        monkeypatch.setattr(module, "eval_series", recorded_eval)
    return calls


def sweep_configs(monkeypatch, seed):
    """The warm benchmark's 32 base-point configurations for a seed."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    return importlib.import_module("run").sweep_configs(seed)


#: the configurations the log2 certificate is checked at against the engine
#: real one: the defaults, more digits and blocks, the bottom of the double
#: range (where order 40 is refused) and the warm benchmark's sweeps
CERTIFICATE_GRID = {
    "mp": lambda monkeypatch: [RunConfig()],
    "double": lambda monkeypatch: [RunConfig(engine_name="double")],
    "dps60": lambda monkeypatch: [RunConfig(dps=60)],
    "order60": lambda monkeypatch: [RunConfig(truncation_order=60)],
    "dps291": lambda monkeypatch: [RunConfig(dps=291)],
    "dps291-order120": lambda monkeypatch: [RunConfig(dps=291, truncation_order=120)],
    "sweep1": lambda monkeypatch: sweep_configs(monkeypatch, 1),
    "sweep2": lambda monkeypatch: sweep_configs(monkeypatch, 2),
}


@pytest.mark.parametrize("grid", CERTIFICATE_GRID)
def test_log2_certificate_decides_as_the_engine_real_one(monkeypatch, grid):
    # at every eval_series call the log2 certificate accepts or refuses as
    # the engine-real one did, and its bound lies above that one's, by less
    # than 1e-8 bits; at 291 digits order 40 is refused at the first call
    configs = CERTIFICATE_GRID[grid](monkeypatch)
    calls = certified_calls(monkeypatch)
    for config in configs:
        if grid == "dps291":
            with pytest.raises(TailBoundError):
                run_verify(config)
        else:
            run_verify(config)
    refusals = int(grid == "dps291")
    assert refusals or len(calls) == 172 * len(configs)
    for series, z, engine, tol, total, bound, accepted in calls:
        old_bound, old_accepted = engine_real_certificate(series, z, engine, tol, total)
        assert accepted == old_accepted, (series.rho, z)
        old = log2_of(old_bound)
        assert bound >= old, (series.rho, z)
        assert bound == old or bound - old < 1e-8, (series.rho, z)
    assert [accepted for *_, accepted in calls].count(False) == refusals


def test_coefficient_columns_are_converted_once_per_series():
    # two verifies at an order no other test builds: the first converts
    # phi1 and phi2 with their three derivative series, the second none,
    # although it runs every block pass again
    from monodromy_lab.pipeline import RunConfig, run_verify

    config = RunConfig(truncation_order=41)
    for conversions in (8, 0):
        before = solutions._prepare.cache_info().misses
        solutions._block_sums.cache_clear()
        run_verify(config)
        assert block_passes() == 56
        assert solutions._prepare.cache_info().misses - before == conversions


def test_tail_certificate_holds_below_the_double_range():
    # at 330 digits the tolerance 1e-328 and the tails lie below the double
    # range, which the certificate's log2 floats cover: order 104 leaves a
    # tail of 5.1e-327 relative, order 106 4.6e-336
    e = get_engine("mp", dps=330)
    z = UCComplex.polar(2, math.pi / 4)
    with pytest.raises(TailBoundError):
        eval_series(phi_series(PHI1, 104, e), z, e)
    eval_series(phi_series(PHI1, 106, e), z, e)
