"""Engine conversions (exact data is rounded once, to nearest), solves, the
mp polynomial in log z and dot product against exact values, the double
engine's agreement with mpmath's fp context and with the expressions its
kernels replace, without loading mpmath, and the rule that every
computation takes its engine from its caller."""

import cmath
import inspect
import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_int, mpf_div, round_nearest

from monodromy_lab import engine as engine_module
from monodromy_lab import monodromy, solutions, special
from monodromy_lab.engine import (
    GUARD_BITS,
    NaNResidualError,
    _horner,
    get_engine,
    log2_magnitude,
    matrix_steps,
    max_deviation,
    max_magnitude,
)
from monodromy_lab.frame import canonical_coordinates, frame, sector_config, stokes_ray_angles
from monodromy_lab.pipeline import RunConfig, run_verify
from monodromy_lab.solutions import UCComplex, quantum_period
from oracles import (
    _gmul,
    elimination_bound,
    gaussian,
    horner_reference,
    log_polynomial_expression,
    scalar_column_derivatives_expression,
    vector_from_scalar_expression,
)


def test_double_real_is_correctly_rounded():
    # the denominators of (2d)!/(d!)^5 pass 2^53, so dividing by the
    # denominator rounded to a double would miss float(a) by an ulp
    e = get_engine("double")
    coefficients = [blk[0] for blk in quantum_period(40).blocks]
    assert max(a.denominator for a in coefficients) > 2 ** 53
    assert all(e.real(a) == float(a) for a in coefficients)


def test_mp_real_rounds_wide_numerators_once():
    e = get_engine("mp", dps=40)
    # the numerators are wider than the working precision (136 bits); the
    # first one rounded to 136 bits before the division lands an ulp off
    wide = (Fraction(5 ** 90, 3 ** 40), Fraction(-(5 ** 90), 3 ** 40),
            Fraction(3 ** 200 + 1, 7 ** 30))
    for x in wide:
        assert abs(x.numerator) > 2 ** 200
        p, q = from_int(x.numerator), from_int(x.denominator)
        assert e.real(x) == e.ctx.make_mpf(mpf_div(p, q, e.ctx.prec, round_nearest))


@pytest.mark.parametrize("name", ["double", "mp"])
def test_solve_and_inverse_match_lu_solve_at_twice_the_precision(name):
    e = get_engine(name, dps=40)
    ctx = mpmath.fp if name == "double" else e.ctx
    # a complex system whose pivoting swaps rows
    A = [[ctx.mpc(k % 3 - 1, (j * k) % 5) / (j + k + 1) for k in range(4)] for j in range(4)]
    B = [[ctx.mpc(j - k, 1) / 7 for k in range(4)] for j in range(4)]
    # the reference: mpmath's LU solve at twice the working precision (30
    # digits for double), on the same entries
    ref = get_engine("mp", dps=80 if name == "mp" else 30).ctx
    Ar, Br = ref.matrix(A), ref.matrix(B)
    ulps = 4 * ctx.eps
    X = e.solve(A, B)
    for k in range(4):
        col = ref.lu_solve(Ar, Br[:, k])
        for j in range(4):
            assert abs(ref.convert(X[j][k]) - col[j]) <= ulps * abs(col[j]), (j, k)
    residual = ref.matrix(e.inverse(A)) * Ar - ref.eye(4)
    assert all(abs(residual[i, j]) <= ulps for i in range(4) for j in range(4))


@pytest.mark.parametrize("name", ["double", "mp"])
def test_numerically_singular_matrices_are_refused(monkeypatch, capsys, name):
    from monodromy_lab.cli import main

    e = get_engine(name, dps=40)
    B = [[e.complex(Fraction(j - k, 7)) for k in range(4)] for j in range(4)]
    # a zero row, and a lone pivot candidate in column 0 below ||A||_1 eps
    # while every row sum is at least 1
    zero_row = [[1, 2, 0, 1], [0, 0, 0, 0], [3, 1, 1, 0], [0, 1, 0, 2]]
    tiny_pivot = [[Fraction(1, 10 ** 60), 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    singular = [[[e.complex(Fraction(v)) for v in row] for row in rows]
                for rows in (zero_row, tiny_pivot)]
    for A in singular:
        for solve in (lambda: e.solve(A, B), lambda: e.inverse(A)):
            # an ArithmeticError, which the CLI reports as a failed check
            with pytest.raises(ArithmeticError, match="numerically singular") as info:
                solve()
            assert info.type is ZeroDivisionError
    monkeypatch.setattr(monodromy, "assemble_YR", lambda z, order, engine: singular[0])
    assert main(["stokes", "--engine", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("failed check:")


def _mp_kernel_case(case, e):
    """A and B of one mp elimination case: Y_R \\ Y_L at the default Stokes
    point, Y_top \\ Y_R at the default connection point, the identity, a
    seeded random complex matrix and the same with its first row scaled by
    2^-100, the last three against a seeded random B, which is O(1)."""
    rng = random.Random(28)

    def draw():
        return [[e.complex(Fraction(rng.randint(-10 ** 12, 10 ** 12), 10 ** 12),
                           Fraction(rng.randint(-10 ** 12, 10 ** 12), 10 ** 12))
                 for _ in range(4)] for _ in range(4)]

    z_s, z_c = RunConfig.z0_stokes, RunConfig.z0_connection
    if case == "stokes":
        return monodromy.assemble_YR(z_s, 40, e), monodromy.assemble_YL(z_s, 40, e)
    if case == "connection":
        return monodromy.eval_Ytop(z_c, 40, e), monodromy.assemble_YR(z_c, 40, e)
    if case == "identity":
        return [[e.complex(int(i == j)) for j in range(4)] for i in range(4)], draw()
    A, B = draw(), draw()
    if case == "scaled":
        # B is held at one offset from A's row exponents, so rows 1 to 3 of
        # B are floored at 2^-100, 38 to 40 bits above their last bits; the
        # stated bound carries that read
        A[0] = [x * e.real(Fraction(1, 2 ** 100)) for x in A[0]]
    return A, B


@pytest.mark.parametrize("case", ["stokes", "connection", "identity", "random", "scaled"])
def test_mp_solve_and_inverse_stay_within_their_stated_bound(case):
    # the bound of MPEngine._eliminate, against an exact solve of its inputs
    # read as Fractions; at these inputs it is about half an ulp of each part
    e = get_engine("mp", dps=40)
    A, B = _mp_kernel_case(case, e)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    for X, rhs in ((e.solve(A, B), B), (e.inverse(A), identity)):
        exact, bound = elimination_bound(e, A, rhs)
        for x_row, exact_row, bound_row in zip(X, exact, bound):
            for x, parts, limits in zip(x_row, exact_row, bound_row):
                for got, want, limit in zip(gaussian(x), parts, limits):
                    assert abs(float(got - want)) <= limit, (case, got, want, limit)
    if case == "identity":
        assert e.inverse(A) == tuple(map(tuple, A))
    # a Python float or complex entry is read as Engine.complex reads it;
    # an operand of Y_R or Y_L enters Python through Engine.number
    plain = [[[float(x.real) if j % 2 else complex(x) for j, x in enumerate(map(e.number, row))]
              for row in M] for M in (A, B)]
    converted = [[[e.complex(x) for x in row] for row in M] for M in plain]
    assert e.solve(*plain) == e.solve(*converted), case


def test_mp_pivot_ties_go_to_the_first_of_the_exactly_largest():
    # rows 0 and 1 tie at column 0 (size over row sum 1/2 each), and in the
    # second matrix row 0 falls short of row 1 by 2^-171 of its ratio, which
    # a ratio rounded to prec + 10 bits does not see.  The other pivot leaves
    # a row of sum 2^-199 ||A||_1, which is refused, so only the rule gives
    # a solution; its pivots are powers of 2, so the elimination is exact and
    # X is the exact solution rounded once
    e = get_engine("mp", dps=40)
    small, eta = Fraction(1, 2 ** 100), Fraction(1, 2 ** 100)
    tie = [[small, small, 0, 0], [1, 1 - eta, eta, 0], [0, 1, 1, 1], [0, 0, 0, 1]]
    near = [[1, 1 - eta, eta, Fraction(1, 2 ** 170)], [small, small, 0, 0],
            [0, 1, 1, 1], [0, 0, 0, 1]]
    X0 = [[j - 2 * k + 1 for k in range(4)] for j in range(4)]
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    for rows in (tie, near):
        A = [[e.complex(Fraction(v)) for v in row] for row in rows]
        B = [[e.complex(sum(Fraction(a) * X0[c][k] for c, a in enumerate(row)))
              for k in range(4)] for row in rows]
        for X, rhs in ((e.solve(A, B), B), (e.inverse(A), identity)):
            exact, _ = elimination_bound(e, A, rhs)
            assert X == tuple(tuple(e.complex(*parts) for parts in row) for row in exact)


def _frame_and_verify_runs(tmp_path, label):
    """repr of frame() under both engines, and the report bytes and exit
    code of verify under both engines at the defaults and off them."""
    from monodromy_lab.cli import main

    out = {}
    off = ["--z0-stokes", "1.5,0.8", "--z0-connection", "0.2,0.785"]
    for name in ("mp", "double"):
        out["frame", name] = repr(frame(get_engine(name, dps=40)))
        for args in ([], off):
            path = tmp_path / f"{label}-{name}-{len(args)}.json"
            code = main(["verify", "--engine", name, *args, "--output", str(path)])
            out["verify", name, len(args)] = code, path.read_bytes()
    return out


def test_no_mpmath_lu_on_the_verify_path(monkeypatch, tmp_path):
    # nor any mpmath matrix at all: every matrix of the package is rows
    from mpmath.matrices.linalg import LinearAlgebraMethods
    from mpmath.matrices.matrices import _matrix

    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath LU solve, matrix or matrix power on the verify path")

    one = mpmath.fp.matrix([[1]])
    with monkeypatch.context() as patched:
        for owner, attr in ((LinearAlgebraMethods, "LU_decomp"),
                            (LinearAlgebraMethods, "lu_solve"), (_matrix, "__pow__"),
                            (_matrix, "__init__")):
            patched.setattr(owner, attr, refuse)
        with pytest.raises(AssertionError):
            one ** -1
        with pytest.raises(AssertionError):
            get_engine("mp", dps=40).ctx.matrix(4, 4)
        runs = _frame_and_verify_runs(tmp_path, "patched")
    assert runs == _frame_and_verify_runs(tmp_path, "plain")
    assert {key: runs[key][0] for key in runs if key[0] == "verify"} == {
        ("verify", "mp", 0): 0, ("verify", "mp", 4): 0,
        ("verify", "double", 0): 1, ("verify", "double", 4): 0}


def test_a_nan_in_a_residual_maximum_is_a_named_error():
    # Python's max keeps whichever of a NaN and a number it meets first
    nan = float("nan")
    for rows in ([[1, nan]], [[nan, 1]]):
        for engine in (get_engine("double"), get_engine("mp", dps=40)):
            with pytest.raises(NaNResidualError):
                max_deviation([[engine.real(x) for x in row] for row in rows], [[0, 0]])
        with pytest.raises(NaNResidualError):
            max_deviation(rows, [[0, 0]])
    assert max_deviation([[1, -2]], [[0, 0]]) == 2.0


def exp_overflow():
    """Raise and catch the OverflowError of cmath.exp past the double
    range, which leaves errno set."""
    try:
        cmath.exp(complex(759.9, 0.9))
    except OverflowError:
        return
    raise AssertionError("cmath.exp did not overflow")


def test_log2_magnitude_of_a_python_number_never_raises():
    # Python's abs of a complex raises OverflowError ("absolute value too
    # large") where the modulus passes the double range, and for NaN parts
    # right after a caught overflow, while errno is still set; the log2 is
    # read from the parts instead
    exp_overflow()
    assert math.isnan(log2_magnitude(complex(math.nan, math.nan)))
    exp_overflow()
    big = log2_magnitude(complex(1.7e308, -1.7e308))
    assert abs(big - (math.log2(1.7e308) + 0.5)) < 1e-12
    exp_overflow()
    assert log2_magnitude(complex(math.inf, math.nan)) == math.inf
    assert math.isnan(log2_magnitude(math.nan))
    assert log2_magnitude(-math.inf) == math.inf
    assert log2_magnitude(0j) == log2_magnitude(0.0) == -math.inf
    # within the slack of |x| wherever abs reads it, subnormal parts too
    rng = random.Random(7)
    for _ in range(200):
        x = complex(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 307),
                    rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 307))
        if x:
            assert abs(log2_magnitude(x) - math.log2(abs(x))) < 1e-12, x
    assert log2_magnitude(Fraction(1, 8)) == -3 and log2_magnitude(2 ** 2000) == 2000


def test_max_deviation_of_mp_entries_beside_fractions():
    # mpmath's numbers do not order against a Fraction; their floats do
    A = [[mpmath.mpc(1, 1), 2], [3, mpmath.mpf(-4)]]
    assert max_deviation(A, [[0, 0], [Fraction(1, 2), 0]]) == 4.0


def unfiltered_max_deviation(A, B):
    """The largest entrywise |A - B| with the ``abs`` of every entry taken."""
    return max_magnitude(abs(a - b) for row_a, row_b in zip(A, B) for a, b in zip(row_a, row_b))


def test_max_deviation_keeps_the_largest_entry_bit_for_bit():
    # the log2 filter before the mp abs never drops the largest entry: on
    # random matrices, exact ties, entries one ulp apart, zeros and an
    # all-zero matrix, the maximum is the unfiltered one to the last bit
    e = get_engine("mp", dps=40)
    rng = random.Random(20)
    ulp = e.real(2) ** (1 - e.ctx.prec)

    def entry():
        scale = e.real(2) ** rng.randint(-140, -60)
        return e.complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale

    zero = [[e.complex(0)] * 4 for _ in range(4)]
    cases = [(zero, zero), (zero, [[0] * 4] * 4)]
    for _ in range(200):
        A = [[entry() for _ in range(4)] for _ in range(4)]
        B = [[entry() if rng.random() < 0.7 else A[i][j] for j in range(4)] for i in range(4)]
        cases.append((A, B))
        x = entry()
        # x with up to three exact ties of |x| and an entry a unit or two in
        # the last place of Re x above it, and three copies of x turned and
        # shrunk by less than the resolution of a float log2 near -100, so
        # that their log2 magnitudes need not order as their moduli do;
        # among zeros and smaller entries
        ties = [-x, e.ctx.conj(x), e.i * x, e.complex(x.real + ulp * abs(x.real), x.imag)]
        turned = [x * e.exp(e.i * rng.uniform(0, 6.3)) * e.real(1 - rng.uniform(0, 3e-14))
                  for _ in range(3)]
        rest = [e.complex(0)] * 2 + [x * e.real(rng.uniform(0, 1)) for _ in range(6)]
        flat = [x] + turned + ties[:rng.randint(0, 4)] + rest
        rng.shuffle(flat)
        cases.append(([flat[4 * i:4 * i + 4] for i in range(4)], [[0] * 4] * 4))
    # mp entries beside exact ones
    cases.append(([[e.complex(1, 1), 2], [3, e.real(-4)]], [[0, 0], [-2, 0]]))
    for A, B in cases:
        assert max_deviation(A, B).hex() == unfiltered_max_deviation(A, B).hex()
    for position in range(16):
        A = [[entry() for _ in range(4)] for _ in range(4)]
        A[position // 4][position % 4] = e.complex(e.ctx.nan, 0)
        with pytest.raises(NaNResidualError):
            max_deviation(A, zero)


def test_every_computation_takes_its_engine_explicitly():
    computations = [
        canonical_coordinates, frame,
        monodromy.eval_Ytop, monodromy.vector_from_scalar, monodromy.assemble_YR,
        monodromy.assemble_YL, monodromy.stokes_matrix, monodromy.connection_matrix,
        monodromy.verify_constraints,
        solutions.phi_series, solutions.eval_series, solutions.contour_eval,
        solutions.identity_residuals,
        special.laurent_coefficients,
    ]
    for fn in computations:
        assert inspect.signature(fn).parameters["engine"].default is inspect.Parameter.empty, fn
    # the sector geometry and the dominance order do not depend on an engine
    for fn in (stokes_ray_angles, sector_config, monodromy.dominance_permutation):
        assert "engine" not in inspect.signature(fn).parameters, fn
    with pytest.raises(ValueError, match="dps"):
        get_engine("mp")


# -- the double engine on the standard library -------------------------------

def test_double_constants_are_correctly_rounded():
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    e = get_engine("double")
    assert (e.pi, e.euler, e.zeta3) == (float(ctx.pi), float(ctx.euler), float(ctx.zeta(3)))
    assert e.eps == 1e-16 and e.machine_eps == mpmath.fp.eps == 2.0 ** -52


def bits(x):
    """A number's type and the hex of its parts, or the type of the error
    computing it raised: equal only for the same double, sign of zero
    included."""
    if isinstance(x, BaseException):
        return type(x)
    parts = (x.real, x.imag) if isinstance(x, complex) else (x,)
    return type(x), tuple(float(v).hex() for v in parts)


def outcome(f, *args):
    try:
        return bits(f(*args))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return bits(exc)


def test_double_arithmetic_is_mpmath_fp_bit_for_bit():
    e, fp = get_engine("double"), mpmath.fp
    reals = [0, 0.0, -0.0, 2, -3, 0.75, -2.5, 1e-300, -1e300, 1000.0,
             math.inf, -math.inf, math.nan,
             Fraction(1, 3), Fraction(-7, 3), Fraction(3 ** 60 + 1, 7 ** 25)]
    complexes = [0j, complex(-2.0, 0.0), complex(-2.0, -0.0), 3 + 4j, -1.5 - 0.25j,
                 complex(0.0, -7.0), complex(1e-200, 1e200)]
    for x in reals + complexes:
        for name in ("exp", "log", "sqrt"):
            assert outcome(getattr(e, name), x) == outcome(getattr(fp, name), x), (name, x)
    for x in reals:
        assert bits(e.real(x)) == bits(fp.mpf(x)), x
        # two reals enter as the context's reals: Python's complex() adds
        # 0.0 to -0.0 for a Fraction part, which then reads +0.0
        for y in (0, -0.0, Fraction(-2, 9), 1.25):
            assert bits(e.complex(x, y)) == bits(fp.mpc(fp.mpf(x), fp.mpf(y))), (x, y)
    for x in complexes:
        assert bits(e.complex(x, 0)) == bits(fp.mpc(x, 0)), x
    A = [[complexes[(i + j) % 7] * (i - j) for j in range(4)] for i in range(4)]
    B = [[-0.0, 1, 2.5, -3j], [0j, -0.0, Fraction(1, 3), 1e-200],
         [4 - 1j, -0.0, 0, 7], [1e200j, 0.5, -1, -0.0]]
    for X, Y in ((A, B), (B, A)):
        product = (fp.matrix(X) * fp.matrix(Y)).tolist()
        got = e.matmul(X, Y)
        assert [[bits(v) for v in row] for row in got] == \
            [[bits(v) for v in row] for row in product]


def test_double_commands_never_load_mpmath():
    # each command in turn in one fresh process, with its exit code; the
    # contour oracle of solutions is the only double path that loads mpmath
    code = ("import contextlib, io, sys\n"
            "from monodromy_lab import cli\n"
            "print('mpmath' in sys.modules)\n"
            "for argv in (['verify', '--engine', 'double'], ['stokes', '--engine', 'double'],\n"
            "             ['connection', '--engine', 'double'], ['qcoh'], ['period'],\n"
            "             ['phitop'], ['euler-matrix']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    print(code, 'mpmath' in sys.modules, *argv)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.splitlines() == [
        "False", "1 False verify --engine double", "1 False stokes --engine double",
        "0 False connection --engine double", "0 False qcoh", "0 False period",
        "0 False phitop", "0 False euler-matrix"], proc.stderr


def test_double_solutions_runs_its_contour_oracle(tmp_path):
    from monodromy_lab.cli import main

    assert main(["solutions", "--engine", "double", "--output", str(tmp_path / "s.json")]) == 0


# -- the mp polynomial in log z and dot product, against exact values --------

def _exact(x, e):
    """An engine input as exact (re, im) Fractions, read as the mp kernels
    read it: ints, operands and mp numbers as they are, a Fraction floored
    to prec + GUARD_BITS bits, anything else through ``Engine.complex``."""
    if isinstance(x, Fraction):
        unit = Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length()
                               - e.ctx.prec - GUARD_BITS)
        return math.floor(x / unit) * unit, Fraction(0)
    return gaussian(x if isinstance(x, (int, tuple)) or hasattr(x, "_mpf_")
                    or hasattr(x, "_mpc_") else e.complex(x))


def _gadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _modulus_above(a):
    """An upper bound on |re + i im| for exact parts, within 2^-100 of it."""
    s = a[0] ** 2 + a[1] ** 2
    if not s:
        return Fraction(0)
    k = max(0, (200 - s.numerator.bit_length() + s.denominator.bit_length()) // 2)
    return Fraction(math.isqrt(s.numerator * 4 ** k // s.denominator) + 1, 2 ** k)


def _gsub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _random_mp(e, rng, low=-30, high=30):
    scale = Fraction(2) ** rng.randint(low, high)
    return e.complex(Fraction(rng.randint(-10 ** 30, 10 ** 30), 10 ** 30) * scale,
                     Fraction(rng.randint(-10 ** 30, 10 ** 30), 10 ** 30) * scale)


def _log_polynomial_cases(e, rng):
    """(sums, l, scale): random inputs, zero and int entries, z^rho scales
    and sums that cancel to 2^-100 of the largest term."""
    z = UCComplex.polar(2, math.pi / 4)
    point = solutions.point_data(z, e)
    scales = [1, *point.inverse_powers[1:], _random_mp(e, rng)]
    for _ in range(40):
        yield [_random_mp(e, rng) for _ in range(4)], _random_mp(e, rng, -2, 2), rng.choice(scales)
    yield [e.complex(0), 0, 3, e.complex(0)], point.l, 1
    yield [0, 0, 0, 0], point.l, point.inverse_powers[2]
    yield [_random_mp(e, rng) for _ in range(4)], e.complex(0), point.inverse_powers[3]
    yield [7, -2, 0, 1], 5, 1
    for _ in range(20):
        t1, t2, t3 = (_random_mp(e, rng) for _ in range(3))
        l = _random_mp(e, rng, -2, 2)
        rest = _gmul(_exact(l, e), _gadd(_exact(t1, e), _gmul(_exact(l, e), _gadd(
            _exact(t2, e), _gmul(_exact(l, e), _exact(t3, e))))))
        largest = max(_modulus_above(x) for x in (rest, _exact(t1, e)))
        # T0 cancels the rest to within 2^-100 of the largest term
        tiny = largest / 2 ** 100
        t0 = e.complex(-rest[0] + tiny, -rest[1] - tiny / 3)
        yield [t0, t1, t2, t3], l, rng.choice(scales)


@pytest.mark.parametrize("dps", (40, 291))
def test_mp_log_polynomial_stays_within_its_stated_bound(dps):
    # the exact value of the inputs read as Fractions, against the bound of
    # MPEngine.log_polynomial on the modulus of the returned operand's
    # error: 2^(4 - prec - GUARD_BITS) |scale| sum_k |l|^k |T_k|, with no
    # rounding after it
    e = get_engine("mp", dps=dps)
    prec = e.ctx.prec
    rng = random.Random(30 + dps)
    cancelled = 0
    for sums, l, scale in _log_polynomial_cases(e, rng):
        T, L, s = [_exact(t, e) for t in sums], _exact(l, e), _exact(scale, e)
        exact = T[3]
        for t in reversed(T[:3]):
            exact = _gadd(_gmul(exact, L), t)
        exact = _gmul(s, exact)
        size = sum(_modulus_above(L) ** k * _modulus_above(t) for k, t in enumerate(T))
        bound = Fraction(2) ** (4 - prec - GUARD_BITS) * _modulus_above(s) * size
        got = e.log_polynomial(sums, l, scale)
        assert type(got) is tuple
        assert _modulus_above(_gsub(gaussian(got), exact)) <= bound, (sums, l, scale)
        cancelled += 0 < _modulus_above(exact) < _modulus_above(s) * size / 2 ** 90
    assert cancelled >= 20


@pytest.mark.parametrize("dps", (40, 291))
def test_mp_fdot_is_the_exact_sum_floored_once(dps):
    # as MPEngine.fdot states, each part of the returned operand is the
    # exact dot product's part floored at the operand's exponent, where the
    # larger part keeps prec + GUARD_BITS bits, so off by less than
    # 2^(1 - prec - GUARD_BITS) of the exact modulus, on random vectors with
    # zero, int, Fraction, float and Python complex entries, and on sums
    # that cancel to 2^-100 of the largest product
    e = get_engine("mp", dps=dps)
    bits = e.ctx.prec + GUARD_BITS
    rng = random.Random(31 + dps)
    others = [0, e.complex(0), 3, -1, Fraction(1, 3), 0.1, 2.5 - 1j]
    cases = []
    for n in range(1, 7):
        for _ in range(10):
            xs = [_random_mp(e, rng) if rng.random() < 0.8 else rng.choice(others) for _ in range(n)]
            ys = [_random_mp(e, rng) if rng.random() < 0.8 else rng.choice(others) for _ in range(n)]
            cases.append((xs, ys))
    for n in range(2, 7):
        for _ in range(5):
            xs = [_random_mp(e, rng) for _ in range(n)]
            ys = [_random_mp(e, rng) for _ in range(n - 1)]
            partial = (Fraction(0), Fraction(0))
            for x, y in zip(xs, ys):
                partial = _gadd(partial, _gmul(_exact(x, e), _exact(y, e)))
            # the last product cancels the others to about 2^-100 of them
            xr, xi = _exact(xs[-1], e)
            q = xr * xr + xi * xi
            last = ((-partial[0] * xr - partial[1] * xi) / q, (partial[0] * xi - partial[1] * xr) / q)
            cases.append((xs, ys + [e.complex(*last) * (1 + e.real(2) ** -100)]))
    for xs, ys in cases:
        exact = (Fraction(0), Fraction(0))
        for x, y in zip(xs, ys):
            exact = _gadd(exact, _gmul(_exact(x, e), _exact(y, e)))
        re, im, exp = e.fdot(xs, ys)
        unit = Fraction(2) ** exp
        assert (re, im) == tuple(math.floor(x / unit) for x in exact), (xs, ys)
        assert max(abs(re), abs(im)).bit_length() <= bits + 1, (xs, ys)
        error = Fraction(2) ** (1 - bits) * _modulus_above(exact)
        assert all(abs(g - x) <= error for g, x in zip(gaussian((re, im, exp)), exact)), (xs, ys)


def _horner_cases():
    """(terms, w, bits) for the Horner loop: three chosen cases, then seeded
    random columns with leading and mid-column zero terms, parts that are
    often small (so that sums cancel exactly) and otherwise up to 90 bits of
    either sign, exponents far apart in both directions, w with a zero part,
    and bits from 1, so that every step cuts."""
    # a sum that cancels to 0 exactly, then a zero term, then terms taken as
    # they are, wider than ``bits`` and at a lower exponent than the sum
    yield [(0, 0, 4), (1, 0, 0), (-1, 0, 0), (0, 0, 7), (-5, 3, -9), (2, 1, 0)], (1, 0, 0), 2
    yield [(1, 1, 0), (0, -2, 0), (0, 0, 3)], (0, 1, 0), 64
    yield [(3, 0, 0), (0, 0, 0)], (0, 0, 0), 8
    rng = random.Random(32)

    def part():
        kind = rng.random()
        if kind < 0.3:
            return 0
        if kind < 0.6:
            return rng.randint(-3, 3)
        return rng.randint(-2 ** 90, 2 ** 90)

    def term():
        return part(), part(), rng.randint(-300, 300)

    for _ in range(400):
        leading = [(0, 0, rng.randint(-300, 300)) for _ in range(rng.randint(0, 3))]
        terms = [term() for _ in range(rng.randint(0, 12))]
        yield leading + terms, term(), rng.choice([1, 2, 3, rng.randint(1, 160)])


def test_horner_loop_gives_the_reference_integers():
    # the loop without per-step calls returns the very (re, im, exp) of the
    # loop it replaced, kept in the oracles, for leading and mid-column zero
    # terms, exact cancellations, negative parts, exponent gaps either way,
    # w with a zero part and cuts at every step (small bits)
    for column, w, bits in _horner_cases():
        assert _horner(column, w, bits) == horner_reference(column, w, bits), (column, w, bits)


def test_operand_passes_an_operand_through():
    mp, double = get_engine("mp", dps=40), get_engine("double")
    parts = (3, -5, -7)
    assert mp.operand(parts) is parts
    assert mp.operand(mp.complex(1.5, -2)) == (3, -4, -1)
    assert mp.operand(4) == (4, 0, 0)
    x = 1.5 - 2j
    assert double.operand(x) is x


@pytest.mark.parametrize("dps", (8, 40, 291))
def test_operand_floors_a_fraction_once(dps):
    # a Fraction is floored to prec + GUARD_BITS bits: its larger part has
    # that many bits or one more, and it lies less than 2^(1 - prec -
    # GUARD_BITS) |x| below x; under double it is the float of ``real``
    e, double = get_engine("mp", dps=dps), get_engine("double")
    bits = e.ctx.prec + GUARD_BITS
    rng = random.Random(7 + dps)
    cases = [Fraction(1, 3), Fraction(-1, 3), Fraction(2) ** 900, Fraction(-7, 2 ** 1000)]
    cases += [Fraction(rng.randrange(-10 ** 80, 10 ** 80),
                       rng.randrange(1, 10 ** rng.randrange(1, 90)))
              for _ in range(200)]
    for x in cases:
        re, im, exp = e.operand(x)
        value = Fraction(re) * Fraction(2) ** exp
        assert im == 0 and bits <= abs(re).bit_length() <= bits + 1, x
        assert x - Fraction(2) ** (1 - bits) * abs(x) < value <= x, x
        assert double.operand(x) == double.real(x) == float(x)
    assert e.operand(Fraction(0))[:2] == (0, 0)


def test_a_warm_verify_reads_each_cached_operand_once(monkeypatch):
    # with warm caches a default verify reads 988 mp numbers into exact
    # integers, against 3277 when the caches held mp numbers: each point's
    # l, z^-k and lift factors and the column factors are read once, as
    # they are cached, and the block sums, series values, column
    # derivatives and entries of Y_R and Y_L reach the next kernel as
    # operands, which no kernel reads again
    run_verify(RunConfig())
    reads = []
    exact_parts = engine_module._exact_parts
    monkeypatch.setattr(engine_module, "_exact_parts", lambda x: reads.append(x) or exact_parts(x))
    run_verify(RunConfig())
    assert 0 < len(reads) <= 1000


def test_a_warm_verify_rounds_no_value_it_passes_to_a_kernel(monkeypatch):
    # with warm caches a default verify rounds 272 values to mp numbers:
    # the X of its solves and inverse (112), the entries of its products
    # (80) and of the held-out Y_R (16), and the Phi_top block sums that
    # eval_Ytop multiplies in mpmath (64); no block sum, series value,
    # column derivative or entry of Y_R and Y_L is rounded on its way to
    # the next kernel
    run_verify(RunConfig())
    stacks = []
    rounded = engine_module._rounded

    def recorded(ctx, re, im, exp):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return rounded(ctx, re, im, exp)

    monkeypatch.setattr(engine_module, "_rounded", recorded)
    run_verify(RunConfig())
    assert 0 < len(stacks) <= 300
    kernels = {"horner", "log_polynomial", "fdot", "eval_series", "scalar_column_derivatives",
               "vector_from_scalar"}
    assert not any(names & kernels for names in stacks)


def test_mp_kernels_refuse_non_finite_inputs():
    e = get_engine("mp", dps=40)
    ctx = e.ctx
    finite = [e.complex(1, 2), e.complex(-3), e.complex(0, 5), e.complex(2, -1)]
    for bad in (e.complex(ctx.nan), e.complex(0, ctx.inf), e.real(-ctx.inf), ctx.nan):
        for k in range(4):
            sums = list(finite)
            sums[k] = bad
            with pytest.raises(OverflowError):
                e.log_polynomial(sums, finite[0], 1)
        with pytest.raises(OverflowError):
            e.log_polynomial(finite, bad, 1)
        with pytest.raises(OverflowError):
            e.log_polynomial(finite, finite[0], bad)
        # a non-finite entry raises even against a zero factor
        for xs, ys in (([bad, 1], [0, 2]), ([1, 0], [2, bad]), ([float("nan")], [1])):
            with pytest.raises(OverflowError):
                e.fdot(xs, ys)
        # the block pass, at a coefficient and at w, the elimination, in A
        # and in B, and the recursion's block 0, read as operands
        with pytest.raises(OverflowError):
            e.horner_columns([finite, [finite[0], bad, *finite[2:]]])
        with pytest.raises(OverflowError):
            e.horner(e.horner_columns([finite, finite]), bad)
        A = [[e.complex(4 * int(i == j) + 1) for j in range(4)] for i in range(4)]
        bad_A, bad_B = [list(row) for row in A], [list(row) for row in A]
        bad_A[1][2] = bad_B[2][0] = bad
        for args in ((bad_A, A), (A, bad_B)):
            with pytest.raises(OverflowError):
                e.solve(*args)
        Q = [[int(i <= j) for j in range(4)] for i in range(4)]
        with pytest.raises(OverflowError):
            matrix_steps(tuple(map(e.operand, (finite[0], finite[1], bad, finite[3]))),
                         [(Q, 3)], e.prec)


def test_double_kernels_are_the_expressions_they_replace():
    # under double, eval_series' polynomial in l, the column derivatives and
    # the lift give the doubles of the expressions they replace
    e = get_engine("double")
    rng = random.Random(32)

    def draw():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 2.0 ** rng.randint(-20, 20)

    for _ in range(200):
        sums, l = [draw() for _ in range(4)], draw()
        for scale in (1, draw()):
            assert e.log_polynomial(sums, l, scale) == log_polynomial_expression(sums, l, scale)
    points = ([RunConfig.z0_stokes.rotated(m) for m in (-2, -1, 0, 1, 2)]
              + [RunConfig.z0_connection.rotated(m) for m in (0, 1, 2)])
    for z in points:
        for spec in (*monodromy._YL_SPECS, *monodromy._YR_SPECS, monodromy._YL_COL3_ALT):
            derivs = monodromy.scalar_column_derivatives(spec, z, 40, e)
            assert derivs == scalar_column_derivatives_expression(spec, z, 40, e), (z, spec)
            assert (monodromy.vector_from_scalar(derivs, z, e)
                    == vector_from_scalar_expression(derivs, z, e)), (z, spec)
