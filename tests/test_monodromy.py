"""Topological solution, sectorial solutions, Stokes / connection matrices,
and the monodromy constraints."""

import cmath
import math
from fractions import Fraction

import pytest

from monodromy_lab.engine import Engine, get_engine, max_deviation
from monodromy_lab import monodromy
from monodromy_lab.monodromy import (
    MU_DIAG,
    ResonanceError,
    SnapError,
    assemble_YL,
    assemble_YR,
    connection_matrix,
    connection_points,
    dominance_order,
    dominance_permutation,
    eval_Ytop,
    exp_R,
    exp_mu_units,
    phi_top,
    scalar_column_derivatives,
    stokes_matrix,
    stokes_points,
    vector_from_scalar,
    _YL_COL3_ALT,
    _YL_SPECS,
    _YR_SPECS,
)
from monodromy_lab import reference
from monodromy_lab.closedform import PI
from monodromy_lab.ring import matmul, operator_matrices
from monodromy_lab.solutions import (
    PHI1,
    PHI2,
    SectorError,
    UCComplex,
    phi_series,
    point_data,
)
import oracles
from oracles import (
    ATTRIBUTION_CLASSES,
    SPEC_FACTORS,
    attribute_residual,
    context_matrix,
    m_top,
    mpmath_context,
    phi_top_grading_violations,
    phi_top_orthogonality_residuals,
    phi_top_recursion_residuals,
    rotation_operator_matrix,
    shifted_by_turns,
    spec_numerators,
)

E = get_engine("double")
MP = get_engine("mp", dps=40)
#: the extraction settings of a default run
ORDER = 40
SNAP_TOL = 1e-6
STOKES_Z0S = stokes_points(UCComplex.polar(2.0, math.pi / 4))
CONNECTION_Z0S = connection_points(UCComplex.polar(0.1, math.pi / 4))


def exp_mu(t, engine):
    """e^(t mu) = diag e^(t mu_i) by the engine's exponentials; z^mu is
    e^(t mu) at t = log z."""
    return mpmath_context(engine).diag([engine.exp(engine.real(mu) * t) for mu in MU_DIAG])

def test_phi_top_published_blocks():
    series = phi_top(10)
    assert series[0] == tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(4)) for i in range(4)
    )
    for k, entries in reference.PHI_TOP_REF.items():
        mat = series[k]
        for i in range(4):
            for j in range(4):
                assert mat[i][j] == entries.get((i, j), Fraction(0)), (k, i, j)


def test_phi_top_invariants_exact_through_order_10():
    series = phi_top(10)
    for res in phi_top_recursion_residuals(series):
        assert all(x == 0 for x in res)
    assert phi_top_grading_violations(series) == []
    for r in phi_top_orthogonality_residuals(series):
        assert r == 0


def _dense_phi_top(order):
    # the recursion with every right-hand side summed in full, the eight
    # products of (U_cal Phi_(k-1) - Phi_(k-1) R)_ab, zeros included
    _, R, U = operator_matrices(q=Fraction(1))
    mats = [[[Fraction(int(i == j)) for j in range(4)] for i in range(4)]]
    for k in range(1, order + 1):
        prev = mats[-1]
        cur = [[Fraction(0)] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                rhs = sum(U[a][t] * prev[t][b] - prev[a][t] * R[t][b] for t in range(4))
                div = k + MU_DIAG[b] - MU_DIAG[a]
                if div:
                    cur[a][b] = rhs / div
                else:
                    assert rhs == 0, (k, a, b)
        mats.append(cur)
    return mats


@pytest.mark.parametrize("order", (40, 60))
def test_phi_top_equals_the_dense_recursion(order):
    coeffs = phi_top(order)
    assert [[list(row) for row in mat] for mat in coeffs] == _dense_phi_top(order)
    assert all(type(x) is Fraction for mat in coeffs for row in mat for x in row)


def test_phi_top_refuses_an_inconsistent_resonance(monkeypatch):
    # entry (1, 0) of Phi_1 is resonant (1 + mu_0 - mu_1 = 0), and there
    # U_cal - R vanishes; a changed U_cal[1][0] leaves it nonzero
    _, R, U = operator_matrices(q=Fraction(1))
    bad_U = tuple(tuple(x + ((a, b) == (1, 0)) for b, x in enumerate(row))
                  for a, row in enumerate(U))
    monkeypatch.setattr(monodromy, "operator_matrices", lambda q: (None, R, bad_U))
    phi_top.cache_clear()
    try:
        with pytest.raises(ResonanceError, match=r"k=1, entry \(1,0\)"):
            phi_top(3)
    finally:
        phi_top.cache_clear()


def test_eval_Ytop_determinant():
    # det Y_top = det Phi_top (z^mu z^R has unit determinant); near 1 for
    # small z
    z = UCComplex.polar(0.05, math.pi / 5)
    Y = eval_Ytop(z, order=30, engine=E)
    det = _det4(Y)
    assert abs(det - 1) < 1e-4
    # against det Phi_top directly
    series = phi_top(30)
    zc = 0.05 * cmath.exp(1j * math.pi / 5)
    Phi = [[sum(float(series[k][i][j]) * zc ** k for k in range(31))
            for j in range(4)] for i in range(4)]
    det_phi = _det4_list(Phi)
    assert abs(det - det_phi) < 1e-12


def _det4(M):
    return _det4_list([[complex(x) for x in row] for row in M])


def _det4_list(rows):
    import itertools

    total = 0j
    for perm in itertools.permutations(range(4)):
        sign = 1
        for a in range(4):
            for b in range(a + 1, 4):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = 1
        for i in range(4):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def _taylor_flow(y0, z0, z1, steps=3, terms=30):
    """High-order Taylor integration of dy/dz = (U + mu/z) y, an independent
    oracle for the z->0 solution columns."""
    mu, _, U = operator_matrices(q=Fraction(1))
    Uc = [[complex(x) for x in row] for row in U]
    muc = [[complex(x) for x in row] for row in mu]
    y = list(y0)
    zs = [z0 + (z1 - z0) * k / steps for k in range(steps + 1)]
    for a in range(steps):
        za, h = zs[a], zs[a + 1] - zs[a]
        coeffs = [list(y)]
        for k in range(terms):
            ck = coeffs[k]
            ckm1 = coeffs[k - 1] if k else [0j] * 4
            nxt = []
            for i in range(4):
                v = sum(Uc[i][t] * (za * ck[t] + ckm1[t]) for t in range(4))
                v += sum(muc[i][t] * ck[t] for t in range(4))
                v -= k * ck[i]
                nxt.append(v / (za * (k + 1)))
            coeffs.append(nxt)
        y = [sum(coeffs[k][i] * h ** k for k in range(terms + 1)) for i in range(4)]
    return y


def test_eval_Ytop_column_against_taylor_flow():
    z_from = UCComplex.polar(0.05, 0.0)
    z_to = UCComplex.polar(0.1, 0.0)
    Y0 = eval_Ytop(z_from, order=35, engine=E)
    Y1 = eval_Ytop(z_to, order=35, engine=E)
    col0 = [complex(Y0[i][0]) for i in range(4)]
    flowed = _taylor_flow(col0, 0.05, 0.1)
    for i in range(4):
        assert abs(flowed[i] - complex(Y1[i][0])) < 1e-10


def ytop_oracle(point, order, ctx):
    """Y_top by mpc sums in ctx, from the point's z^(1/2) and l taken as
    exact: sum over n, k of (Phi_n)_ak z^(n + mu_k) (e^(lR))_kj, and the sum
    of those terms' magnitudes, per entry (a, j)."""
    h, l = ctx.mpc(point.half_powers[0]), ctx.mpc(point.l)
    _, R, _ = operator_matrices()
    E = [[[] for _ in range(4)] for _ in range(4)]
    power = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for p in range(4):
        for k in range(4):
            for j in range(4):
                if power[k][j]:
                    c = power[k][j] / math.factorial(p)
                    E[k][j].append(ctx.mpf(c.numerator) / c.denominator * l ** p)
        power = [[sum(power[i][t] * R[t][j] for t in range(4)) for j in range(4)]
                 for i in range(4)]
    out = {}
    for a in range(4):
        for j in range(4):
            terms = [ctx.mpf(v.numerator) / v.denominator * h ** (2 * n + int(2 * MU_DIAG[k])) * e
                     for k in range(4) for e in E[k][j]
                     for n, mat in enumerate(phi_top(order)) if (v := mat[a][k])]
            out[a, j] = (ctx.fsum(terms), ctx.fsum(abs(t) for t in terms))
    return out


@pytest.mark.parametrize("engine", [E, MP], ids=["double", "mp"])
def test_eval_Ytop_matches_a_double_precision_oracle(engine):
    # the kernel-built Y_top against mpc sums at twice the working
    # precision: under mp every step after z^(1/2) and l carries guard bits
    # and each entry is rounded once, so it lies within 2^-prec of the sum
    # of its terms' magnitudes; double has no guard bits, and its Horner
    # steps and products each round (measured worst 3.1 2^-53)
    ctx = get_engine("mp", dps=40).ctx.clone()
    prec = mpmath_context(engine).prec
    ctx.prec = 2 * prec
    bound = ctx.mpf(2) ** -prec * (1 if engine is MP else 8)
    for modulus in (0.05, 0.1, 0.2, 0.4):
        z = UCComplex.polar(modulus, 0.7)
        Y = eval_Ytop(z, ORDER, engine)
        for (a, j), (ref, scale) in ytop_oracle(point_data(z, engine), ORDER, ctx).items():
            assert abs(ctx.mpc(Y[a][j]) - ref) <= bound * scale, (modulus, a, j)


def test_eval_Ytop_agrees_with_its_matrix_form():
    # Phi_top(z) z^mu z^R as an mpmath matrix product, term by term in z
    z = UCComplex.polar(0.3, 0.7)
    l = z.log(MP)
    zc = MP.exp(l)
    Phi = MP.ctx.matrix(4, 4)
    for k, mat in enumerate(phi_top(ORDER)):
        Phi += context_matrix(MP, mat) * zc ** k
    expected = Phi * exp_mu(l, MP) * context_matrix(MP, exp_R(l, MP))
    assert max_deviation(eval_Ytop(z, ORDER, MP), expected.tolist()) < 1e-38


def test_phi_top_orthogonality_at_a_point():
    # Phi(-z)^T eta Phi(z) = eta, evaluated (the phase bookkeeping of the
    # full solution strips the z^mu z^R factors)
    series = phi_top(30)
    zc = 0.3 * cmath.exp(1j * math.pi / 5)

    def phi_at(w):
        return [[sum(float(series[k][i][j]) * w ** k for k in range(31))
                 for j in range(4)] for i in range(4)]

    A, B = phi_at(-zc), phi_at(zc)
    for i in range(4):
        for j in range(4):
            v = sum(A[t][i] * B[3 - t][j] for t in range(4))
            assert abs(v - (1.0 if i + j == 3 else 0.0)) < 1e-13


def test_Ytop_monodromy_consistency():
    # Y_top(z e^(2 pi i)) = Y_top(z) e^(2 pi i mu) e^(2 pi i R)
    z = UCComplex.polar(0.1, math.pi / 7)
    A = eval_Ytop(shifted_by_turns(z, 1), order=35, engine=E)
    two_pi_i = 2j * math.pi
    B = (context_matrix(E, eval_Ytop(z, order=35, engine=E)) * exp_mu(two_pi_i, E)
         * context_matrix(E, exp_R(two_pi_i, E)))
    assert max_deviation(A, B.tolist()) < 1e-12
    # exp(2 pi i mu) is -I for half-odd-integer weights
    M = exp_mu(two_pi_i, E)
    for i in range(4):
        for j in range(4):
            assert abs(complex(M[i, j]) - (-1.0 if i == j else 0.0)) < 1e-15


def test_vector_from_scalar_satisfies_system():
    # finite differences in the modulus direction, with one Richardson step
    mod, arg = 1.2, math.pi / 5
    spec = ((1, PHI1, 0),)

    def column(m):
        z = UCComplex.polar(m, arg)
        derivs = scalar_column_derivatives(spec, z, 40, E)
        return tuple(map(E.number, vector_from_scalar(derivs, z, E)))

    z = UCComplex.polar(mod, arg)
    y = column(mod)
    phase = cmath.exp(1j * arg)

    def fd(h):
        yp, ym = column(mod + h), column(mod - h)
        return [(yp[i] - ym[i]) / (2 * h * phase) for i in range(4)]

    d1, d2 = fd(1e-4), fd(5e-5)
    dy = [(4 * d2[i] - d1[i]) / 3 for i in range(4)]

    mu, _, U = operator_matrices(q=Fraction(1))
    zc = complex(mod * phase)
    for i in range(4):
        rhs = sum((complex(U[i][t]) + complex(mu[i][t]) / zc) * y[t] for t in range(4))
        assert abs(dy[i] - rhs) < 1e-7 * max(1.0, abs(rhs))


def test_vector_from_scalar_linearity_and_y4():
    z = UCComplex.polar(0.4, 0.0)
    da = [E.number(x) for x in scalar_column_derivatives(((1, PHI1, 0),), z, 40, E)]
    db = [E.number(x) for x in scalar_column_derivatives(((1, PHI2, 0),), z, 40, E)]
    ya, yb, combo = (tuple(map(E.number, vector_from_scalar(d, z, E)))
                     for d in (da, db, [2 * da[k] + 3j * db[k] for k in range(4)]))
    for i in range(4):
        assert abs(combo[i] - (2 * ya[i] + 3j * yb[i])) < 1e-12 * max(1.0, abs(combo[i]))
    # y4 = z^(3/2) phi for the quantum-period-normalized scalar
    from monodromy_lab.solutions import eval_series, quantum_period

    qp = quantum_period(20)
    derivs = [E.number(eval_series(qp, z, m=k, engine=E)) for k in range(4)]
    y = tuple(map(E.number, vector_from_scalar(derivs, z, E)))
    assert abs(y[3] - 0.4 ** 1.5 * derivs[0]) < 1e-13


def test_assembled_matrices_solve_system():
    # columns of Y_R and Y_L are genuinely fundamental: nonzero determinant
    z = UCComplex.polar(2.0, math.pi / 4)
    YR, YL = ([list(map(E.number, row)) for row in Y]
              for Y in (assemble_YR(z, 40, E), assemble_YL(z, 40, E)))
    assert abs(_det4(YR)) > 1e-6
    assert abs(_det4(YL)) > 1e-6


def test_sector_enforcement():
    with pytest.raises(SectorError):
        assemble_YR(UCComplex.polar(2.0, math.pi / 2), 40, E)   # above Pi_right
    with pytest.raises(SectorError):
        assemble_YL(UCComplex.polar(2.0, -math.pi / 2), 40, E)  # below Pi_left
    with pytest.raises(SectorError):
        stokes_matrix(E, [UCComplex.polar(2.0, math.pi / 2)], ORDER, SNAP_TOL)


def test_left_column3_expressions_agree_on_overlap():
    # the two constructions of the third left column coincide on
    # pi/2 < arg z < 2 pi/3
    for arg in (0.55 * math.pi, 0.6 * math.pi):
        z = UCComplex.polar(1.5, arg)
        A = assemble_YL(z, 40, E)
        B = vector_from_scalar(scalar_column_derivatives(_YL_COL3_ALT, z, 40, E), z, E)
        dev = max(abs(E.number(A[i][2]) - E.number(B[i])) for i in range(4))
        scale = max(abs(E.number(A[i][2])) for i in range(4))
        assert dev <= 1e-9 * max(1.0, scale)


def test_stokes_matrix_published_values():
    sd = stokes_matrix(MP, STOKES_Z0S, ORDER, SNAP_TOL)
    assert sd.s_prime == reference.S_PRIME_REF
    assert sd.P == reference.P_REF
    assert sd.S == reference.S_REF
    assert all(sd.s_prime[i][i] == 1 for i in range(4))
    assert sd.residuals["stokes_constancy"] <= 1e-8
    assert sd.residuals["stokes_snap"] <= 1e-6


def test_stokes_snap_is_measured_at_working_precision():
    # stokes_snap is the engine's max_deviation of the raw middle solve from
    # S', not a distance of entries rounded to Python complex first, which
    # drops the error of every nonzero entry under mp
    sd = stokes_matrix(MP, STOKES_Z0S, ORDER, SNAP_TOL)
    z0 = STOKES_Z0S[1]
    raw = MP.solve(assemble_YR(z0, ORDER, MP), assemble_YL(z0, ORDER, MP))
    snap = sd.residuals["stokes_snap"]
    assert snap == max_deviation(raw, sd.s_prime)
    rounded = max(abs(complex(x) - n) for row, ints in zip(raw, sd.s_prime)
                  for x, n in zip(row, ints))
    assert snap > rounded
    assert 0 < snap <= 1e-30


#: the groups of inputs that the attribution test takes exactly, one group
#: at a time.  l, z^-1 to z^-3 and the column terms' factors, which hold
#: eps^m, are one group: they are images of the same rotated point z eps^m,
#: so taking one of them exactly leaves the others as far from it as the
#: rounded point was
ATTRIBUTION_GROUPS = (("coefficients",), ("block0",), ("l", "inverse_powers", "term_factors"),
                      ("lift",), ("w",), ("Y_entries",))


def test_no_one_class_of_inputs_carries_the_stokes_residual():
    # at the mp defaults, taking any one group of the evaluation's inputs
    # exactly, from 80 digits, lowers stokes_constancy by less than a factor
    # of 10: no one input's rounding sets it.  With l rounded at the working
    # precision and the term factors formed there, the l/z^-k/term-factor
    # group carried it: that rounding times the series' cancellation, some
    # 2^22 at |z0| = 2
    from monodromy_lab.pipeline import RunConfig, stokes_stage

    assert {c for group in ATTRIBUTION_GROUPS for c in group} == set(ATTRIBUTION_CLASSES)
    config = RunConfig()
    base = attribute_residual("stokes", config, ())
    assert base == stokes_stage(config)[1]
    for group in ATTRIBUTION_GROUPS:
        exact = attribute_residual("stokes", config, group)["stokes_constancy"]
        assert exact > base["stokes_constancy"] / 10, (group, base, exact)


def test_stokes_dominance_pattern_emerges():
    # entries forced to vanish by exponential dominance come out below the
    # snap tolerance without being imposed
    z0 = STOKES_Z0S[1]
    raw = MP.solve(assemble_YR(z0, ORDER, MP), assemble_YL(z0, ORDER, MP))
    for (i, j) in [(0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (2, 3)]:
        assert abs(complex(raw[i][j])) < 1e-6


def test_stokes_in_double_engine_snaps_to_same_matrix():
    sd = stokes_matrix(E, STOKES_Z0S, ORDER, SNAP_TOL)
    assert sd.s_prime == reference.S_PRIME_REF
    assert sd.residuals["stokes_snap"] <= 1e-6


def test_stokes_transpose_relation_on_negative_sector():
    # on the narrow sector Pi_- (general definition), Y_L continued through
    # arg z + 2 pi relates to Y_R by the transpose of S'
    St = [[float(reference.S_PRIME_REF[j][i]) for j in range(4)] for i in range(4)]
    for arg_pi in (-0.79, -0.72):
        z = UCComplex.polar(2.0, arg_pi * math.pi)
        YR = assemble_YR(z, 40, MP)
        YL = assemble_YL(shifted_by_turns(z, 1), 40, MP)
        got = MP.solve(YR, YL)
        dev = max(abs(complex(got[i][j]) - St[i][j]) for i in range(4) for j in range(4))
        assert dev <= 1e-8, arg_pi


def test_stokes_error_paths():
    with pytest.raises(SnapError):
        stokes_matrix(MP, STOKES_Z0S, ORDER, 1e-40)


@pytest.mark.parametrize("part", ["real", "imag"])
def test_a_non_finite_entry_never_snaps(monkeypatch, capsys, part):
    # a NaN in one part of a raw S' entry is a SnapError at a single base
    # point, where no spread sees it first; stokes and verify stop at a
    # named check, exit 1 with no report, never a configuration error
    from monodromy_lab.cli import main

    original = Engine.solve

    def poisoned(self, A, B):
        X = [list(row) for row in original(self, A, B)]
        v = complex(X[0][1])
        parts = (math.nan, v.imag) if part == "real" else (v.real, math.nan)
        X[0][1] = mpmath_context(self).mpc(*parts)
        return tuple(map(tuple, X))

    monkeypatch.setattr(Engine, "solve", poisoned)
    with pytest.raises(SnapError, match="not finite"):
        stokes_matrix(E, [UCComplex.polar(2, math.pi / 4)], ORDER, SNAP_TOL)
    for command in ("stokes", "verify"):
        assert main([command, "--engine", "double"]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("failed check:"), command


def test_stokes_coordinate_route_oracle():
    # independent extraction: expand every column scalar in Frobenius
    # coordinates (initial blocks + rotation shift matrix); S' is then an
    # exact 4x4 solve on coordinates, with no large-|z| evaluation at all
    e = MP
    A = rotation_operator_matrix(e)
    Ainv = e.inverse(A)
    v = {
        PHI1: [e.number(x) for x in phi_series(PHI1, 40, e).initial_block()],
        PHI2: [e.number(x) for x in phi_series(PHI2, 40, e).initial_block()],
    }
    from monodromy_lab.monodromy import _prefactor

    def coords(spec):
        out = [e.complex(0)] * 4
        for coef, kind, m in spec:
            vec = v[kind]
            M = A if m >= 0 else Ainv
            for _ in range(abs(m)):
                vec = [sum(M[i][j] * vec[j] for j in range(4)) for i in range(4)]
            c = coef * _prefactor(kind, e) * (-1) ** (m % 2)
            out = [out[i] + c * vec[i] for i in range(4)]
        return out

    MR = [[coords(s)[i] for s in _YR_SPECS] for i in range(4)]
    ML = [[coords(s)[i] for s in _YL_SPECS] for i in range(4)]
    got = e.solve(MR, ML)
    for i in range(4):
        for j in range(4):
            assert abs(complex(got[i][j]) - reference.S_PRIME_REF[i][j]) < 1e-10


def test_stokes_and_connection_data_are_exact_identities():
    # pi D times each column's Frobenius coordinates is a polynomial in
    # gamma, pi and zeta(3) over Q(i), so S' and C' relate the right, left
    # and topological solutions by identities that hold exactly
    # (Cotti-Dubrovin-Guzzetti, "Helix structures in quantum cohomology of
    # Fano varieties", 2018)
    n_r, n_l = spec_numerators(_YR_SPECS), spec_numerators(_YL_SPECS)
    assert matmul(n_r, reference.S_PRIME_REF) == n_l
    top = m_top()
    assert top == tuple(tuple(v if j == 3 - i else 0 for j in range(4))
                        for i, v in enumerate((1, 3, 9, 9)))
    sigma = dominance_order()
    assert sigma == (3, 0, 2, 1)
    # C = C' P^(-1), so C'[i][sigma[j]] = C[i][j]
    c_num = [[row[sigma.index(k)] for k in range(4)] for row in reference.C_REF_NUMERATORS]
    pi_top = [[PI * x for x in row] for row in top]
    assert matmul(pi_top, c_num) == n_r
    alt = spec_numerators((_YL_COL3_ALT,))
    assert [row[0] for row in alt] == [row[2] for row in n_l]

    # each mutation breaks its identity
    typo = tuple((-coef if kind is PHI2 else coef, kind, m) for coef, kind, m in _YL_COL3_ALT)
    assert [row[0] for row in spec_numerators((typo,))] != [row[2] for row in n_l]
    bumped = [list(row) for row in reference.S_PRIME_REF]
    bumped[2][1] += 1
    assert matmul(n_r, bumped) != n_l
    wrong = {PHI1: -1, PHI2: -1}
    wrong_r = spec_numerators(_YR_SPECS, wrong)
    assert matmul(wrong_r, reference.S_PRIME_REF) != spec_numerators(_YL_SPECS, wrong)
    assert matmul(pi_top, c_num) != wrong_r

    # the factors are the production prefactors: pi D pref(kind) pi^(-/+1/2)
    d = 2 * MP.sqrt(MP.real(2)) * MP.pi * MP.sqrt(MP.pi)
    for kind, factor in SPEC_FACTORS.items():
        half = MP.sqrt(MP.pi) ** (-1 if kind is PHI1 else 1)
        assert abs(MP.pi * d * monodromy._prefactor(kind, MP) * half - factor) < 1e-37


def test_connection_matrix_closed_forms():
    cd = connection_matrix(MP, CONNECTION_Z0S, ORDER)
    # the last column of C' is the first column of C = C' P^(-1)
    C_ref = reference.numeric(oracles.C_REF, dps=30)
    for i in range(4):
        assert abs(complex(cd.c_prime[i][3]) - C_ref[i][0]) < 1e-10
    for i in range(4):
        for j in range(4):
            assert abs(complex(cd.C[i][j]) - C_ref[i][j]) <= 1e-8
    assert cd.residuals["connection_stability"] <= 1e-9
    assert cd.residuals["connection_heldout"] <= 1e-9


def test_connection_heldout_point_follows_base_point(monkeypatch):
    # a base point whose middle fit point sits where a fixed check point
    # would be: the held-out point must still be none of the fit points
    from monodromy_lab import monodromy

    seen = []

    def recorded(z, *args, **kwargs):
        seen.append(z)
        return assemble_YR(z, *args, **kwargs)

    monkeypatch.setattr(monodromy, "assemble_YR", recorded)
    fit = connection_points(UCComplex.polar(0.08, math.pi / 4 + 0.1))
    cd = connection_matrix(E, fit, ORDER)
    assert seen[:3] == fit
    assert len(seen) == 4 and seen[3] not in fit
    assert cd.residuals["connection_heldout"] <= 1e-9


def test_verify_constraints_reference_and_sensitivity():
    from monodromy_lab.monodromy import verify_constraints

    sd = stokes_matrix(MP, STOKES_Z0S, ORDER, SNAP_TOL)
    cd = connection_matrix(MP, CONNECTION_Z0S, ORDER)
    res = verify_constraints(sd.S, cd.C, MP)
    assert float(res["constraint_cyclic"]) <= 1e-8
    assert float(res["constraint_pairing"]) <= 1e-8
    # perturbing one Stokes entry by 1e-3 must push the pairing constraint
    # well above tolerance
    S_bad = [list(row) for row in sd.S]
    S_bad[0][1] += 1e-3
    res_bad = verify_constraints(S_bad, cd.C, MP)
    assert float(res_bad["constraint_pairing"]) > 1e-4


def test_verify_constraints_inverts_only_C(monkeypatch):
    # S of exact entries is inverted exactly and (C^T)^-1 is the transpose
    # of C^-1
    from monodromy_lab.closedform import evaluate_over_d
    from monodromy_lab.monodromy import verify_constraints

    calls = []
    original = Engine.inverse
    monkeypatch.setattr(Engine, "inverse", lambda self, A: calls.append(A) or original(self, A))
    C = evaluate_over_d(reference.C_REF_NUMERATORS, MP)
    residuals = verify_constraints(reference.S_REF, C, MP)
    assert len(calls) == 1 and calls[0] is C
    for name, value in residuals.items():
        assert value <= 1e-36, name


def dense_constraint_residuals(S, C, engine):
    """The two constraint residuals by dense engine products, with
    e^(t mu) from the engine's exponentials and eta as a matrix: eight
    products and eight exponentials, the oracle of ``verify_constraints``.
    Under double they are formed at 60 digits from the same S and C, so
    that no double rounding enters the oracle."""
    from monodromy_lab.ring import unipotent_inverse

    if engine.name == "double":
        engine = get_engine("mp", dps=60)

    exact = [[Fraction(x) for x in row] for row in S]
    Sm, S_inv = context_matrix(engine, exact), context_matrix(engine, unipotent_inverse(exact))
    eta = context_matrix(engine, [[Fraction(int(i + j == 3)) for j in range(4)]
                                  for i in range(4)])
    C_inv = context_matrix(engine, engine.inverse(C))
    C = context_matrix(engine, C)
    two_pi_i, minus_pi_i = 2 * engine.i * engine.pi, -engine.i * engine.pi
    lhs1 = C * Sm.T * S_inv * C_inv
    rhs1 = exp_mu(two_pi_i, engine) * context_matrix(engine, exp_R(two_pi_i, engine))
    rhs2 = (C_inv * context_matrix(engine, exp_R(minus_pi_i, engine))
            * exp_mu(minus_pi_i, engine) * eta * C_inv.T)
    return {"constraint_cyclic": max_deviation(lhs1.tolist(), rhs1.tolist()),
            "constraint_pairing": max_deviation(Sm.tolist(), rhs2.tolist())}


@pytest.mark.parametrize("engine", [E, MP], ids=["double", "mp"])
def test_verify_constraints_agrees_with_the_dense_products(engine):
    # the extracted (S, C), the closed-form pair and a perturbed S: each
    # residual within rounding of the dense oracle's
    from monodromy_lab.closedform import evaluate_over_d
    from monodromy_lab.monodromy import verify_constraints

    sd = stokes_matrix(engine, STOKES_Z0S, ORDER, SNAP_TOL)
    cd = connection_matrix(engine, CONNECTION_Z0S, ORDER)
    C_ref = evaluate_over_d(reference.C_REF_NUMERATORS, engine)
    S_bad = [list(row) for row in sd.S]
    S_bad[0][1] += Fraction(1, 1000)
    for S, C in ((sd.S, cd.C), (reference.S_REF, C_ref), (S_bad, cd.C)):
        got, want = verify_constraints(S, C, engine), dense_constraint_residuals(S, C, engine)
        for name in want:
            assert abs(got[name] - want[name]) <= 1e4 * engine.eps * max(1, want[name]), name


@pytest.mark.parametrize("engine", [E, MP], ids=["double", "mp"])
def test_exact_mu_units_equal_the_exponentials(engine):
    for turns in (2, -1):
        t = turns * engine.i * engine.pi
        for unit, mu in zip(exp_mu_units(turns), MU_DIAG):
            assert abs(engine.exp(engine.real(mu) * t) - unit) <= 10 * engine.eps, (turns, mu)
    assert exp_mu_units(2) == (-1, -1, -1, -1)
    assert exp_mu_units(-1) == (-1j, 1j, -1j, 1j)


def test_verify_constraints_takes_no_exponential_and_four_products(monkeypatch):
    from monodromy_lab.monodromy import verify_constraints

    sd = stokes_matrix(MP, STOKES_Z0S, ORDER, SNAP_TOL)
    cd = connection_matrix(MP, CONNECTION_Z0S, ORDER)
    verify_constraints(sd.S, cd.C, MP)
    # C^(-1), formed before the count starts, is the one inverse
    C_inv = MP.inverse(cd.C)
    monkeypatch.setattr(Engine, "inverse", lambda self, A: C_inv)
    exps, products = [], []
    monkeypatch.setattr(Engine, "exp", lambda self, x: exps.append(x))
    original = Engine.matmul
    monkeypatch.setattr(Engine, "matmul",
                        lambda self, A, B: products.append(B) or original(self, A, B))
    verify_constraints(sd.S, cd.C, MP)
    assert exps == [] and len(products) == 4


def test_unipotent_inverse_is_exact_and_refuses_other_matrices():
    from monodromy_lab.ring import unipotent_inverse

    S = [[1, -4, Fraction(1, 3), 0], [0, 1, 6, -4], [0, 0, 1, 4], [0, 0, 0, 1]]
    inverse = unipotent_inverse(S)
    product = [[sum(S[i][t] * inverse[t][j] for t in range(4)) for j in range(4)]
               for i in range(4)]
    assert product == [[int(i == j) for j in range(4)] for i in range(4)]
    for bad in ([[2, 0], [0, 1]], [[1, 0], [1, 1]]):
        with pytest.raises(ValueError):
            unipotent_inverse(bad)


def test_asymptotic_normalization_of_columns():
    # y_4k(z) e^(-u_k z) -> c_k = (-i/sqrt2, 1/sqrt6, 1/sqrt6, 1/sqrt6)
    eng = get_engine("mp", dps=50)
    from monodromy_lab.frame import canonical_coordinates

    u = canonical_coordinates(eng)
    c = [
        eng.complex(0, -1) / eng.sqrt(eng.real(2)),
        1 / eng.sqrt(eng.real(6)),
        1 / eng.sqrt(eng.real(6)),
        1 / eng.sqrt(eng.real(6)),
    ]
    devs = []
    for mod in (6.0, 12.0):
        z = UCComplex.polar(mod, math.pi / 12)
        Y = assemble_YR(z, 76, eng, tol=1e-21)
        zc = eng.exp(z.log(eng))
        row = []
        for k in range(4):
            ratio = eng.number(Y[3][k]) * eng.exp(-u[k] * zc) / c[k]
            row.append(abs(complex(ratio) - 1))
        devs.append(row)
    for k in range(4):
        assert devs[0][k] < 0.2
        # deviation shrinks roughly like 1/|z|
        assert devs[1][k] < 0.75 * devs[0][k]


def test_YR_leading_entry_matches_frame_pattern():
    # entry (1,1) of Y_R approaches (i/sqrt2) e^(u1 z)
    eng = get_engine("mp", dps=50)
    z = UCComplex.polar(9.0, math.pi / 12)
    Y = assemble_YR(z, 76, eng, tol=1e-21)
    target = complex(0, 1 / math.sqrt(2))
    assert abs(complex(eng.number(Y[0][0])) - target) < 0.12 * abs(target)


def test_dominance_permutation_orders_by_growth():
    P = dominance_permutation()
    assert P == reference.P_REF
