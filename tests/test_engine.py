"""Engine conversions (exact data is rounded once, to nearest), solves, and
the rule that every computation takes its engine from its caller."""

import inspect
from fractions import Fraction

import pytest
from mpmath.libmp import from_int, mpf_div, round_nearest

from monodromy_lab import braid, monodromy, solutions, special
from monodromy_lab.engine import NaNResidualError, get_engine
from monodromy_lab.frame import canonical_coordinates, frame, sector_config, stokes_ray_angles
from monodromy_lab.solutions import quantum_period


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
def test_solve_factors_once_and_matches_lu_solve(monkeypatch, name):
    e = get_engine(name, dps=40)
    ctx = e.ctx
    # a complex system whose pivoting swaps rows
    A = ctx.matrix([[ctx.mpc(k % 3 - 1, (j * k) % 5) / (j + k + 1) for k in range(4)]
                    for j in range(4)])
    B = ctx.matrix([[ctx.mpc(j - k, 1) / 7 for k in range(4)] for j in range(4)])
    expected = [ctx.lu_solve(A, B[:, k]) for k in range(4)]

    calls = []
    original = ctx.LU_decomp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ctx, "LU_decomp", counted)
    X = e.solve(A, B)
    assert len(calls) == 1
    assert all(X[j, k] == expected[k][j] for j in range(4) for k in range(4))


def test_a_nan_in_a_residual_maximum_is_a_named_error():
    # Python's max keeps whichever of a NaN and a number it meets first
    nan = float("nan")
    for rows in ([[1, nan]], [[nan, 1]]):
        for engine in (get_engine("double"), get_engine("mp", dps=40)):
            with pytest.raises(NaNResidualError):
                engine.max_abs(engine.matrix(rows))
        with pytest.raises(NaNResidualError):
            braid.max_deviation(rows, [[0, 0]])
    assert braid.max_deviation([[1, -2]], [[0, 0]]) == 2.0


def test_every_computation_takes_its_engine_explicitly():
    computations = [
        canonical_coordinates, frame,
        monodromy.eval_Ytop, monodromy.vector_from_scalar, monodromy.assemble_YR,
        monodromy.assemble_YL, monodromy.stokes_matrix, monodromy.connection_matrix,
        monodromy.verify_constraints,
        solutions.phi_series, solutions.eval_series, solutions.contour_eval,
        solutions.identity_residuals, solutions.rotation_operator_matrix,
        special.laurent_coefficients,
    ]
    for fn in computations:
        assert inspect.signature(fn).parameters["engine"].default is inspect.Parameter.empty, fn
    # the sector geometry and the dominance order do not depend on an engine
    for fn in (stokes_ray_angles, sector_config, monodromy.dominance_permutation):
        assert "engine" not in inspect.signature(fn).parameters, fn
    with pytest.raises(ValueError, match="dps"):
        get_engine("mp")
