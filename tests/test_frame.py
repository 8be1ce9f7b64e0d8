"""Canonical coordinates, normalized eigenframe, and sector geometry."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from monodromy_lab.engine import get_engine
from monodromy_lab.frame import (
    AdmissibilityError,
    canonical_coordinates,
    frame,
    in_interval,
    sector_config,
    stokes_ray_angles,
)
from monodromy_lab.ring import CohClass, operator_matrices, pairing, quantum_product

E = get_engine("double")


def test_canonical_coordinate_values():
    u = [complex(x) for x in canonical_coordinates(E)]
    r = 3 * 2 ** (2 / 3)
    eps = cmath.exp(2j * math.pi / 3)
    assert abs(u[0]) == 0
    assert abs(u[1] - r) < 1e-14
    assert abs(u[2] - r * eps ** 2) < 1e-13
    assert abs(u[3] - r * eps) < 1e-13
    # trace of the Euler multiplication vanishes
    assert abs(sum(u)) < 1e-13


def test_characteristic_polynomial_oracle():
    # prod (lam - u_i) must equal lam^4 - 108 lam, computed exactly from the
    # multiplication matrix by rational cofactor expansion
    _, _, U = operator_matrices(q=Fraction(1))

    def det4(M):
        def det3(rows, cols):
            (a, b, c), (d, e, f), (g, h, i) = [
                [M[r][c_] for c_ in cols] for r in rows
            ]
            return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

        total = 0
        for j in range(4):
            minor = det3([1, 2, 3], [c for c in range(4) if c != j])
            total += (-1) ** j * M[0][j] * minor
        return total

    import sympy as sp

    lam = sp.symbols("lam")
    M = [[lam * (1 if i == j else 0) - U[i][j] for j in range(4)] for i in range(4)]
    poly = sp.expand(det4(M))
    assert poly == lam ** 4 - 108 * lam
    # and the closed-form eigenvalues satisfy it
    for uk in canonical_coordinates(E):
        v = complex(uk) ** 4 - 108 * complex(uk)
        assert abs(v) < 1e-9


def test_frame_matches_printed_matrix():
    f = frame(E)
    s2, s3, s6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
    c216 = 2 ** (1 / 6)
    e3 = cmath.exp(2j * math.pi / 3)
    expected_Psi = [
        [-1j / s2, 0, 0, 1j / s2],
        [1 / s6, c216 / s3, 1 / (c216 * s3), 1 / s6],
        [1 / s6, (c216 / s3) * e3.conjugate(), (1 / (c216 * s3)) * e3, 1 / s6],
        [1 / s6, (c216 / s3) * e3, (1 / (c216 * s3)) * e3.conjugate(), 1 / s6],
    ]
    for i in range(4):
        for j in range(4):
            assert abs(complex(f.Psi[i][j]) - expected_Psi[i][j]) < 1e-12, (i, j)


def test_frame_diagonalizes_and_V_printed():
    f = frame(E)
    for i in range(4):
        for j in range(4):
            target = complex(f.u[i]) if i == j else 0.0
            assert abs(complex(f.U[i][j]) - target) < 1e-12
    # V is antisymmetric with the printed first row (sqrt3/2) i pattern
    s3 = math.sqrt(3)
    expected_V0 = [0, 0.5j * s3, 0.5j * s3, 0.5j * s3]
    for j in range(4):
        assert abs(complex(f.V[0][j]) - expected_V0[j]) < 1e-12
    assert abs(complex(f.V[1][2]) - (-1j * s3 / 6)) < 1e-12
    for i in range(4):
        for j in range(4):
            assert abs(complex(f.V[i][j]) + complex(f.V[j][i])) < 1e-12


def test_frame_eta_orthogonality():
    # Psi^T Psi = eta
    f = frame(E)
    M = mpmath.fp.matrix(f.Psi).T * mpmath.fp.matrix(f.Psi)
    for i in range(4):
        for j in range(4):
            target = 1.0 if i + j == 3 else 0.0
            assert abs(complex(M[i, j]) - target) < 1e-12


def test_frame_vectors_are_orthogonal_quasi_idempotents():
    # f_i f_j = 0 for i != j; f_i f_i is parallel to f_i; <f_i, f_j> = delta
    f = frame(E)
    vecs = []
    for j in range(4):
        vecs.append(CohClass(tuple(complex(f.Psi_inv[i][j]) for i in range(4))))
    for a in range(4):
        for b in range(4):
            prod = quantum_product(vecs[a], vecs[b], q=1)
            if a != b:
                assert max(abs(x) for x in prod.coeffs) < 1e-12
            else:
                ratios = [
                    prod.coeffs[k] / vecs[a].coeffs[k]
                    for k in range(4)
                    if abs(vecs[a].coeffs[k]) > 1e-9
                ]
                assert max(abs(r - ratios[0]) for r in ratios) < 1e-11
            pair = pairing(vecs[a], vecs[b])
            assert abs(pair - (1.0 if a == b else 0.0)) < 1e-12


def test_stokes_rays_printed_angles():
    rays = stokes_ray_angles()
    deg = math.pi / 6
    expected = {
        (1, 2): 3 * deg, (1, 3): 7 * deg, (1, 4): 11 * deg,
        (2, 3): 8 * deg, (2, 4): 10 * deg, (3, 4): 0.0,
    }
    for key, ang in expected.items():
        assert abs(rays[key] - ang) < 1e-12, key
    # opposite rays differ by pi
    for (i, j), ang in rays.items():
        d = (rays[(j, i)] - ang - math.pi) % (2 * math.pi)
        assert min(d, 2 * math.pi - d) < 1e-11


def test_sector_config_default_line():
    cfg = sector_config(math.pi / 4)
    assert abs(cfg.pi_left[0] - math.pi / 6) < 1e-12
    assert abs(cfg.pi_left[1] - 4 * math.pi / 3) < 1e-12
    assert abs(cfg.pi_right[0] + 5 * math.pi / 6) < 1e-12
    assert abs(cfg.pi_right[1] - math.pi / 3) < 1e-12
    assert abs(cfg.pi_plus[0] - math.pi / 6) < 1e-12
    assert abs(cfg.pi_plus[1] - math.pi / 3) < 1e-12
    # general-definition narrow negative sector
    assert abs(cfg.pi_minus[0] + 5 * math.pi / 6) < 1e-12
    assert abs(cfg.pi_minus[1] + 2 * math.pi / 3) < 1e-12
    # the commonly displayed variant is recorded alongside
    assert cfg.pi_minus_printed == (-math.pi / 6, math.pi / 3)
    assert in_interval(math.pi / 4, cfg.pi_plus)
    assert not in_interval(math.pi / 6, cfg.pi_plus)


def test_inadmissible_lines_rejected():
    with pytest.raises(AdmissibilityError):
        sector_config(math.pi / 2)   # contains the ray of the (1,2) pair
    with pytest.raises(AdmissibilityError):
        sector_config(0.0)
    with pytest.raises(AdmissibilityError):
        sector_config(7 * math.pi / 6)


def test_admissible_line_avoids_real_parts():
    # Re z(u_i - u_j) != 0 on ell minus 0 for all i != j
    u = [complex(x) for x in canonical_coordinates(E)]
    w = cmath.exp(1j * math.pi / 4)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs((w * (u[i] - u[j])).real) > 0.5
