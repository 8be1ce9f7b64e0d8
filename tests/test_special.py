"""The engines' Gamma function and constants, and Laurent blocks of the
integrands."""

import cmath
import math

import mpmath
import pytest
import sympy as sp

from monodromy_lab.engine import get_engine
from monodromy_lab.special import (
    MellinIntegrand,
    integrand_value,
    laurent_coefficients,
)

PHI1, PHI2 = MellinIntegrand.PHI1, MellinIntegrand.PHI2
D = get_engine("double")
gamma = D.gamma


def stirling_gamma(z, terms=20, shift_to=25.0):
    """Independent oracle: Stirling series with Bernoulli coefficients at a
    shifted argument, divided back down by the recurrence."""
    z = complex(z)
    m = 0
    while (z + m).real < shift_to:
        m += 1
    w = z + m
    s = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2 * math.pi)
    for k in range(1, terms + 1):
        b2k = sp.bernoulli(2 * k)
        s += float(b2k) / (2 * k * (2 * k - 1)) / w ** (2 * k - 1)
    val = cmath.exp(s)
    for j in range(m):
        val /= z + j
    return val


def test_gamma_half():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14


def test_recurrence_identity():
    s = 2.3 + 1.7j
    assert abs(gamma(s + 1) / (s * gamma(s)) - 1) < 1e-13


def test_pole_raises():
    for z in (0, -1, -5):
        with pytest.raises(ZeroDivisionError):
            gamma(z)


def test_reflection_grid():
    # Gamma(s) Gamma(1-s) sin(pi s)/pi = 1 away from integers
    for re in (-2.3, -0.7, 0.2, 1.6, 3.4):
        for im in (-2.0, -0.3, 0.4, 2.5):
            s = complex(re, im)
            v = gamma(s) * gamma(1 - s) * cmath.sin(math.pi * s) / math.pi
            assert abs(v - 1) < 1e-12


def test_against_stirling_oracle():
    pts = [0.5 + 14.1j, 2.0 + 0.5j, -3.3 + 2.2j, 7.7 - 4.4j, 0.1 + 0.1j]
    for s in pts:
        ours = gamma(s)
        oracle = stirling_gamma(s)
        assert abs(ours - oracle) / abs(oracle) < 1e-12


def test_against_mpmath_grid():
    # right half-plane: heights up to 20; left half-plane up to 6 (beyond
    # that the sin(pi s) phase of the reflection alone costs more than 1e-13
    # in doubles, and nothing in the pipeline evaluates there)
    for re in (0.5, 1.0, 3.7, 12.0):
        for im in (-8.0, -1.0, 0.0, 0.6, 5.0, 20.0):
            s = complex(re, im)
            ref = complex(mpmath.gamma(mpmath.mpc(s)))
            bound = 1e-13 if abs(im) <= 10 else 5e-13
            assert abs(gamma(s) - ref) / abs(ref) < bound
    for re in (-4.6, -1.2, 0.2):
        for im in (-6.0, -1.0, 0.6, 4.0):
            s = complex(re, im)
            ref = complex(mpmath.gamma(mpmath.mpc(s)))
            assert abs(gamma(s) - ref) / abs(ref) < 1e-13


def test_constants_double():
    e = get_engine("double")
    g, z2, z3 = e.euler, e.pi ** 2 / 6, e.zeta3
    assert abs(z2 - math.pi ** 2 / 6) < 1e-15
    assert abs(g - 0.5772156649015329) < 1e-15
    assert abs(z3 - 1.2020569031595943) < 1e-15


def test_constants_mp():
    # the engine's constants carry its 40 digits, not a double's 16
    e = get_engine("mp", dps=40)
    with mpmath.workdps(60):
        assert abs(e.pi - mpmath.pi) < 1e-39
        assert float(abs(e.pi ** 2 / 6 - mpmath.zeta(2))) < 1e-38
        assert float(abs(e.euler - mpmath.euler)) < 1e-38
        assert float(abs(e.zeta3 - mpmath.zeta(3))) < 1e-38


def test_laurent_phi2_leading_is_sqrt_pi():
    # Gamma(s)^4 ~ s^-4 and Gamma(1/2) 2^0 = sqrt(pi)
    L = laurent_coefficients(PHI2, 0, D)
    assert abs(L[0] - math.sqrt(math.pi)) < 1e-13


def test_laurent_radius_consistency():
    a = laurent_coefficients(PHI1, 0, D, radius=0.2)
    b = laurent_coefficients(PHI1, 0, D, radius=0.3)
    for x, y in zip(a, b):
        assert abs(x - y) < 1e-12


def test_laurent_validation():
    with pytest.raises(ValueError):
        laurent_coefficients(PHI1, 0, D, radius=0.6)
    with pytest.raises(ValueError):
        laurent_coefficients(PHI1, 0, D, nodes=100)
    with pytest.raises(ValueError):
        laurent_coefficients(PHI1, -2, D)


def test_laurent_phi2_n1_vs_symbolic_oracle():
    # truncated symbolic Laurent expansion at s = -1 (t = s+1), built from
    # Gamma(s) = Gamma(1+t)/((t-1) t) and the log-gamma series with exact
    # polygamma values; coefficients live in Q[EulerGamma, pi, zeta(3), ...]
    t = sp.symbols("t")
    lng1 = -sp.EulerGamma * t + sum(
        (-1) ** k * sp.zeta(k) * t ** k / k for k in range(2, 7)
    )
    lng2 = sum(
        sp.polygamma(k - 1, sp.Rational(3, 2)) * (-t) ** k / sp.factorial(k)
        for k in range(1, 7)
    )
    expo = sp.expand(4 * lng1 + lng2 - 2 * t * sp.log(2))

    def trunc(p):
        return sp.expand(p + sp.O(t ** 6)).removeO()

    analytic = sp.Integer(1)
    power = sp.Integer(1)
    for k in range(1, 6):
        power = trunc(power * expo)
        analytic = analytic + power / sp.factorial(k)
    analytic = trunc(analytic)
    # 1/(t-1)^4 = sum C(k+3,3) t^k ; overall 4 * Gamma(3/2) = 2 sqrt(pi)
    geom = sum(sp.binomial(k + 3, 3) * t ** k for k in range(6))
    ser = sp.expand(2 * sp.sqrt(sp.pi) * analytic * geom)
    L = laurent_coefficients(PHI2, 1, D)
    for j in range(4):
        coeff = complex(sp.N(ser.coeff(t, j), 25))
        assert abs(complex(L[j]) - coeff) < 1e-12 * max(1.0, abs(coeff))


def test_residue_rectangle_invariant():
    # contour integral of g(s) z^(-3s) over a rectangle enclosing s = 0, -1
    # equals the sum of the two Laurent-reconstructed residues
    e = get_engine("double")
    z_mod, z_arg = 0.9, math.pi / 7
    lz = complex(math.log(z_mod), z_arg)

    def f(s):
        return integrand_value(PHI1, s, e) * cmath.exp(-3 * s * lz)

    # left edge at -1.4 keeps Gamma(s+1/2) off its pole line
    a, b = -1.4, 0.5
    h = 1.0
    corners = [complex(b, -h), complex(b, h), complex(a, h), complex(a, -h)]
    total = 0j
    for k in range(4):
        p, q = corners[k], corners[(k + 1) % 4]
        total += e.quad(lambda t, p=p, q=q: f(p + (q - p) * t) * (q - p), [0, 1])
    total /= 2j * math.pi

    res_sum = 0j
    for n in (0, 1):
        L = laurent_coefficients(PHI1, n, D)
        zp = cmath.exp(3 * n * lz)
        blk = 0j
        fact = 1
        for k in range(4):
            if k:
                fact *= k
            blk += complex(L[3 - k]) * (-3 * lz) ** k / fact
        res_sum += zp * blk
    assert abs(total - res_sum) < 1e-10
