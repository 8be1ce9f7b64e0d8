"""Laurent data of the two Mellin-Barnes integrands.

The integrands are the kernels of the two contour-integral solutions of the
quantum differential equation of LG(2,4),

    PHI1:  g(s) = Gamma(s)^4 / Gamma(s + 1/2) * 2^(-2s) * e^(i pi s)
    PHI2:  g(s) = Gamma(s)^4 * Gamma(1/2 - s) * 2^(-2s)

(the z-dependence z^(-3s) is handled by the caller).  Both have poles of
order 4 at s = 0, -1, -2, ...; PHI2 additionally has simple poles at
s = 1/2, 3/2, ... lying right of every admissible contour.  The residue
expansions that turn the integrals into globally convergent log-series need
the four singular Laurent coefficients at the pole s = -n.  The residue
series (``solutions.phi_series``) takes only the pole at s = 0 from here, in
closed form (``laurent_at_zero``), and builds every later block by the exact
recursion of the scalar ODE.  Trapezoid quadrature on a small circle around
any pole (``laurent_coefficients``), spectrally accurate for the analytic
integrand g(s) * (s+n)^k, is kept as an independent oracle for all blocks.
Every transcendental value here (Gamma, pi, the Euler constant, zeta(3))
comes from the engine, so both engines share one implementation of each.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class MellinIntegrand(enum.Enum):
    PHI1 = "phi1"
    PHI2 = "phi2"


def integrand_value(kind, s, engine):
    """Evaluate the chosen integrand g(s) (without the z^(-3s) factor)."""
    g = engine.gamma
    two = engine.real(2)
    half = engine.real("0.5")
    if kind is MellinIntegrand.PHI1:
        return (
            g(s) ** 4
            / g(s + half)
            * engine.exp(-2 * s * engine.log(two))
            * engine.exp(engine.i * engine.pi * s)
        )
    if kind is MellinIntegrand.PHI2:
        return g(s) ** 4 * g(half - s) * engine.exp(-2 * s * engine.log(two))
    raise ValueError(f"unknown integrand {kind!r}")


class LaurentBlock(NamedTuple):
    """Laurent data of an integrand at the order-4 pole s = -n.

    ``coeffs[j]`` is the coefficient of (s+n)^(j-4), i.e. the vector runs
    from the (s+n)^(-4) coefficient down to the residue.  A NamedTuple,
    not a dataclass: see ``monodromy_lab.record``.
    """

    n: int
    coeffs: tuple


def laurent_at_zero(kind, engine):
    """Singular Laurent coefficients of the integrand at s = 0, in closed form.

    By Legendre duplication s^4 g(s) is pi^(-1/2) e^(i pi s) Ghat(s) for PHI1
    and pi^(1/2) sec(pi s) Ghat(s) for PHI2, with the quadric's Gamma class
    Ghat(s) = Gamma(1+s)^5/Gamma(1+2s) = exp(-3 euler_gamma s + zeta(2) s^2/2
    + zeta(3) s^3 + O(s^4)) and log sec(pi s) = pi^2 s^2/2 + O(s^4).  So
    ``coeffs`` are the Taylor coefficients h_0..h_3 of exp(P(s)), P cubic.
    """
    pi, euler, zeta3 = engine.pi, engine.euler, engine.zeta(3)
    zeta2 = pi ** 2 / 6
    if kind is MellinIntegrand.PHI1:
        p = (-engine.log(pi) / 2, engine.i * pi - 3 * euler, zeta2 / 2, zeta3)
    else:
        p = (engine.log(pi) / 2, -3 * euler, zeta2 / 2 + pi ** 2 / 2, zeta3)
    # h = exp(P) solves h' = P' h:  k h_k = sum_{j=1..k} j p_j h_(k-j)
    h = [engine.exp(p[0])]
    for k in range(1, 4):
        h.append(sum(j * p[j] * h[k - j] for j in range(1, k + 1)) / k)
    return LaurentBlock(n=0, coeffs=tuple(h))


def laurent_coefficients(kind, n, engine, radius=0.25, nodes=256):
    """Singular Laurent coefficients of the integrand at s = -n.

    ``coeffs[j] = (1/2 pi i) * contour integral of g(s) (s+n)^(3-j) ds`` over
    the circle |s+n| = radius, computed by the trapezoid rule with the given
    node count.  The radius must stay below 1/2 so the circle separates the
    pole at -n from its neighbours (and from the right-hand pole family of
    PHI2).
    """
    if not 0 < radius < 0.5:
        raise ValueError(f"radius {radius} outside (0, 1/2)")
    if nodes < 128 or nodes & (nodes - 1):
        raise ValueError(f"nodes must be a power of 2 >= 128, got {nodes}")
    if n < 0:
        raise ValueError("pole index must be a nonnegative integer")

    r = engine.real(radius)
    two_pi = 2 * engine.pi
    values = []
    for k in range(nodes):
        w = r * engine.exp(engine.i * (two_pi * k / nodes))
        values.append((w, integrand_value(kind, -n + w, engine)))
    coeffs = []
    for j in range(4):
        p = 3 - j  # integrand weight (s+n)^p picks the (s+n)^(-(p+1)) coefficient
        acc = engine.complex(0)
        for w, gv in values:
            acc += gv * w ** (p + 1)
        coeffs.append(acc / nodes)
    return LaurentBlock(n=n, coeffs=tuple(coeffs))
