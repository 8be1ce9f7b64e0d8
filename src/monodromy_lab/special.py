"""Contour and quadrature oracles of the two Mellin-Barnes integrands.

The integrands are the kernels of the two contour-integral solutions of the
quantum differential equation of LG(2,4),

    PHI1:  g(s) = Gamma(s)^4 / Gamma(s + 1/2) * 2^(-2s) * e^(i pi s)
    PHI2:  g(s) = Gamma(s)^4 * Gamma(1/2 - s) * 2^(-2s)

(the z-dependence z^(-3s) is handled by the caller).  Both have poles of
order 4 at s = 0, -1, -2, ...; PHI2 additionally has simple poles at
s = 1/2, 3/2, ... lying right of every admissible contour.  The residue
series (``solutions.phi_series``) take block 0 from the Gamma class and
later blocks from the ODE's recursion, so ``verify`` never imports this
module of oracles: ``integrand_value`` for the contour quadrature
``solutions.contour_eval``, and trapezoid quadrature on a small circle
around any pole (``laurent_coefficients``), spectrally accurate for the
analytic integrand g(s) * (s+n)^k, for the Laurent data of every block.
"""

from __future__ import annotations

from monodromy_lab.solutions import MellinIntegrand


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


def laurent_coefficients(kind, n, engine, radius=0.25, nodes=256):
    """The four singular Laurent coefficients of the integrand at s = -n.

    Entry j of the tuple, the coefficient of (s+n)^(j-4), is
    ``(1/2 pi i) * contour integral of g(s) (s+n)^(3-j) ds`` over the circle
    |s+n| = radius, computed by the trapezoid rule with the given node
    count.  The radius must stay below 1/2 so the circle separates the
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
    return tuple(coeffs)
