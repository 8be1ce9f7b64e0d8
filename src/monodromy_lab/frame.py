"""Semisimple frame of the quantum cohomology of LG(2,4) at q=1.

The Euler-field multiplication U has four distinct eigenvalues (canonical
coordinates)

    u1 = 0,   u2 = 3*2^(2/3),   u3 = u2 eps^2,   u4 = u2 eps,

with eps = e^(2 pi i/3).  The normalized eigenframe f_i (eta-orthonormal,
<f_i, f_j> = delta_ij) is pinned by a sign convention: the first coordinate
of each f_i is made either positive real or positive imaginary.  Psi is the
transition matrix from the f-frame to the Schubert frame (f-coordinates of
Schubert vectors in its columns), so U = Psi U_cal Psi^(-1) is diagonal and
V = Psi mu Psi^(-1) is antisymmetric.

The module also fixes the sector geometry for an admissible line: the 12
Stokes rays R_ij = {-i conj(u_i - u_j) rho : rho >= 0} sit at multiples of
pi/6, and the extended left/right/narrow sectors are cut at the nearest
rays.  The two narrow sectors are Pi_+ near the line's positive direction
and Pi_- near its negative direction (for the default line arg z = pi/4:
Pi_+ = (pi/6, pi/3) and Pi_- = (-5 pi/6, -2 pi/3)).
"""

from __future__ import annotations

import functools
import math
import types
from fractions import Fraction
from typing import NamedTuple

from monodromy_lab.engine import get_engine
from monodromy_lab.ring import operator_matrices


#: the angle of the admissible line every sector and base point refers to
ADMISSIBLE_ANGLE = math.pi / 4

#: the guard band, in radians, around each Stokes ray: a line closer to a
#: ray contains it (``sector_config``), and an argument closer to a sector's
#: end lies outside the sector (``in_interval``)
ANGLE_GUARD = 1e-12


class AdmissibilityError(ValueError):
    """The requested line contains a Stokes ray."""


class Frame(NamedTuple):
    """The canonical coordinates u, the eigenframe Psi and (U, V) in it.
    A NamedTuple, not a dataclass: see ``monodromy_lab.record``."""

    u: tuple
    Psi: tuple
    Psi_inv: tuple
    U: tuple
    V: tuple


def canonical_coordinates(engine):
    """Eigenvalues of the Euler multiplication at q=1, in the fixed order
    (0, r, r eps^2, r eps) with r = 3*2^(2/3)."""
    r = 3 * engine.exp(engine.real(Fraction(2, 3)) * engine.log(engine.real(2)))
    eps = engine.exp(2 * engine.i * engine.pi / 3)
    return (engine.complex(0), engine.complex(r), r * eps ** 2, r * eps)


def _eigenvector(u, engine):
    """Unnormalized eigenvector of U_cal for a nonzero eigenvalue u: solving
    (U_cal - u)v = 0 gives v = (u^2/36, u/6, 1, u^2/36)."""
    return [u * u / 36, u / 6, engine.complex(1), u * u / 36]


def frame(engine):
    """Eta-orthonormal eigenframe, Psi, and the diagonalized data (U, V)."""
    u = canonical_coordinates(engine)
    vecs = []
    for k, uk in enumerate(u):
        if k == 0:
            v = [engine.complex(1), engine.complex(0), engine.complex(0), engine.complex(-1)]
        else:
            v = _eigenvector(uk, engine)
        # eta-norm <v, v> = sum_a v_a v_{3-a}
        h = sum(v[a] * v[3 - a] for a in range(4))
        if engine.fabs(h) < 1e-10:
            raise ArithmeticError("degenerate eigenvector normalization")
        f = [x / engine.sqrt(h) for x in v]
        # sign convention: first coordinate positive real, or positive
        # imaginary when purely imaginary
        lead = f[0]
        re, im = float(lead.real), float(lead.imag)
        if re < -1e-12 or (abs(re) <= 1e-12 and im < 0):
            f = [-x for x in f]
        vecs.append(f)

    Psi_inv = tuple(zip(*vecs))
    Psi = engine.inverse(Psi_inv)

    def conjugated(M):
        """Psi M Psi^(-1) for M of exact entries."""
        M = [[engine.complex(x) for x in row] for row in M]
        return engine.matmul(engine.matmul(Psi, M), Psi_inv)

    mu, _, U = operator_matrices()
    return Frame(u=u, Psi=Psi, Psi_inv=Psi_inv, U=conjugated(U), V=conjugated(mu))


# -- sector geometry -------------------------------------------------------

class SectorConfig(NamedTuple):
    """The Stokes rays and the sectors of the admissible line at ell_angle.
    A NamedTuple, not a dataclass: see ``monodromy_lab.record``."""

    ell_angle: float
    rays: dict
    pi_left: tuple
    pi_right: tuple
    pi_plus: tuple
    pi_minus: tuple
    #: the narrow negative sector as commonly displayed for this geometry;
    #: the general definition (pi_minus above) is what the pipeline uses
    pi_minus_printed: tuple = (-math.pi / 6, math.pi / 3)


def complex_canonical_coordinates():
    """The canonical coordinates in hardware complex, for the geometry that
    does not depend on the run's engine."""
    return tuple(complex(x) for x in canonical_coordinates(get_engine("double")))


def stokes_ray_angles():
    """Oriented ray angles: rays[(i, j)] = arg(-i (conj u_i - conj u_j)) in
    [0, 2 pi).  All twelve are multiples of pi/6."""
    u = complex_canonical_coordinates()
    rays = {}
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            d = -1j * (u[i].conjugate() - u[j].conjugate())
            ang = math.atan2(d.imag, d.real) % (2 * math.pi)
            rays[(i + 1, j + 1)] = ang
    return rays


def _nearest_ray(angles, x, above):
    """The universal-cover ray angle nearest x at or above it (``above``)
    or at or below it (rays repeat mod 2 pi)."""
    turn = 2 * math.pi
    if above:
        return min(a + turn * math.ceil((x - a) / turn) for a in angles)
    return max(a + turn * math.floor((x - a) / turn) for a in angles)


@functools.lru_cache(maxsize=None)
def sector_config(ell_angle=ADMISSIBLE_ANGLE):
    """Sector geometry for the admissible line at the given angle (cached).

    Raises AdmissibilityError when the line (in either direction) hits a
    Stokes ray.  The extended sectors run between the nearest rays:
    Pi_left from below phi to above phi + pi, Pi_right from below phi - pi
    to above phi, and the narrow sectors are the two overlap components.
    """
    rays = stokes_ray_angles()
    angles = sorted(set(rays.values()))
    for a in angles:
        for direction in (ell_angle, ell_angle + math.pi):
            if abs((direction - a + math.pi) % (2 * math.pi) - math.pi) <= ANGLE_GUARD:
                raise AdmissibilityError(
                    f"line at angle {ell_angle} contains a Stokes ray"
                )

    phi = ell_angle
    left = (_nearest_ray(angles, phi, False), _nearest_ray(angles, phi + math.pi, True))
    right = (_nearest_ray(angles, phi - math.pi, False), _nearest_ray(angles, phi, True))
    plus = (max(left[0], right[0]), min(left[1], right[1]))
    minus = (max(left[0] - 2 * math.pi, right[0]), min(left[1] - 2 * math.pi, right[1]))
    return SectorConfig(
        ell_angle=ell_angle,
        rays=types.MappingProxyType(rays),
        pi_left=left,
        pi_right=right,
        pi_plus=plus,
        pi_minus=minus,
    )


def in_interval(arg, interval):
    """Open-interval membership with the guard band ``ANGLE_GUARD``."""
    lo, hi = interval
    return lo + ANGLE_GUARD < arg < hi - ANGLE_GUARD
