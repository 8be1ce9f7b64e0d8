"""End-to-end verification pipeline, as a few named stages.

* ``stokes_stage``: the Stokes matrices S', P, S from the ODE;
* ``connection_stage``: the central connection matrix C, its closed-form
  comparison (in the run's engine) and the two monodromy constraints;
* ``characteristic_stage``: the Euler matrix, its inverse and the
  Gamma-basis matrix C_Gamma of the derived-category side;
* ``braid_stage``: the braid/sign transformation carrying the analytic pair
  (S, C) to the derived-category pair (Euler^-1, C_Gamma);
* ``gate``: residuals plus tolerances to ``failed_checks`` and ``status``.

Each stage returns its data and a dict of named residuals; ``run_verify``
composes them, and the CLI subcommands call the same stages.  An
ArithmeticError that leaves a stage keeps its type and names the stage
first in its message, then the base point or held-out point where it was
raised, if any ("connection stage: at z = 5e-301,0.785: matrix is
numerically singular").
"""

from __future__ import annotations

import functools
import math
import sys
import types
from fractions import Fraction
from typing import NamedTuple

from monodromy_lab import braid, ktheory, reference
from monodromy_lab.closedform import evaluate_over_d
from monodromy_lab.engine import get_engine, max_deviation
from monodromy_lab.frame import ADMISSIBLE_ANGLE
from monodromy_lab.monodromy import (
    CONNECTION_SECTOR,
    PREFACTORS,
    STOKES_SECTOR,
    check_sector,
    connection_matrix,
    connection_points,
    heldout_point,
    stokes_matrix,
    stokes_points,
    verify_constraints,
)
from monodromy_lab.record import Record
from monodromy_lab.report import complex_matrix
from monodromy_lab.ring import operator_matrices, unipotent_inverse
from monodromy_lab.solutions import PHI1, PHI2, UCComplex, phi_series

DEFAULT_TOLERANCES = {
    "stokes_snap": 1e-6,
    "stokes_constancy": 1e-8,
    "connection_stability": 1e-9,
    "connection_heldout": 1e-9,
    "c_vs_closed_form": 1e-8,
    "constraint_cyclic": 1e-8,
    "constraint_pairing": 1e-8,
    "c_gamma_vs_closed_form": 1e-10,
    "braid_match": 1e-6,
}


#: the most digits a run may ask for.  Residuals leave the engine as Python
#: floats and reach down to about 10^-dps; a float is normal only down to
#: 2.2e-308, so this keeps 16 digits of margin above that, and no residual
#: reads as a subnormal or as an exact 0
MAX_DPS = -sys.float_info.min_10_exp - 16


class RunConfig(Record):
    """One run's configuration, immutable.  Construction validates every
    field and raises ValueError on a bad one (SectorError for a base point
    outside its sector); ``tolerances`` may name a subset of
    DEFAULT_TOLERANCES and is completed from it into a read-only mapping.
    The defaults are class attributes.  A ``Record``, not a dataclass:
    see ``monodromy_lab.record``."""

    _fields = ("truncation_order", "z0_stokes", "z0_connection", "tolerances",
               "engine_name", "dps")
    truncation_order = 40
    z0_stokes = UCComplex.polar(2.0, ADMISSIBLE_ANGLE)
    z0_connection = UCComplex.polar(0.1, ADMISSIBLE_ANGLE)
    engine_name = "mp"
    dps = 40

    def __init__(self, truncation_order=truncation_order, z0_stokes=z0_stokes,
                 z0_connection=z0_connection, tolerances=types.MappingProxyType({}),
                 engine_name=engine_name, dps=dps):
        if truncation_order < 10:
            raise ValueError("truncation_order must be >= 10")
        if engine_name not in ("double", "mp"):
            raise ValueError(f"unknown engine {engine_name!r}")
        if not 1 <= dps <= MAX_DPS:
            raise ValueError(f"dps must be in 1..{MAX_DPS}")
        check_sector(stokes_points(z0_stokes), STOKES_SECTOR, "z0_stokes point")
        connection = connection_points(z0_connection) + [heldout_point(z0_connection)]
        check_sector(connection, CONNECTION_SECTOR, "z0_connection point")
        for name, value in tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"tolerance {name} must be positive and finite")
        object.__setattr__(self, "truncation_order", truncation_order)
        object.__setattr__(self, "z0_stokes", z0_stokes)
        object.__setattr__(self, "z0_connection", z0_connection)
        object.__setattr__(self, "tolerances", types.MappingProxyType(
            {**DEFAULT_TOLERANCES, **tolerances}))
        object.__setattr__(self, "engine_name", engine_name)
        object.__setattr__(self, "dps", dps)

    def engine(self):
        return get_engine(self.engine_name, dps=self.dps)


def _named_stage(stage):
    """The stage, with its name put before the message of an
    ArithmeticError that leaves it."""
    name = stage.__name__.replace("_", " ")

    @functools.wraps(stage)
    def run(*args, **kwargs):
        try:
            return stage(*args, **kwargs)
        except ArithmeticError as exc:
            exc.args = (f"{name}: {exc}",)
            raise

    return run


@_named_stage
def stokes_stage(config):
    """S', P and S at the config's Stokes base points."""
    sd = stokes_matrix(config.engine(), stokes_points(config.z0_stokes),
                       config.truncation_order, config.tolerances["stokes_snap"])
    return sd, dict(sd.residuals)


@_named_stage
def connection_stage(config, sd):
    """C' and C at the config's connection base points, the closed-form
    comparison of C and the two monodromy constraints on (S, C)."""
    engine = config.engine()
    cd = connection_matrix(engine, connection_points(config.z0_connection),
                           config.truncation_order)
    residuals = dict(cd.residuals)
    residuals["c_vs_closed_form"] = max_deviation(cd.C, _c_closed_form(engine))
    residuals.update(verify_constraints(sd.S, cd.C, engine))
    return cd, residuals


@functools.lru_cache(maxsize=None)
def _c_closed_form(engine):
    """C's closed form (``reference.C_REF_NUMERATORS`` over D) in the
    engine, evaluated once per engine."""
    return evaluate_over_d(reference.C_REF_NUMERATORS, engine)


#: under mp, C_Gamma is evaluated at this many digits, or at the run's own
#: when it asks for more
C_GAMMA_DPS = 40


class CharacteristicData(NamedTuple):
    """The characteristic stage's matrices.  A NamedTuple, not a
    dataclass: see ``monodromy_lab.record``."""

    euler: tuple            # exact integer Euler matrix
    euler_inverse: tuple    # its exact inverse
    c_gamma: tuple          # C_Gamma (see characteristic_stage), row-major


@_named_stage
def characteristic_stage(config):
    """The derived-category side.  Its exact part does not depend on the
    configuration and is computed once per process; C_Gamma is evaluated
    once per engine: the run's own under double, and under mp one at
    max(C_GAMMA_DPS, config.dps) digits, so that the braid comparison is not
    limited by it.  Returned immutable."""
    euler, euler_inverse, _, residuals = _exact_characteristic()
    engine = config.engine()
    if engine.name == "mp":
        engine = get_engine("mp", dps=max(C_GAMMA_DPS, config.dps))
    data = CharacteristicData(euler=euler, euler_inverse=euler_inverse,
                              c_gamma=_c_gamma(engine))
    return data, residuals


@functools.lru_cache(maxsize=None)
def _exact_characteristic():
    """The exact Euler matrix, its inverse, the exact numerators of C_Gamma
    (``ktheory.c_gamma_numerators``) and the C_Gamma identity: the numerators
    are compared exactly with the closed form, and the residual is the
    evaluated difference of the two exact matrices, 0 when they agree; an
    exact 0 needs no digits, so it is evaluated in double."""
    euler = ktheory.euler_matrix()
    numerators = ktheory.c_gamma_numerators()
    engine = get_engine("double")
    difference = [[a - b for a, b in zip(row, ref)]
                  for row, ref in zip(numerators, reference.C_GAMMA_REF_NUMERATORS)]
    residuals = {"c_gamma_vs_closed_form": max(
        engine.fabs(x) for row in evaluate_over_d(difference, engine) for x in row)}
    return euler, unipotent_inverse(euler), numerators, types.MappingProxyType(residuals)


@functools.lru_cache(maxsize=None)
def _c_gamma(engine):
    """C_Gamma evaluated in the engine."""
    return evaluate_over_d(_exact_characteristic()[2], engine)


@_named_stage
def braid_stage(S, C, characteristic, tol):
    """Search for the braid/sign transformation carrying (S, C) to
    (Euler^-1, C_Gamma).  S and Euler^-1 are exact integers, which the
    search compares with ``==``, and C holds the run's engine numbers, so
    ``braid_match`` is the C side's deviation alone, measured at working
    precision (against C_Gamma, at max(C_GAMMA_DPS, dps) digits under mp)."""
    target_C = characteristic.c_gamma
    found = braid.search_equivalence(S, C, characteristic.euler_inverse, target_C,
                                     max_len=2, tol=tol)
    if found is None:
        return {"found": False, "word": [], "signs": [], "max_deviation": None}, {}
    word, signs = found
    dev = max_deviation(braid.sign_act(signs, *braid.braid_act(word, S, C))[1], target_C)
    report = {"found": True, "word": word.labels(), "signs": list(signs.signs),
              "max_deviation": dev}
    return report, {"braid_match": dev}


def gate(residuals, tolerances, missing=()):
    """``failed_checks`` (every residual not within its tolerance, a NaN
    included, sorted, then every check in ``missing`` that produced no
    residual) and ``status``."""
    failed = sorted(name for name, value in residuals.items()
                    if not value <= tolerances[name])
    failed.extend(missing)
    return {"failed_checks": failed, "status": "ok" if not failed else "fail"}


def run_verify(config):
    """Full pipeline; returns an ordered report dict (see docs/report_schema.json)."""
    engine = config.engine()
    order = config.truncation_order
    tol = config.tolerances

    mu, R, U = operator_matrices(q=Fraction(1))
    sd, residuals = stokes_stage(config)
    cd, connection_residuals = connection_stage(config, sd)
    residuals.update(connection_residuals)
    characteristic, characteristic_residuals = characteristic_stage(config)
    residuals.update(characteristic_residuals)
    braid_report, braid_residuals = braid_stage(sd.S, cd.C, characteristic, tol["braid_match"])
    residuals.update(braid_residuals)
    missing = () if braid_report["found"] else ("braid_search_not_found",)

    s1 = phi_series(PHI1, order, engine)
    s2 = phi_series(PHI2, order, engine)

    return {
        "command": "verify",
        "config": config_dict(config),
        "mu": [[x for x in row] for row in mu],
        "R": [[int(x) for x in row] for row in R],
        "U": [[int(x) for x in row] for row in U],
        "S_prime": [list(r) for r in sd.s_prime],
        "P": [list(r) for r in sd.P],
        "S": [list(r) for r in sd.S],
        "C_prime": complex_matrix(cd.c_prime),
        "C": complex_matrix(cd.C),
        "euler_matrix": [list(r) for r in characteristic.euler],
        "euler_matrix_inverse": [list(r) for r in characteristic.euler_inverse],
        "C_gamma": [list(r) for r in characteristic.c_gamma],
        "braid": braid_report,
        # Frobenius coordinates (a0, b0, c0, d0) of the two Mellin-Barnes
        # solutions: the change of basis between the log-series frame at z=0
        # and the integral solutions, recorded rather than assumed.
        "phi1_frobenius_coordinates": [complex(engine.number(x)) for x in s1.initial_block()],
        "phi2_frobenius_coordinates": [complex(engine.number(x)) for x in s2.initial_block()],
        "prefactors": dict(PREFACTORS),
        "residuals": residuals,
        "tolerances": {k: tol[k] for k in sorted(tol)},
        **gate(residuals, tol, missing),
    }


def config_dict(config):
    return {
        "engine": config.engine_name,
        "dps": config.dps if config.engine_name == "mp" else None,
        "truncation_order": config.truncation_order,
        "z0_stokes": [float(config.z0_stokes.modulus), config.z0_stokes.arg],
        "z0_connection": [float(config.z0_connection.modulus), config.z0_connection.arg],
    }
