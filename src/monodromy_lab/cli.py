"""Batch driver: a view over the stages of :mod:`monodromy_lab.pipeline`.

Subcommands format individual pipeline stages or run the full verification:

    monodromy-lab qcoh                 ring tables and the operators mu, R, U
    monodromy-lab period               quantum period coefficients
    monodromy-lab phitop --order N     matrix coefficients of the z=0 calibration
    monodromy-lab solutions --check-identities
    monodromy-lab stokes               S', P, S and extraction residuals
    monodromy-lab connection           C', C and extraction residuals
    monodromy-lab gamma                Gamma class, Chern characters, C_Gamma
    monodromy-lab euler-matrix         Euler pairings of the twisted collection
    monodromy-lab verify               full pipeline + braid search + constraints

Reports are single JSON documents (complex numbers as [re, im] pairs,
matrices row-major, rationals as {"num", "den"}); --pretty adds an aligned
text rendering of the matrices on stderr-free stdout.  Exit status: 0 when
all residuals are within tolerance, 1 on a tolerance failure (the failing
check is named in "failed_checks"), 2 on a configuration error, 141
(128 + SIGPIPE), with no traceback, when stdout's reader is gone.  Every
subcommand reads its options through one RunConfig, which validates them.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from fractions import Fraction

from monodromy_lab import ktheory, report as report_mod
from monodromy_lab.monodromy import phi_top
from monodromy_lab.pipeline import (
    RunConfig,
    characteristic_stage,
    connection_stage,
    gate,
    run_verify,
    stokes_stage,
)
from monodromy_lab.ring import ETA, operator_matrices, structure_constant
from monodromy_lab.solutions import (
    PHI1,
    PHI2,
    UCComplex,
    contour_eval,
    eval_series,
    identity_residuals,
    phi_series,
    quantum_period,
)


def _parse_ucpoint(text):
    try:
        mod_s, arg_s = text.split(",")
        modulus, arg = float(mod_s), float(arg_s)
    except ValueError as exc:
        raise ValueError(f"bad point spec {text!r}, expected MOD,ARG") from exc
    try:
        return UCComplex.polar(modulus, arg)
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc


def _parse_tols(pairs):
    out = {}
    for p in pairs or ():
        try:
            name, val = p.split("=")
            out[name] = float(val)
        except ValueError as exc:
            raise ValueError(f"bad tolerance {p!r}, expected NAME=VALUE") from exc
    return out


def build_parser():
    ap = argparse.ArgumentParser(prog="monodromy-lab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("--order", type=int, default=None,
                    help=f"series truncation order (default {RunConfig.truncation_order})")
    ap.add_argument("--z0-stokes", default=None, metavar="MOD,ARG",
                    help="base point for the Stokes extraction "
                         f"(default {RunConfig.z0_stokes})")
    ap.add_argument("--z0-connection", default=None, metavar="MOD,ARG",
                    help="base point for the connection extraction "
                         f"(default {RunConfig.z0_connection})")
    ap.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="override a named tolerance")
    ap.add_argument("--engine", choices=["double", "mp"], default=None,
                    help="scalar backend (default: double for solutions, "
                         f"{RunConfig.engine_name} otherwise)")
    ap.add_argument("--dps", type=int, default=None,
                    help=f"mp engine digits (default {RunConfig.dps})")
    ap.add_argument("--check-identities", action="store_true",
                    help="solutions: evaluate Euler/rotation identity residuals")
    ap.add_argument("--pretty", action="store_true",
                    help="append aligned matrix text to the JSON document")
    ap.add_argument("--output", default=None, help="write the JSON report to a file")
    return ap


def config_from_args(args):
    """The one RunConfig of a command line.  Only the options given reach
    it, so every other field keeps its default; ``solutions`` runs under
    double unless --engine says otherwise.  --dps under the double engine
    is refused, as it would be ignored."""
    engine_name = args.engine or ("double" if args.command == "solutions" else None)
    if args.dps is not None and engine_name == "double":
        raise ValueError(f"--dps sets the mp engine's digits, and {args.command} "
                         "would run under the double engine")
    given = {
        "truncation_order": args.order,
        "dps": args.dps,
        "engine_name": engine_name,
        "z0_stokes": _parse_ucpoint(args.z0_stokes) if args.z0_stokes else None,
        "z0_connection": _parse_ucpoint(args.z0_connection) if args.z0_connection else None,
    }
    return RunConfig(tolerances=_parse_tols(args.tol),
                     **{k: v for k, v in given.items() if v is not None})


def cmd_qcoh(args, cfg):
    mu, R, U = operator_matrices(q=Fraction(1))
    quantum = {f"{a},{b}": {str(c): list(n) for c in range(4)
                            if any(n := structure_constant(a, b, c))}
               for a in range(4) for b in range(4)}
    return {
        "command": "qcoh",
        "eta": [list(r) for r in ETA],
        "quantum_table": quantum,
        "mu": [list(r) for r in mu],
        "R": [[int(x) for x in r] for r in R],
        "U": [[int(x) for x in r] for r in U],
    }


def cmd_period(args, cfg):
    series = quantum_period(cfg.truncation_order)
    return {
        "command": "period",
        "coefficients": [blk[0] for blk in series.blocks],
    }


def cmd_phitop(args, cfg):
    return {
        "command": "phitop",
        "order": cfg.truncation_order,
        "coefficients": [[list(row) for row in mat] for mat in phi_top(cfg.truncation_order)],
    }


def cmd_solutions(args, cfg):
    engine, order = cfg.engine(), cfg.truncation_order
    pts = [
        UCComplex.polar(1.3, math.pi / 6),
        UCComplex.polar(0.8, math.pi),
        UCComplex.polar(1.1, 1.4 * math.pi),
        UCComplex.polar(0.9, -0.7 * math.pi),
        UCComplex.polar(1.6, 1.55 * math.pi),
    ]
    out = {"command": "solutions", "engine": cfg.engine_name, "points": [], }
    if args.check_identities:
        for z in pts:
            e_res, r_res = identity_residuals(z, order=order, engine=engine)
            out["points"].append({
                "z": [float(z.modulus), z.arg],
                "euler_residual": float(e_res),
                "rotation_residual": float(r_res),
            })
    # contour cross-checks inside the validity sectors
    checks = []
    for kind, mod, arg in [(PHI1, 1.0, 0.0), (PHI1, 2.0, math.pi / 4), (PHI2, 0.7, -math.pi / 3)]:
        z = UCComplex.polar(mod, arg)
        series_val = engine.number(eval_series(phi_series(kind, order, engine), z, engine=engine))
        contour_val = contour_eval(kind, z, engine)
        checks.append({
            "kind": kind.value,
            "z": [mod, arg],
            "series": complex(series_val),
            "contour": complex(contour_val),
            "deviation": engine.fabs(series_val - contour_val),
        })
    out["contour_checks"] = checks
    return out


def _z0s(data):
    return [[float(z.modulus), z.arg] for z in data.z0s]


def cmd_stokes(args, cfg):
    sd, residuals = stokes_stage(cfg)
    return {
        "command": "stokes",
        "engine": cfg.engine_name,
        "z0s": _z0s(sd),
        "S_prime": [list(r) for r in sd.s_prime],
        "P": [list(r) for r in sd.P],
        "S": [list(r) for r in sd.S],
        "residuals": residuals,
        **gate(residuals, cfg.tolerances),
    }


def cmd_connection(args, cfg):
    sd, _ = stokes_stage(cfg)
    cd, residuals = connection_stage(cfg, sd)
    return {
        "command": "connection",
        "engine": cfg.engine_name,
        "z0s": _z0s(cd),
        "C_prime": report_mod.complex_matrix(cd.c_prime),
        "C": report_mod.complex_matrix(cd.C),
        "residuals": residuals,
        **gate(residuals, cfg.tolerances),
    }


def cmd_gamma(args, cfg):
    characteristic, residuals = characteristic_stage(cfg)
    chs = {}
    for name in ("O", "O1", "SIGMA21", "O2", "WEDGE2", "E1", "E2", "E3", "E4"):
        obj = ktheory.k_object(name)
        chs[name] = {
            "plain": [x for x in obj.ch_plain.coeffs],
            "graded": [str(x) for x in obj.ch_graded().coeffs],
        }
    return {
        "command": "gamma",
        "gamma_minus": [str(x) for x in ktheory.gamma_class(-1).coeffs],
        "chern_characters": chs,
        "C_gamma": characteristic.c_gamma,
        "residuals": dict(residuals),
        **gate(residuals, cfg.tolerances),
    }


def cmd_euler(args, cfg):
    em = ktheory.euler_matrix()
    return {
        "command": "euler-matrix",
        "euler_matrix": [list(r) for r in em],
        "diagonal": [em[k][k] for k in range(4)],
    }


def cmd_verify(args, cfg):
    return run_verify(cfg)


COMMANDS = {
    "qcoh": cmd_qcoh,
    "period": cmd_period,
    "phitop": cmd_phitop,
    "solutions": cmd_solutions,
    "stokes": cmd_stokes,
    "connection": cmd_connection,
    "gamma": cmd_gamma,
    "euler-matrix": cmd_euler,
    "verify": cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        # opened before any stage runs, so an unwritable path costs no run
        out = open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    with out as fh:
        try:
            doc = COMMANDS[args.command](args, cfg)
        except ArithmeticError as exc:
            # snap/tail/NaN failures: a named numerical check failed
            print(f"failed check: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2

        text = report_mod.dumps(doc)
        if args.pretty:
            blocks = [text]
            for key in ("S_prime", "S", "C_prime", "C", "euler_matrix", "C_gamma"):
                if key in doc:
                    blocks.append(report_mod.pretty_matrix(doc[key], name=key))
            text = "\n".join(blocks)
        try:
            print(text, file=fh)
            fh.flush()
        except BrokenPipeError:
            # no check failed; stdout goes to devnull, so its flush at exit
            # prints nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141

    failed = doc.get("failed_checks")
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
