"""Correctness checks and gate accounting for one verification report.

Every report, from the CLI or from ``pipeline.run_verify``, is checked on its
serialized bytes:

* it validates against ``docs/report_schema.json``;
* ``S_prime``, ``P``, ``S`` and ``euler_matrix`` equal the exact tuples in
  ``monodromy_lab.reference``;
* the braid word and signs equal ``EXPECTED_BRAID_LABELS`` / ``EXPECTED_SIGNS``;
* the configuration is the one the benchmark asked for, and the report gates
  exactly the residuals of ``GATES``, none more loosely;
* ``failed_checks`` names exactly the gated residuals above tolerance, and
  the CLI exit code is 1 exactly when ``failed_checks`` is non-empty.
"""

from __future__ import annotations

import json
import math

import jsonschema

#: the named gates and their tolerances when this benchmark was defined; a
#: report may tighten a gate but not loosen or drop one
GATES = {
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


def gate_failures(doc):
    """Named gates whose residual exceeds its tolerance, recomputed here."""
    residuals, tolerances = doc.get("residuals", {}), doc.get("tolerances", {})
    failed = sorted(name for name, value in residuals.items()
                    if name in tolerances and value > tolerances[name])
    if not (doc.get("braid") or {}).get("found"):
        failed.append("braid_search_not_found")
    return failed


def margins(doc):
    """{gate: log10(tolerance / residual)} over gated nonzero residuals."""
    residuals, tolerances = doc["residuals"], doc["tolerances"]
    return {name: math.log10(tolerances[name] / value)
            for name, value in residuals.items() if name in tolerances and value > 0}


def accuracy_digits(doc):
    """min -log10(residual) over the gated nonzero residuals."""
    residuals, tolerances = doc["residuals"], doc["tolerances"]
    return min(-math.log10(value) for name, value in residuals.items()
               if name in tolerances and value > 0)


class ReportChecker:
    def __init__(self, schema_path):
        from monodromy_lab import reference

        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self.exact = {
            "S_prime": reference.S_PRIME_REF,
            "P": reference.P_REF,
            "S": reference.S_REF,
            "euler_matrix": reference.EULER_MATRIX_REF,
        }
        self.braid = {"word": list(reference.EXPECTED_BRAID_LABELS),
                      "signs": list(reference.EXPECTED_SIGNS)}

    def check(self, text, config, exit_code=None):
        """Names of the failed correctness checks of one report (empty when
        it is correct), and the parsed report (None unless it validates)."""
        try:
            doc = json.loads(text)
        except ValueError:
            return ["json"], None
        if not self.validator.is_valid(doc):
            return ["schema"], None
        failures = []
        for key, exact in self.exact.items():
            if doc.get(key) != [list(row) for row in exact]:
                failures.append(key)
        for key, expected in self.braid.items():
            if (doc.get("braid") or {}).get(key) != expected:
                failures.append("braid_" + key)
        if doc.get("config") != config:
            failures.append("config")
        tolerances = doc["tolerances"]
        if tolerances.keys() != GATES.keys() or any(tolerances[k] > GATES[k] for k in GATES):
            failures.append("tolerances")
        if doc.get("failed_checks") != gate_failures(doc):
            failures.append("failed_checks")
        if exit_code is not None and exit_code != (1 if doc.get("failed_checks") else 0):
            failures.append("exit_code")
        return failures, doc
