"""Deterministic JSON serialization for reports.

Numbers are rendered with 17 significant digits, complex values as
[re, im] pairs, exact rationals as {"num": ..., "den": ...}, and matrices
row-major; dict field order is preserved, so identical configurations give
byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction


def _fmt_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report")
    return format(x, ".17g")


def _encode(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, complex):
        out.append("[" + _fmt_float(obj.real) + ", " + _fmt_float(obj.imag) + "]")
    elif isinstance(obj, Fraction):
        if obj.denominator == 1:
            out.append(str(obj.numerator))
        else:
            out.append('{"num": %d, "den": %d}' % (obj.numerator, obj.denominator))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, v in enumerate(obj):
            if k:
                out.append(", ")
            _encode(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, v) in enumerate(obj.items()):
            if k:
                out.append(", ")
            _encode(str(key), out)
            out.append(": ")
            _encode(v, out)
        out.append("}")
    else:
        # mp engine scalars (mpmath numbers) funnel through complex(); the
        # double engine's are the Python floats and complex numbers above
        _encode(complex(obj), out)


def dumps(report):
    out = []
    _encode(report, out)
    return "".join(out)


def complex_matrix(M):
    """Rows of engine scalars or exact numbers -> nested lists of complex."""
    return [[complex(x) for x in row] for row in M]


def pretty_matrix(rows, name="", digits=6):
    """Aligned text rendering of the rows of a matrix for --pretty output."""
    cells = []
    for row in rows:
        line = []
        for v in row:
            v = complex(v)
            if abs(v.imag) < 1e-14:
                line.append(f"{v.real:.{digits}g}")
            else:
                line.append(f"{v.real:.{digits}g}{v.imag:+.{digits}g}i")
        cells.append(line)
    width = max(len(c) for line in cells for c in line)
    body = "\n".join("  [ " + "  ".join(c.rjust(width) for c in line) + " ]" for line in cells)
    return (name + " =\n" if name else "") + body
