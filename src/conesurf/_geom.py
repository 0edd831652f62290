"""Small planar-geometry helpers shared across modules, and the file
format's writer."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _json_string

TWO_PI = 2.0 * math.pi

# Tolerance table for every module; each comment gives the scale rule.  A
# relative rule compares against the local length alone, with no additive 1:
# below unit scale tol * (1 + |x|) is close to the absolute tol, which passes
# any mismatch between lengths that are themselves smaller than tol.
VEC_TOL = 1e-9                # relative: vectors u, v agree when |u - v| <= VEC_TOL * |v|
AREA_TOL = 1e-12              # relative: a signed area must exceed AREA_TOL * (longest side)**2
HOLONOMY_GAP_TOL = 1e-8       # absolute: a cycle holonomy h (|h| = 1) is trivial when
                              # |1 - h| <= HOLONOMY_GAP_TOL
KERNEL_BASIS_TOL = 1e-6       # absolute: a projected unit vector left shorter than this by
                              # Gram-Schmidt is dependent
KERNEL_PHASE_TOL = 1e-9       # absolute: a unit kernel vector's phase is fixed at its first
                              # entry above this modulus
ROW_RELATION_TOL = 1e-9       # relative: sign-normalized rows A sum to zero when
                              # |s A| <= ROW_RELATION_TOL * (1 + |A|)
KERNEL_RESIDUAL_TOL = 1e-10   # relative: a kernel basis K needs |A K| <= KERNEL_RESIDUAL_TOL * |A|
SOLUTION_RESIDUAL_TOL = 1e-8  # relative: a chart point z needs |A z| <= SOLUTION_RESIDUAL_TOL * |z|
DELAUNAY_BAND = 1e-9          # absolute: an opposite-angle sum up to pi + DELAUNAY_BAND is Delaunay
POSITION_TOL = 1e-9           # relative: developed points coincide within POSITION_TOL * scale
FRAME_RESIDUAL_TOL = 1e-8     # relative: a frame F needs |A F| <= FRAME_RESIDUAL_TOL*|F|*(1 + |A|)
Q1_TOL = 1e-9                 # absolute: a point Z on the quadric has |f(Z) + 1| <= Q1_TOL
TANGENT_TOL = 1e-8            # relative: a tangent x has |<Z, x>| <= TANGENT_TOL * (1 + |x|)
HERMITIAN_TOL = 1e-12         # relative: H is Hermitian when |H - H*| <= HERMITIAN_TOL * (1 + |H|)
SIGNATURE_TOL = 1e-10         # relative: an eigenvalue e counts when |e| > SIGNATURE_TOL * max |e|
NORMALIZER_TOL = 1e-9         # absolute per dimension: P* (-H) P = diag(1, .., -1) within tol * d
COMPLETION_TOL = 1e-12        # absolute: a completion pair's constraint determinant reaches this
THIN_AREA_TOL = 1e-10         # relative: every triangle's area >= THIN_AREA_TOL * mean area
AREA_MATCH_TOL = 1e-9         # relative: areas A, B agree when |A - B| <= AREA_MATCH_TOL * A


def angle_tol(x: float) -> float:
    """Absolute tolerance for angle-like quantities, scaled by magnitude."""
    return 1e-9 * (1.0 + abs(x))


def cross(u: complex, v: complex) -> float:
    """Signed area spanned by u, v (positive when v is ccw of u)."""
    return (u.conjugate() * v).imag


def reduce_angle(theta: float) -> float:
    """Reduce an angle to the half-open interval (-pi, pi]."""
    r = theta - TWO_PI * round(theta / TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def is_turn_multiple(alpha: float) -> bool:
    """True when alpha is a multiple of 2*pi within tolerance."""
    return abs(reduce_angle(alpha)) <= angle_tol(alpha)


def signed_angle(u: complex, v: complex) -> float:
    """Angle in [-pi, pi] rotating u counterclockwise onto v."""
    return math.atan2(cross(u, v), (u.conjugate() * v).real)


def ccw_angle(u: complex, v: complex) -> float:
    """Angle in [0, 2*pi) rotating u counterclockwise onto v."""
    a = signed_angle(u, v)
    if a < 0.0:
        a += TWO_PI
    return a


def fmt_float(x: float) -> str:
    """Serialize a float with 17 significant digits (exact float64 round trip)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r} cannot be serialized")
    return format(x, ".16e")


def json_text(value) -> str:
    """The file format's JSON text of a value made of dicts, lists, tuples,
    arrays, strings, integers, floats (``fmt_float``) and complex numbers
    ([re, im] pairs): one line, except that a top-level object puts each
    field on its own indented line and ends in a newline."""
    if isinstance(value, dict):
        fields = (f"  {_json_string(str(k))}: {_json_line(v)}" for k, v in value.items())
        return "{\n" + ",\n".join(fields) + "\n}\n"
    return _json_line(value)


def _json_line(value) -> str:
    if isinstance(value, complex):
        return f"[{fmt_float(value.real)}, {fmt_float(value.imag)}]"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json_string(str(k))}: {_json_line(v)}"
                               for k, v in value.items()) + "}"
    return "[" + ", ".join(map(_json_line, value)) + "]"
