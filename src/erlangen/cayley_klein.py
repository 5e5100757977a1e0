"""Projective measurement: distances and angles referred to an absolute
quadric via logarithms of cross-ratios, the degenerate behaviour of that
measurement on the quadric itself, measurements induced on a quadric
surface by fixing a projection center, and the invariant of line space
attached to a fixed linear complex.
"""

from __future__ import annotations

import enum

import numpy as np

from .numerics import (DEFAULT_TOL, DimensionMismatch, GeometryError, as_complex_array,
                       equal_up_to_scale_stack, row_dot, row_norm)
from .projective import GeneratorChord, Hyperplane, ProjPoint, Quadric, on_quadric
from .transfers import klein_quadric

__all__ = [
    "CKMetric",
    "klein_disk_metric",
    "elliptic_metric",
    "OnAbsolute",
    "CK_FAULTS",
    "ck_distance_stack",
    "ck_distance",
    "ck_angle",
    "DegeneracyVerdict",
    "on_quadric_degeneracy",
    "induced_surface_distance",
    "LinearComplex",
    "line_invariant",
]


class OnAbsolute(GeometryError):
    """A point sits on the absolute: the measurement diverges there."""


class CKMetric:
    """Absolute quadric plus the scale constant of the measurement.

    The scale constant is free in the construction (any choice gives the
    same geometry up to a factor); the package defaults are 1/2 for the
    real hyperbolic absolute and 1/(2i) for the elliptic one, which
    reproduce the unit-curvature models.
    """

    __slots__ = ("absolute", "c")

    def __init__(self, absolute: Quadric, c):
        self.absolute = absolute
        self.c = complex(c)
        mat = absolute.matrix / np.max(np.abs(absolute.matrix))
        if abs(np.linalg.det(mat)) < 1e-10:
            raise GeometryError("absolute quadric is degenerate")


def klein_disk_metric() -> CKMetric:
    """Hyperbolic measurement inside x^2 + y^2 = z^2 at unit curvature."""
    return CKMetric(Quadric(np.diag([1.0, 1.0, -1.0]).astype(complex)), 0.5)


def elliptic_metric() -> CKMetric:
    """Elliptic plane measurement with absolute x^2 + y^2 + z^2 = 0."""
    return CKMetric(Quadric(np.eye(3, dtype=complex)), 1.0 / 2.0j)


#: the built-in metrics by name (names.METRIC_NAMES): the distance verb's and ck-distance's
METRICS = {"klein-disk": klein_disk_metric, "elliptic": elliptic_metric}


#: (exception type, message) of ck_distance's errors, by ck_distance_stack's codes
CK_FAULTS = ((None, ""), (GeneratorChord, "line lies in the quadric (generator)"),
             (OnAbsolute, "first point lies on the absolute"),
             (OnAbsolute, "second point lies on the absolute"))


def ck_distance_stack(p: np.ndarray, q: np.ndarray, absolute: np.ndarray, c):
    """ck_distance of each pair of rows of two (B, n+1) point stacks, under
    the (n+1, n+1) matrix of an absolute and the constant c: (B,) values,
    and (B,) codes, 0 or the index in CK_FAULTS of the first check failed.

    With a = B(p, p), e = B(q, q), b = B(p, q) for the bilinear form B of
    the absolute and s = sqrt(b^2 - ae), the cross-ratio with the chord's
    points on the absolute is (b + s)/(b - s).  c (log(b + s) - log(b - s))
    is defined up to sign and the period P = 2 pi i c.  The value is the
    one with real part >= 0 and the least component along P.  Of the
    principal value v and w, the principal value of -v, it is the one with
    the larger real (then imaginary) part if that real part is >= 0, else
    the other one negated: off the strip's edges w = -v, and on an edge
    (component +-|P|/2) it prefers the + edge.
    Coinciding points, and a chord tangent to the absolute, give 0.
    """
    pv, qv = (x / np.max(np.abs(x), axis=1, keepdims=True) for x in (p, q))
    form = absolute / np.max(np.abs(absolute))
    # one row at a time, so a row's bits do not depend on the stack's size
    a, e, b = (row_dot((x[:, None] @ form)[:, 0], y) for x, y in ((pv, pv), (qv, qv), (pv, qv)))
    scale = np.maximum(np.maximum(np.abs(a), np.abs(e)), np.abs(b))
    same = equal_up_to_scale_stack(p, q)
    on = [np.abs(x) / (np.linalg.norm(form) * row_norm(v) ** 2) < DEFAULT_TOL
          for x, v in ((a, pv), (e, qv))]
    codes = np.select([same, scale <= 1e-10, *on], [0, 1, 2, 3]).astype(np.int8)
    disc = b * b - a * e
    s, c = np.sqrt(disc), complex(c)
    # a point on the absolute makes a logarithm infinite; its value is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(b + s) - np.log(b - s)
        # off the strip's edge w = -v; on it, v and P - v lie on the
        # +|P|/2 edge, -v and v - P on the other
        v, w = c * _principal(logs), c * _principal(-logs)
        swap = (w.real > v.real) | ((w.real == v.real) & (w.imag > v.imag))
        hi, lo = np.where(swap, w, v), np.where(swap, v, w)
        values = np.where(hi.real >= 0, hi, -lo)
    zero = same | (codes != 0) | (np.abs(disc) <= 1e-12 * scale * scale)
    return np.where(zero, 0j, values), codes


def _principal(logs: np.ndarray) -> np.ndarray:
    """Logarithms moved by multiples of 2 pi i to imaginary parts in (-pi, pi]."""
    return logs - 2j * np.pi * np.ceil(logs.imag / (2 * np.pi) - 0.5)


def ck_distance(p: ProjPoint, q: ProjPoint, m: CKMetric) -> complex:
    """Distance c * log CR(p, q; x1, x2) with x1, x2 the chord's points on
    the absolute: the batch of one of ck_distance_stack.  On the klein
    disk its real part is >= 0 and its imaginary part in (-pi/2, pi/2];
    for real elliptic points it is real, in [0, pi/2].  A point on the
    absolute raises OnAbsolute; a chord in it raises GeneratorChord."""
    if p.dim != q.dim or p.dim != m.absolute.dim:
        raise DimensionMismatch("line/quadric dimension mismatch")
    values, codes = ck_distance_stack(p.coords[None], q.coords[None], m.absolute.matrix, m.c)
    if codes[0]:
        etype, message = CK_FAULTS[codes[0]]
        raise etype(message)
    return values.tolist()[0]


def ck_angle(h1: Hyperplane, h2: Hyperplane, m: CKMetric) -> complex:
    """Angle between hyperplanes: ck_distance of their coefficient vectors
    under the dual absolute (the adjugate), so its rules hold in the dual
    space: hyperplanes meeting on the absolute (asymptotically parallel
    lines) give 0, and one tangent to the absolute raises OnAbsolute,
    worded as for a point.
    """
    if h1.dim != h2.dim or h1.dim != m.absolute.dim:
        raise GeometryError("angle operands do not match the metric")
    mat = m.absolute.matrix
    adj = np.linalg.inv(mat) * np.linalg.det(mat)
    dual = CKMetric(Quadric((adj + adj.T) / 2), m.c)
    return ck_distance(ProjPoint(h1.coeffs), ProjPoint(h2.coeffs), dual)


class DegeneracyVerdict(enum.Enum):
    ZERO = "zero"
    INDETERMINATE = "indeterminate"


def on_quadric_degeneracy(p: ProjPoint, q: ProjPoint, quad: Quadric) -> DegeneracyVerdict:
    """Behaviour of the chordal cross-ratio for two points of the quadric.

    ZERO: the chord meets the quadric exactly at the two points, and the
    measurement collapses to zero there regardless of position.
    INDETERMINATE: the chord lies in the quadric (the points share a
    generator).
    """
    if not on_quadric(p, quad, 1e-8):
        raise GeometryError("first point is not on the quadric")
    if not on_quadric(q, quad, 1e-8):
        raise GeometryError("second point is not on the quadric")
    if p.equals(q):
        raise GeometryError("points coincide")
    pv = p.coords / np.linalg.norm(p.coords)
    qv = q.coords / np.linalg.norm(q.coords)
    qm = quad.matrix / np.linalg.norm(quad.matrix)
    pairing = abs(pv @ qm @ qv)
    if pairing < 1e-10:
        return DegeneracyVerdict.INDETERMINATE
    return DegeneracyVerdict.ZERO


def induced_surface_distance(p: ProjPoint, q: ProjPoint, quad: Quadric,
                             center: ProjPoint, c) -> complex:
    """Measurement on a quadric surface induced by fixing a point.

    Center off the quadric: p and q are projected from the center onto
    its polar plane, where the quadric cuts the boundary conic of the
    projection; the value is the projective distance of the two images
    with respect to that conic (constant curvature).  Center on the
    quadric: stereographic projection to a coordinate chart plane and
    the complex Euclidean chart distance scaled by c (zero curvature).
    Either way the generators of the surface come out as lines of zero
    length.  The value is defined up to sign; off the quadric it is
    ck_distance's representative, on it the one with real part >= 0.
    """
    cval = complex(c)
    if p.dim != quad.dim or q.dim != quad.dim or center.dim != quad.dim:
        raise GeometryError("dimension mismatch")
    if not on_quadric(p, quad, 1e-8) or not on_quadric(q, quad, 1e-8):
        raise GeometryError("both points must lie on the quadric")
    if center.equals(p) or center.equals(q):
        raise GeometryError("projection center coincides with a point")
    if p.equals(q):
        return 0.0 + 0.0j
    v = center.coords / np.linalg.norm(center.coords)
    qm = quad.matrix / np.max(np.abs(quad.matrix))
    qvv = complex(v @ qm @ v)
    xs = [x.coords / np.linalg.norm(x.coords) for x in (p, q)]

    if on_quadric(center, quad, 1e-8):
        # zero-curvature case: project from the center to a chart plane
        k = int(np.argmax(np.abs(v)))
        imgs = [np.delete(xv - (xv[k] / v[k]) * v, k) for xv in xs]
        norms = [float(np.max(np.abs(y))) for y in imgs]
        if min(norms) < 1e-12:
            raise GeometryError("projection degenerate for this center")
        # shared affine chart: divide by the jointly largest coordinate
        j = int(np.argmax(np.abs(imgs[0]) * np.abs(imgs[1])))
        if min(abs(imgs[0][j]), abs(imgs[1][j])) < 1e-10 * max(norms):
            raise GeometryError("projection degenerate (chart divisor vanishes)")
        w0 = np.delete(imgs[0] / imgs[0][j], j)
        w1 = np.delete(imgs[1] / imgs[1][j], j)
        diff = w0 - w1
        ssq = complex(diff @ diff)
        spread = float(np.sum(np.abs(diff) ** 2))
        # isotropic chart displacements (generator chords) are exact zeros
        # of the quadratic form; snap below the cancellation floor
        if spread > 0 and abs(ssq) / spread < 1e-13:
            return 0.0 + 0.0j
        d = cval * np.sqrt(ssq)
        return -d if d.real < 0 or (d.real == 0 and d.imag < 0) else d

    # constant-curvature case: project onto the polar plane of the center
    return ck_distance(*(ProjPoint(xv - (complex(v @ qm @ xv) / qvv) * v) for xv in xs),
                       CKMetric(quad, cval))


class LinearComplex:
    """Point of the five-dimensional space of line coordinates; "special"
    exactly when it satisfies the quadric of lines, i.e. is itself a line."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = as_complex_array(coeffs, "LinearComplex")
        if arr.shape != (6,):
            raise GeometryError("LinearComplex needs 6 coordinates")
        if float(np.max(np.abs(arr))) == 0.0:
            raise GeometryError("LinearComplex must be nonzero")
        self.coeffs = arr

    def is_special(self, tol: float = 1e-10) -> bool:
        k = klein_quadric().matrix
        val = abs(self.coeffs @ k @ self.coeffs)
        return bool(val / (np.linalg.norm(k) * np.linalg.norm(self.coeffs) ** 2) < tol)


def line_invariant(l1: LinearComplex, l2: LinearComplex, a: LinearComplex) -> complex:
    """Invariant of two lines relative to a fixed general linear complex:

        I = (Om(l1, l2) * Om(a, a)) / (Om(l1, a) * Om(l2, a)),

    with Om the bilinear form of the quadric of lines.  It is unchanged
    by every line-space map preserving that quadric up to scale and
    fixing the complex, and vanishes exactly when the lines meet.

    The zero-curvature measurement attached to a *special* complex is
    deliberately not provided: no construction is fixed for it here, and
    special complexes are rejected.
    """
    kq = klein_quadric()
    km = kq.matrix / np.max(np.abs(kq.matrix))

    def om(x: LinearComplex, y: LinearComplex) -> complex:
        return complex(x.coeffs @ km @ y.coeffs)

    if not l1.is_special(1e-8) or not l2.is_special(1e-8):
        raise GeometryError("l1 and l2 must be lines (special complexes)")
    oaa = om(a, a)
    norm_a = np.linalg.norm(a.coeffs) ** 2
    if abs(oaa) < 1e-10 * norm_a:
        raise GeometryError("fixed complex must be general (not special)")
    d1 = om(l1, a)
    d2 = om(l2, a)
    guard = 1e-10 * np.linalg.norm(l1.coeffs) * np.linalg.norm(a.coeffs)
    if abs(d1) < guard or abs(d2) < guard:
        raise GeometryError("a line belongs to the fixed complex; invariant undefined")
    return om(l1, l2) * oaa / (d1 * d2)
