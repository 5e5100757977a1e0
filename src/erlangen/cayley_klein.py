"""Projective measurement: distances and angles referred to an absolute
quadric via logarithms of cross-ratios, the degenerate behaviour of that
measurement on the quadric itself, measurements induced on a quadric
surface by fixing a projection center, and the invariant of line space
attached to a fixed linear complex.
"""

from __future__ import annotations

import cmath
import enum

import numpy as np

from .numerics import GeometryError, as_complex_array
from .projective import (
    Hyperplane,
    ProjPoint,
    Quadric,
    cross_ratio,
    line_quadric_intersections,
    on_quadric,
)
from .transfers import klein_quadric

__all__ = [
    "CKMetric",
    "klein_disk_metric",
    "elliptic_metric",
    "OnAbsolute",
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

    def __repr__(self):
        return f"CKMetric(absolute={self.absolute!r}, c={self.c!r})"


def klein_disk_metric() -> CKMetric:
    """Hyperbolic measurement inside x^2 + y^2 = z^2 at unit curvature."""
    return CKMetric(Quadric(np.diag([1.0, 1.0, -1.0]).astype(complex)), 0.5)


def elliptic_metric() -> CKMetric:
    """Elliptic plane measurement with absolute x^2 + y^2 + z^2 = 0."""
    return CKMetric(Quadric(np.eye(3, dtype=complex)), 1.0 / 2.0j)


def ck_distance(p: ProjPoint, q: ProjPoint, m: CKMetric) -> complex:
    """Distance c * log CR(p, q; x1, x2) with x1, x2 the chord's
    intersections with the absolute.

    The branch of the logarithm is the principal one and the
    intersection labels follow the deterministic lexicographic rule of
    line_quadric_intersections, so the value is defined up to sign;
    comparisons should use absolute values.  Coinciding points give 0,
    as does a chord tangent to the absolute (isotropic direction).
    Points on the absolute raise OnAbsolute; a chord inside the quadric
    raises GeneratorChord.
    """
    if p.equals(q):
        return 0.0 + 0.0j
    # a generator chord is the more specific signal: both its points lie
    # on the absolute, yet the measurement is indeterminate, not infinite
    hit = line_quadric_intersections(p, q, m.absolute)
    if on_quadric(p, m.absolute):
        raise OnAbsolute("first point lies on the absolute")
    if on_quadric(q, m.absolute):
        raise OnAbsolute("second point lies on the absolute")
    if hit.tangent:
        return 0.0 + 0.0j
    cr = cross_ratio(p, q, hit.first, hit.second)
    return m.c * cmath.log(cr)


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


def _sign_normalized(d: complex) -> complex:
    if d.real < 0 or (d.real == 0 and d.imag < 0):
        return -d
    return d


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
    length.  The result is sign-normalized; it is defined up to sign.
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

    if on_quadric(center, quad, 1e-8):
        # zero-curvature case: project from the center to a chart plane
        k = int(np.argmax(np.abs(v)))
        imgs = []
        for x in (p, q):
            xv = x.coords / np.linalg.norm(x.coords)
            y = xv - (xv[k] / v[k]) * v
            y = np.delete(y, k)
            imgs.append(y)
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
        return _sign_normalized(cval * np.sqrt(ssq))

    # constant-curvature case: project onto the polar plane of the center
    imgs = []
    for x in (p, q):
        xv = x.coords / np.linalg.norm(x.coords)
        imgs.append(ProjPoint(xv - (complex(v @ qm @ xv) / qvv) * v))
    if imgs[0].equals(imgs[1]):
        return 0.0 + 0.0j
    metric = CKMetric(quad, cval)
    return _sign_normalized(ck_distance(imgs[0], imgs[1], metric))


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

    def __repr__(self):
        return f"LinearComplex({self.coeffs.tolist()!r})"


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
