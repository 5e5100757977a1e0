"""Transfer maps between geometries: line <-> conic, plane <-> sphere,
space lines <-> points of a four-dimensional quadric, circles <-> vectors.

Coordinate conventions fixed here and used package-wide:

* Pluecker coordinates of the line through a, b in P^3 are ordered
  (p01, p02, p03, p23, p31, p12), which turns the quadric of lines into
  the sum of products p01*p23 + p02*p31 + p03*p12.

* A circle A(x^2+y^2) - 2a x - 2b y + C = 0 has coordinate vector

      u = (i*a, i*b, i*(A-C)/2, (A+C)/2, sigma*A*r),   sigma = orientation,

  up to scale.  The first four components satisfy
  u1^2+u2^2+u3^2+u4^2 = -(A r)^2, so the five-component vector of an
  oriented circle is null for the quadratic form u1^2+...+u5^2; point
  circles are exactly those with u5 = 0, and lines (A = 0) are the
  documented limiting encoding with u5 = +-sqrt(a^2+b^2).  The unit
  circle gets the vector (0, 0, i, 0, 1).
"""

from __future__ import annotations

import cmath

import numpy as np

from .numerics import (
    GeometryError,
    UniformWindow,
    as_complex_array,
    equal_up_to_scale,
    indefinite_orthogonal_stack,
    lex_key,
    proportionality,
    rng_stack,
    uniform,
)
from .moebius import (
    INFINITY,
    ExtendedComplex,
    MoebiusMap,
    as_extended,
    moebius_circles,
)
from .projective import (
    Hyperplane,
    ProjMap,
    ProjPoint,
    Quadric,
    line_quadric_intersections,
    on_quadric,
)

__all__ = [
    "PlueckerLine",
    "pluecker_embed",
    "pluecker_conjugate",
    "klein_quadric",
    "klein_form",
    "lines_intersect_det",
    "conic_param",
    "conic_param_inverse",
    "canonical_conic_point",
    "hesse_line",
    "CircleCoords",
    "circle_to_coords",
    "line_to_coords",
    "coords_to_circle",
    "CircleDescription",
    "point_circle",
    "coords_to_point",
    "circle_angle",
    "tangency_residual",
    "lie_apply",
    "moebius_circle_matrix",
    "random_inversive_map",
    "random_lie_map",
    "random_pentaspherical_stack",
    "stereographic_circle_fit",
]

_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


class PlueckerLine:
    """Line of P^3 by six homogeneous coordinates on the quadric of lines."""

    __slots__ = ("p",)

    def __init__(self, p):
        arr = as_complex_array(p, "PlueckerLine")
        if arr.shape != (6,):
            raise GeometryError("PlueckerLine needs 6 coordinates")
        scale = float(np.max(np.abs(arr)))
        if scale == 0.0:
            raise GeometryError("PlueckerLine must be nonzero")
        if abs(_klein_value(arr)) > 1e-10 * scale * scale:
            raise GeometryError("coordinates violate the quadric of lines")
        self.p = arr

    def equals(self, other: "PlueckerLine", tol: float = 1e-10) -> bool:
        return equal_up_to_scale(self.p, other.p, tol)


def _klein_value(p) -> complex:
    return complex(p[0] * p[3] + p[1] * p[4] + p[2] * p[5])


def klein_form(p, q) -> complex:
    """Polarized quadric-of-lines form; klein_form(p, p) recovers the
    quadratic value.  Vanishes exactly when the two lines meet."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    return complex(p[0] * q[3] + p[3] * q[0] + p[1] * q[4] + p[4] * q[1]
                   + p[2] * q[5] + p[5] * q[2]) / 2.0


def klein_quadric() -> Quadric:
    """The quadric of lines as a 6x6 symmetric matrix (x^T K x = 2 * form)."""
    k = np.zeros((6, 6), dtype=complex)
    for idx in range(3):
        k[idx, idx + 3] = 1.0
        k[idx + 3, idx] = 1.0
    return Quadric(k)


def pluecker_embed(a: ProjPoint, b: ProjPoint) -> PlueckerLine:
    """Line through two distinct points of P^3."""
    if a.dim != 3 or b.dim != 3:
        raise GeometryError("pluecker_embed expects points of P^3")
    if a.equals(b):
        raise GeometryError("coincident points span no line")
    av, bv = a.coords, b.coords
    p = np.array([av[i] * bv[j] - av[j] * bv[i] for (i, j) in _PAIRS])
    return PlueckerLine(p)


def pluecker_conjugate(g: ProjMap) -> ProjMap:
    """Induced map on line coordinates (the wedge square of g).

    Commutes with pluecker_embed and preserves the quadric of lines up
    to scale.
    """
    if g.dim != 3:
        raise GeometryError("pluecker_conjugate expects a map of P^3")
    gm = g.matrix
    out = np.zeros((6, 6), dtype=complex)
    for row, (k, l) in enumerate(_PAIRS):
        for col, (i, j) in enumerate(_PAIRS):
            out[row, col] = gm[k, i] * gm[l, j] - gm[k, j] * gm[l, i]
    return ProjMap(out)


def lines_intersect_det(a1: ProjPoint, b1: ProjPoint, a2: ProjPoint, b2: ProjPoint) -> complex:
    """4x4 determinant of four spanning points; zero iff the lines meet."""
    return complex(np.linalg.det(np.array(
        [a1.coords, b1.coords, a2.coords, b2.coords])))


# ---------------------------------------------------------------------------
# conic parametrization and point-pair <-> line transference
# ---------------------------------------------------------------------------


def _pencil_basis(center: ProjPoint):
    """Two standard basis vectors spanning a line missing the center.

    Drops the coordinate where the normalized center is largest (last
    such index on ties), so the center never lies on span{u, v}.
    """
    cn = np.abs(center.normalized())
    k = int(len(cn) - 1 - np.argmax(cn[::-1]))
    idx = [i for i in range(3) if i != k]
    e = np.eye(3, dtype=complex)
    return e[:, idx[0]], e[:, idx[1]]


def conic_param(c: Quadric, center: ProjPoint, t) -> ProjPoint:
    """Second intersection of the conic with the line of slope parameter t
    through a center lying on the conic.

    The pencil of lines through the center is parametrized by where each
    line meets the fixed line spanned by two standard basis vectors (see
    _pencil_basis); t = infinity is admissible.
    """
    if c.dim != 2 or center.dim != 2:
        raise GeometryError("conic_param works in P^2")
    if abs(np.linalg.det(c.matrix / np.max(np.abs(c.matrix)))) < 1e-10:
        raise GeometryError("conic is degenerate")
    if not on_quadric(center, c, 1e-8):
        raise GeometryError("center must lie on the conic")
    u, v = _pencil_basis(center)
    t = as_extended(t)
    w = v if t.infinite else u + t.value * v
    c0 = center.normalized()
    qm = c.matrix / np.max(np.abs(c.matrix))
    qww = complex(w @ qm @ w)
    qcw = complex(c0 @ qm @ w)
    scale = max(abs(qww), abs(qcw))
    if scale < 1e-13:
        raise GeometryError("parametrizing line degenerates on this conic")
    if abs(qww) <= 1e-13 * scale:
        # the direction w itself lies on the conic: it is the second point
        return ProjPoint(w)
    s = -2.0 * qcw / qww
    return ProjPoint(c0 + s * w)


def conic_param_inverse(c: Quadric, center: ProjPoint, p: ProjPoint) -> ExtendedComplex:
    """Parameter of a conic point w.r.t. the parametrization from center.

    The center itself is hit by the tangent-direction parameter (the
    line touching the conic there), which this inverse returns for it.
    """
    if not on_quadric(p, c, 1e-8):
        raise GeometryError("point must lie on the conic")
    u, v = _pencil_basis(center)
    c0 = center.normalized()
    if p.equals(center, 1e-10):
        qm = c.matrix / np.max(np.abs(c.matrix))
        qcu = complex(c0 @ qm @ u)
        qcv = complex(c0 @ qm @ v)
        if abs(qcv) < 1e-13 * max(abs(qcu), abs(qcv)):
            return INFINITY
        return ExtendedComplex(-qcu / qcv)
    basis = np.column_stack([c0, u, v])
    coef = np.linalg.solve(basis, p.normalized())
    if abs(coef[1]) < 1e-13 * max(abs(coef[1]), abs(coef[2])):
        return INFINITY
    return ExtendedComplex(coef[2] / coef[1])


def canonical_conic_point(c: Quadric) -> ProjPoint:
    """Deterministic base point on a plane conic.

    Intersects the conic with the three coordinate axes and picks the
    candidate with the least imaginary content, ties broken by the
    lexicographic normal form; real conics with real points therefore
    get a real base point.
    """
    e = np.eye(3, dtype=complex)
    candidates = []
    for i in range(3):
        for j in range(i + 1, 3):
            try:
                hit = line_quadric_intersections(ProjPoint(e[:, i]), ProjPoint(e[:, j]), c)
            except GeometryError:
                continue
            candidates.extend([hit.first, hit.second])
    if not candidates:
        raise GeometryError("could not find a base point on the conic")

    def key(p):
        vn = p.normalized()
        return (round(float(np.sum(np.abs(vn.imag))), 9),) + lex_key(p.coords)

    return min(candidates, key=key)


def hesse_line(c: Quadric, t1, t2) -> Hyperplane:
    """Plane line corresponding to the parameter pair (t1, t2) on a conic:
    the chord through the two parametrized points, the tangent when the
    parameters coincide.  Symmetric in (t1, t2)."""
    center = canonical_conic_point(c)
    t1, t2 = as_extended(t1), as_extended(t2)
    p1 = conic_param(c, center, t1)
    if _same_parameter(t1, t2):
        return Hyperplane(c.matrix @ p1.coords)
    p2 = conic_param(c, center, t2)
    return Hyperplane(np.cross(p1.coords, p2.coords))


def _same_parameter(t1: ExtendedComplex, t2: ExtendedComplex) -> bool:
    if t1.infinite or t2.infinite:
        return t1.infinite and t2.infinite
    return abs(t1.value - t2.value) <= 1e-12 * (1.0 + abs(t1.value) + abs(t2.value))


# ---------------------------------------------------------------------------
# tetracyclic circle coordinates and the tangency-preserving group
# ---------------------------------------------------------------------------

#: change of basis from the real signature (+,+,+,-) / (+,+,+,-,-) picture
#: to the sum-of-squares coordinates used here, and back
_D = {n: np.diag([1j, 1j, 1j] + [1.0] * (n - 3)) for n in (4, 5)}
_D_INV = {n: np.linalg.inv(d) for n, d in _D.items()}


class CircleCoords:
    """Oriented circle/line/point of the plane by five coordinates, up to
    scale, lying on the null quadric of the five-variable form."""

    __slots__ = ("u",)

    def __init__(self, u):
        arr = as_complex_array(u, "CircleCoords")
        if arr.shape != (5,):
            raise GeometryError("CircleCoords needs 5 components")
        scale = float(np.max(np.abs(arr)))
        if scale == 0.0:
            raise GeometryError("CircleCoords must be nonzero")
        if abs(complex(arr @ arr)) > 1e-8 * scale * scale:
            raise GeometryError("coordinates do not satisfy the null condition")
        self.u = arr

    @property
    def is_point(self) -> bool:
        return bool(abs(self.u[4]) <= 1e-10 * np.max(np.abs(self.u)))

    def equals(self, other: "CircleCoords", tol: float = 1e-10) -> bool:
        return equal_up_to_scale(self.u, other.u, tol)


def circle_to_coords(center, radius: float, orientation: int = +1) -> CircleCoords:
    """Coordinates of the oriented circle |z - center| = radius.

    radius = 0 gives a point circle (fifth component zero); the two
    orientations differ only in the sign of the fifth component.
    """
    z = complex(center)
    r = float(radius)
    if r < 0 or not np.isfinite(r):
        raise GeometryError("radius must be a finite nonnegative real")
    sigma = 1.0 if orientation >= 0 else -1.0
    a, b = z.real, z.imag
    cc = a * a + b * b - r * r
    u = np.array([1j * a, 1j * b, 1j * (1.0 - cc) / 2.0, (1.0 + cc) / 2.0,
                  sigma * r], dtype=complex)
    return CircleCoords(u)


def line_to_coords(normal, offset: float, orientation: int = +1) -> CircleCoords:
    """Limiting encoding of the oriented line n . (x, y) = offset with a
    unit normal n given as a complex number."""
    n = complex(normal)
    if abs(abs(n) - 1.0) > 1e-10:
        raise GeometryError("line normal must be a unit vector")
    sigma = 1.0 if orientation >= 0 else -1.0
    d = float(offset)
    u = np.array([1j * n.real, 1j * n.imag, -1j * d, d, sigma], dtype=complex)
    return CircleCoords(u)


class CircleDescription:
    """Decoded circle coordinates: kind is 'circle', 'point', 'line' or
    'point_at_infinity'; unused fields are None."""

    __slots__ = ("kind", "center", "radius", "orientation", "normal", "offset")

    def __init__(self, kind, center=None, radius=None, orientation=None,
                 normal=None, offset=None):
        self.kind = kind
        self.center = center
        self.radius = radius
        self.orientation = orientation
        self.normal = normal
        self.offset = offset


def coords_to_circle(c: CircleCoords) -> CircleDescription:
    """Invert circle_to_coords; lines and the improper point are flagged
    by kind rather than silently coerced."""
    u = c.u / np.max(np.abs(c.u))
    aa = complex(-1j * u[2] + u[3])    # the A of the circle equation
    scale = float(np.max(np.abs(u)))
    if abs(aa) <= 1e-8 * scale:
        if abs(u[4]) <= 1e-8 * scale:
            return CircleDescription("point_at_infinity")
        un = u / u[4]
        n1, n2 = -1j * un[0], -1j * un[1]
        n = complex(n1.real, n2.real)
        d = complex(1j * un[2] + un[3]) / 2.0   # C/2 with A = 0 means n.x = C/2
        # orientation is carried by the sign of the decoded normal
        return CircleDescription("line", normal=n / abs(n),
                                 offset=float((d / abs(n)).real), orientation=+1)
    un = u / aa
    a = complex(-1j * un[0]).real
    b = complex(-1j * un[1]).real
    cc = complex(1j * un[2] + un[3]).real
    r2 = a * a + b * b - cc
    r = float(np.sqrt(max(r2, 0.0)))
    center = complex(a, b)
    if abs(un[4]) <= 1e-8:
        return CircleDescription("point", center=center, radius=0.0)
    sigma = +1 if complex(un[4]).real >= 0 else -1
    return CircleDescription("circle", center=center, radius=r, orientation=sigma)


def point_circle(z) -> CircleCoords:
    """Point of the inversive plane (including infinity) as a point circle."""
    z = as_extended(z)
    if z.infinite:
        return CircleCoords([0.0, 0.0, -1j, 1.0, 0.0])
    return circle_to_coords(z.value, 0.0)


def coords_to_point(c: CircleCoords) -> ExtendedComplex:
    if not c.is_point:
        raise GeometryError("coordinates are not a point circle")
    desc = coords_to_circle(c)
    if desc.kind == "point_at_infinity":
        return INFINITY
    return ExtendedComplex(desc.center)


def _b4(u, w) -> complex:
    return complex(u[:4] @ w[:4])


def tangency_residual(c1: CircleCoords, c2: CircleCoords) -> float:
    """Scale-free residual of the oriented-tangency condition (the full
    five-variable pairing vanishes exactly at oriented contact)."""
    u, w = c1.u, c2.u
    return float(abs(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w)))


def circle_angle(c1: CircleCoords, c2: CircleCoords) -> complex:
    """Angle between oriented circles from the normalized four-component
    pairing.

    cos(angle) = -<u, w>_4 / (u5 w5); this is zero at right angles and
    the angle vanishes exactly at oriented tangency.  With unit-A
    normalizations and signed radii rho_i the formula reads
    (rho1^2 + rho2^2 - d^2) / (2 rho1 rho2), i.e. the elementary circle
    relation up to orientation conventions.  Disjoint nested circles
    yield |cos| > 1: the imaginary part of the returned angle (reported
    nonnegative to fix the branch) signals that no real angle exists.
    """
    if c1.is_point or c2.is_point:
        raise GeometryError("circle_angle is undefined for point circles")
    u, w = c1.u, c2.u
    cosv = -_b4(u, w) / (u[4] * w[4])
    angle = cmath.acos(cosv)
    if angle.imag < 0:
        angle = angle.conjugate()
    return angle


def lie_apply(m, c: CircleCoords) -> CircleCoords:
    """Apply a form-preserving 5x5 matrix to circle coordinates.

    The matrix must satisfy M^T M ~ I within 1e-9 (preservation of
    the five-variable form up to a factor); tangency of oriented
    circles is then preserved.
    """
    m = as_complex_array(m, "lie matrix")
    if m.shape != (5, 5):
        raise GeometryError("lie_apply expects a 5x5 matrix")
    _, resid = proportionality(m.T @ m, np.eye(5, dtype=complex))
    if resid > 1e-9:
        raise GeometryError("matrix does not preserve the five-variable form")
    return CircleCoords(m @ c.u)


def moebius_circle_matrix(m: MoebiusMap) -> np.ndarray:
    """The 4x4 form-preserving matrix acting on the first four circle
    coordinates exactly as the Moebius map acts on circles.

    Built by pushing the four basis circle equations through the exact
    Hermitian congruence; the result satisfies M^T M ~ I and embeds the
    planar inversive group into the circle-coordinate picture.
    """
    # parameter basis: (a, b, A, C) -> u is the complex-linear map L
    lmat = np.array([
        [1j, 0, 0, 0],
        [0, 1j, 0, 0],
        [0, 0, 0.5j, -0.5j],
        [0, 0, 0.5, 0.5],
    ], dtype=complex)
    # the conics [[A, 0, -a], [0, A, -b], [-a, -b, C]] of the basis
    # parameters, all circles or lines, so moebius_circles finds no fault
    a, b, aa, cc = np.eye(4)
    zero = np.zeros(4)
    conics = np.array([[aa, zero, -a], [zero, aa, -b], [-a, -b, cc]], dtype=complex)
    (images,), _ = moebius_circles(m.coeff_matrix[None], np.array([m.conjugating]),
                                   np.moveaxis(conics, -1, 0)[None])
    # column j: the parameters (a, b, A, C) of the image of basis circle j
    tmat = np.array([-images[:, 0, 2], -images[:, 1, 2], images[:, 0, 0], images[:, 2, 2]]).real
    out = lmat @ tmat @ np.linalg.inv(lmat)
    # the congruence scales the form by a positive factor; normalize it
    # away so out^T out = I and the matrix embeds into the 5x5 picture
    mu, _ = proportionality(out.T @ out, np.eye(4, dtype=complex))
    return out / np.sqrt(mu.real)


def random_pentaspherical_stack(seeds, n: int) -> np.ndarray:
    """The (B, n, n) stack of random_inversive_map (n = 4) or random_lie_map
    (n = 5) of each seed.

    Each seed draws from its own generator: an n x n normal matrix, whose
    antisymmetric part is exponentiated in O(3, n - 3), two reflection
    coins and a log-uniform factor in [1/4, 4].
    """
    rngs = rng_stack(seeds)
    normals = np.array([rng.normal(size=(n, n)) for rng in rngs]).reshape(-1, n, n)
    window = UniformWindow(rngs, 3)
    flips = window.take(None, 2) < 0.5
    factor = np.exp(uniform(np.log(0.25), np.log(4.0), window.take(None, 1)))
    m = _D[n] @ indefinite_orthogonal_stack(normals, flips, 3) @ _D_INV[n]
    return m * factor[:, :, None]


def random_inversive_map(seed: int) -> np.ndarray:
    """Seeded 4x4 matrix preserving the four-variable form up to a factor
    and mapping real circles to real circles."""
    return random_pentaspherical_stack([seed], 4)[0]


def random_lie_map(seed: int) -> np.ndarray:
    """Seeded 5x5 matrix preserving the five-variable form up to a factor
    and mapping real oriented circles to real oriented circles."""
    return random_pentaspherical_stack([seed], 5)[0]


def stereographic_circle_fit(points):
    """Least-squares circle/line through plane points: returns the real
    parameter vector (A, a, b, C) of A(x^2+y^2) - 2ax - 2by + C = 0 and
    the fit residual (smallest singular value of the design matrix)."""
    rows = []
    for z in points:
        z = as_extended(z)
        if z.infinite:
            # circles through infinity are exactly the lines (A = 0)
            rows.append([1.0, 0.0, 0.0, 0.0])
            continue
        x, y = z.value.real, z.value.imag
        rows.append([x * x + y * y, -2.0 * x, -2.0 * y, 1.0])
    a = np.array(rows)
    a = a / max(1.0, np.max(np.abs(a)))
    _, s, vh = np.linalg.svd(a)
    resid = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    params = vh[-1]
    return params, resid
