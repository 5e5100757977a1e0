"""Homogeneous-coordinate linear algebra over complex scalars.

Points, hyperplanes, quadrics and projective maps are all coordinate
vectors/matrices identified up to a nonzero complex scale.  Equality up
to scale is decided by normalizing to the largest-magnitude coordinate
and comparing with relative tolerance (1e-10 unless a call-site says
otherwise).  Points "at infinity" need no special casing: everything is
homogeneous, and affine charts are explicit where used.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    GeometryError,
    as_complex_array,
    complex_abs,
    complex_product,
    equal_up_to_scale,
    lex_key,
    normalize_leading,
    row_dot,
    row_norm,
)

__all__ = [
    "GeometryError",
    "DimensionMismatch",
    "GeneratorChord",
    "ProjPoint",
    "Hyperplane",
    "Quadric",
    "ProjMap",
    "PROJMAP_FAULTS",
    "projmap_faults",
    "map_points",
    "map_hyperplanes",
    "map_quadrics",
    "coords_faulty",
    "CROSS_RATIO_FAULTS",
    "cross_ratio",
    "cross_ratio_stack",
    "line_quadric_intersections",
    "ChordIntersections",
    "on_quadric",
    "incident",
    "incident_stack",
    "meet_point",
]


class GeneratorChord(GeometryError):
    """The whole line lies in the quadric; chord data is indeterminate."""


class ProjPoint:
    """Point of P^n: n+1 complex homogeneous coordinates, not all zero."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = as_complex_array(coords, "ProjPoint")
        if arr.ndim != 1 or arr.size < 2:
            raise GeometryError("ProjPoint needs a 1-d vector of length >= 2")
        if float(np.max(np.abs(arr))) == 0.0:
            raise GeometryError("ProjPoint coordinates must not all vanish")
        self.coords = arr

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    def normalized(self) -> np.ndarray:
        return normalize_leading(self.coords)

    def equals(self, other: "ProjPoint", tol: float = DEFAULT_TOL) -> bool:
        return equal_up_to_scale(self.coords, other.coords, tol)

    def __repr__(self):
        inner = ":".join(repr(z) for z in self.coords)
        return f"ProjPoint({inner})"


class Hyperplane:
    """Hyperplane of P^n given by its dual coefficient vector, up to scale."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = as_complex_array(coeffs, "Hyperplane")
        if arr.ndim != 1 or arr.size < 2:
            raise GeometryError("Hyperplane needs a 1-d vector of length >= 2")
        if float(np.max(np.abs(arr))) == 0.0:
            raise GeometryError("Hyperplane coefficients must not all vanish")
        self.coeffs = arr

    @property
    def dim(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        inner = ",".join(repr(z) for z in self.coeffs)
        return f"Hyperplane({inner})"


class Quadric:
    """Quadric hypersurface x^T M x = 0 with M symmetric, up to scale.

    The matrix must be exactly symmetric; symmetrize a computed matrix,
    (M + M^T) / 2, before construction.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = as_complex_array(matrix, "Quadric")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise GeometryError("Quadric needs a square matrix of size >= 2")
        if not np.array_equal(arr, arr.T):
            raise GeometryError("Quadric matrix must be exactly symmetric")
        if float(np.max(np.abs(arr))) == 0.0:
            raise GeometryError("Quadric matrix must not vanish")
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 1

    def __repr__(self):
        return f"Quadric({self.matrix.tolist()!r})"


#: messages of the value checks of ProjMap.__init__, indexed by the codes
#: projmap_faults returns (0: passed)
PROJMAP_FAULTS = ("", "ProjMap: non-finite entries", "ProjMap matrix must not vanish",
                  "ProjMap matrix is (numerically) singular")


class ProjMap:
    """Projectivity of P^n given by an invertible matrix, up to scale; its
    checks and actions are batches of one of projmap_faults and map_*."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = as_complex_array(matrix, "ProjMap")
        fault = projmap_faults(arr[None])[0]
        if fault:
            raise GeometryError(PROJMAP_FAULTS[fault])
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 1

    def inverse(self) -> "ProjMap":
        return ProjMap(np.linalg.inv(self.matrix))

    def apply(self, p: ProjPoint) -> ProjPoint:
        """Image point: matrix-vector product, renormalized to unit
        max-magnitude (phase preserved) so chained maps stay conditioned."""
        if p.dim != self.dim:
            raise DimensionMismatch(f"map on P^{self.dim} applied to P^{p.dim} point")
        return ProjPoint(map_points(self.matrix[None], p.coords[None, None])[0, 0])

    def apply_hyperplane(self, h: Hyperplane) -> Hyperplane:
        """Image hyperplane: coefficients transform by the inverse transpose."""
        if h.dim != self.dim:
            raise DimensionMismatch("hyperplane dimension mismatch")
        inverse = np.linalg.inv(self.matrix)[None]
        return Hyperplane(map_hyperplanes(inverse, h.coeffs[None, None])[0, 0])

    def apply_quadric(self, q: Quadric) -> Quadric:
        """Image quadric M^{-T} Q M^{-1} (so image points satisfy it)."""
        if q.dim != self.dim:
            raise DimensionMismatch("quadric dimension mismatch")
        inverse = np.linalg.inv(self.matrix)[None]
        return Quadric(map_quadrics(inverse, q.matrix[None, None])[0, 0])


def projmap_faults(stack: np.ndarray) -> np.ndarray:
    """The checks of ProjMap.__init__ on a (B, n, n) complex stack at once.

    Entry b is the index in PROJMAP_FAULTS of the first check stack[b]
    fails, or 0; ProjMap(stack[b]) raises GeometryError with that message.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 2:
        raise GeometryError("ProjMap needs a square matrix of size >= 2")
    finite = np.isfinite(stack).all(axis=(1, 2))
    scale = np.max(np.abs(stack), axis=(1, 2))
    ok = finite & (scale != 0.0)
    faults = np.zeros(len(stack), dtype=np.int8)
    if not ok.all():
        faults[~ok] = np.where(finite[~ok], 2, 1)
        # det sees the identity in place of a matrix that failed already
        stack = np.where(ok[:, None, None], stack, np.eye(stack.shape[1]))
        scale = np.where(ok, scale, 1.0)
    faults[np.abs(np.linalg.det(stack / scale[:, None, None])) <= 1e-12] = 3
    return faults


def map_points(matrices: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """ProjMap.apply on stacks: row [b, j] of the result holds the
    coordinates of ProjMap(matrices[b]).apply(ProjPoint(coords[b, j])),
    for (B, n, n) matrices and (B, k, n) coordinates.  A row that ProjPoint
    would refuse comes back non-finite or zero (see coords_faulty)."""
    out = (matrices[:, None] @ coords[..., None])[..., 0]
    return out / np.max(np.abs(out), axis=-1, keepdims=True)


def map_hyperplanes(inverses: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """ProjMap.apply_hyperplane on stacks, given the (B, n, n) inverses of
    the maps' matrices."""
    return map_points(inverses.transpose(0, 2, 1), coeffs)


def map_quadrics(inverses: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """ProjMap.apply_quadric on stacks: the symmetrized M^-T Q M^-1 of
    each of the (B, q, n, n) quadric matrices of row b, given the (B, n, n)
    inverses M^-1 of the maps' matrices.  A matrix that Quadric would
    refuse comes back non-finite or zero."""
    inv = inverses[:, None]
    out = inv.swapaxes(-1, -2) @ matrices @ inv
    return (out + out.swapaxes(-1, -2)) / 2.0


def coords_faulty(coords: np.ndarray) -> np.ndarray:
    """Mask of the rows (last axis) of a coordinate stack that ProjPoint
    and Hyperplane refuse: non-finite, or all zero."""
    # NaN propagates through the max, and a zero or infinite max fails too
    m = np.max(np.abs(coords), axis=-1, initial=0.0)
    return ~((m > 0.0) & (m < np.inf))


#: messages of the errors cross_ratio raises, indexed by the codes
#: cross_ratio_stack returns (0: no error)
CROSS_RATIO_FAULTS = ("", "cross-ratio requires collinear points",
                      "cross-ratio is indeterminate (0/0 coincidence)",
                      "cross-ratio is infinite for this coincidence")


def cross_ratio_stack(coords: np.ndarray):
    """cross_ratio of each quadruple in a (B, 4, n+1) stack of point
    coordinates: the (B,) values, and the (B,) indices in
    CROSS_RATIO_FAULTS of the error cross_ratio raises (0: none).

    The points' projective parameters (alpha_i : beta_i) on their common
    line come from the SVD of the scaled coordinate matrix, which must
    have numerical rank 2.
    """
    stack = coords / np.max(np.abs(coords), axis=(1, 2), keepdims=True)
    _, s, vh = np.linalg.svd(stack)
    # projective parameters (alpha : beta) of the points on their line
    a, b = ((stack @ np.conj(vh[:, k])[..., None])[..., 0] for k in (0, 1))
    # the brackets [02], [13], [03], [12], then num = [02][13], den = [03][12]
    i, j = [0, 1, 0, 1], [2, 3, 3, 2]
    brackets = complex_product(a[:, i], b[:, j]) - complex_product(a[:, j], b[:, i])
    num, den = complex_product(brackets[:, 0::2], brackets[:, 1::2]).T
    abs_num, abs_den = complex_abs(num), complex_abs(den)
    m = np.where(abs_den > abs_num, abs_den, abs_num)
    faults = np.where(m == 0.0, 2, np.where(abs_den < 1e-14 * m, 3, 0))
    if s.shape[-1] > 2:
        faults[s[:, 2] > 1e-10 * s[:, 0] * 100] = 1
    return num / np.where(faults == 0, den, 1.0), faults


def cross_ratio(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint, p4: ProjPoint) -> complex:
    """Cross-ratio of four collinear points.

    Convention (fixed package-wide): with affine parameters t_i on the
    common line, CR = ((t1-t3)(t2-t4)) / ((t1-t4)(t2-t3)); computed via
    2x2 determinants of projective parameters, so parameter infinity is
    unexceptional.
    """
    pts = (p1, p2, p3, p4)
    dims = {p.dim for p in pts}
    if len(dims) != 1:
        raise DimensionMismatch("cross-ratio points live in different spaces")
    values, faults = cross_ratio_stack(np.array([[p.coords for p in pts]]))
    if faults[0]:
        raise GeometryError(CROSS_RATIO_FAULTS[faults[0]])
    return complex(values[0])


class ChordIntersections(NamedTuple):
    first: ProjPoint
    second: ProjPoint
    tangent: bool


def line_quadric_intersections(a: ProjPoint, b: ProjPoint, q: Quadric) -> ChordIntersections:
    """Both intersections of the line a-b with a quadric.

    Solves the quadratic q(s*a + t*b) = 0 in the projective parameter
    (s:t).  A double root (relative discriminant below 1e-12) is returned
    twice with the tangent flag set.  A line lying entirely in the quadric
    raises GeneratorChord.  The two points are labeled deterministically
    (lexicographic on normalized coordinates).
    """
    if a.dim != b.dim or a.dim != q.dim:
        raise DimensionMismatch("line/quadric dimension mismatch")
    if a.equals(b):
        raise GeometryError("chord endpoints coincide")
    av = a.coords / np.max(np.abs(a.coords))
    bv = b.coords / np.max(np.abs(b.coords))
    qm = q.matrix / np.max(np.abs(q.matrix))
    qa = complex(av @ qm @ av)
    qb = complex(bv @ qm @ bv)
    qab = complex(av @ qm @ bv)
    scale = max(abs(qa), abs(qb), abs(qab))
    if scale <= 1e-10:
        raise GeneratorChord("line lies in the quadric (generator)")
    # roots of qa*s^2 + 2*qab*s*t + qb*t^2 = 0 as (s:t) pairs
    disc = qab * qab - qa * qb
    if abs(disc) <= 1e-12 * scale * scale:
        reps = [(-qab, qa), (qb, -qab)]
        s, t = max(reps, key=lambda r: abs(r[0]) + abs(r[1]))
        x = ProjPoint(s * av + t * bv)
        return ChordIntersections(x, x, True)
    root = np.sqrt(disc)
    pairs = []
    for sgn in (+1.0, -1.0):
        reps = [(-qab + sgn * root, qa), (qb, -qab - sgn * root)]
        s, t = max(reps, key=lambda r: abs(r[0]) + abs(r[1]))
        pairs.append(ProjPoint(s * av + t * bv))
    pairs.sort(key=lambda p: lex_key(p.coords))
    return ChordIntersections(pairs[0], pairs[1], False)


def on_quadric(p: ProjPoint, q: Quadric, tol: float = DEFAULT_TOL) -> bool:
    """Scale-free incidence test |p^T Q p| / (||Q|| ||p||^2) < tol."""
    if p.dim != q.dim:
        raise DimensionMismatch("point/quadric dimension mismatch")
    val = abs(p.coords @ q.matrix @ p.coords)
    denom = np.linalg.norm(q.matrix) * np.linalg.norm(p.coords) ** 2
    return bool(val / denom < tol)


def incident(p: ProjPoint, h: Hyperplane, tol: float = DEFAULT_TOL) -> bool:
    """Scale-free incidence test |<h, p>| / (||h|| ||p||) < tol."""
    if p.dim != h.dim:
        raise DimensionMismatch("point/hyperplane dimension mismatch")
    return bool(incident_stack(p.coords[None], h.coeffs[None], tol)[0])


def incident_stack(points: np.ndarray, hyperplanes: np.ndarray,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """incident on each pair of rows of a (B, n+1) point stack and a
    (B, n+1) hyperplane stack."""
    val = complex_abs(row_dot(hyperplanes, points))
    return val / (row_norm(hyperplanes) * row_norm(points)) < tol


def meet_point(g: Hyperplane, h: Hyperplane) -> ProjPoint:
    """Intersection point of two plane lines (P^2 only)."""
    if g.dim != 2 or h.dim != 2:
        raise DimensionMismatch("meet_point is a P^2 operation")
    return ProjPoint(np.cross(g.coeffs, h.coeffs))
