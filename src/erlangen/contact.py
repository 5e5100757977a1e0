"""Surface elements (x, y, z, p, q), the united-position relation
dz - p dx - q dy = 0, and numerical verification that a five-variable
substitution is a contact transformation, i.e. preserves that relation
up to a factor.

The same machinery, run on three variables with the form dy - p dx,
checks the line-element characterization of plane point-transformations.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import GeometryError, mix_seed, rng_stack
from .reports import ContactVerdict

__all__ = [
    "SurfaceElement",
    "LineElement2D",
    "FiveMap",
    "pfaffian_residual",
    "ContactVerdict",
    "is_contact_transformation",
    "line_element_check",
    "element_family_of_point",
    "element_family_of_surface",
    "legendre_map",
    "prolong_point_map",
    "prolong_plane_map",
    "swap_zp_map",
    "family_base_rank",
    "fit_plane",
]


@dataclass(frozen=True)
class SurfaceElement:
    """A space point with an attached tangent-plane direction."""

    x: float
    y: float
    z: float
    p: float
    q: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z, self.p, self.q):
            if not np.isfinite(v):
                raise GeometryError("SurfaceElement entries must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.p, self.q])


@dataclass(frozen=True)
class LineElement2D:
    """A plane point with an attached direction slope; vertical directions
    carry the extended-slope flag instead of a numeric slope."""

    x: float
    y: float
    p: float = 0.0
    vertical: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y) and np.isfinite(self.p)):
            raise GeometryError("LineElement2D entries must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.p])


class FiveMap:
    """Differentiable map on k-tuples (k = 5 for surface elements, 3 for
    line elements), with an analytic Jacobian callback or central
    differences at relative step ``fd_step`` (h_i = fd_step * (1+|v_i|)).

    The forward callback may raise or return non-finite values at
    isolated singularities; samplers skip such points.
    """

    def __init__(self, forward: Callable, jacobian: Optional[Callable] = None,
                 dim: int = 5, fd_step: float = 1e-6):
        self.forward = forward
        self.jacobian = jacobian
        self.dim = int(dim)
        self.fd_step = float(fd_step)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out = np.asarray(self.forward(np.asarray(v, dtype=float)), dtype=float)
        if out.shape != (self.dim,):
            raise GeometryError(f"map must return {self.dim}-vectors")
        return out

    def jacobian_at(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian(v), dtype=float)
            if jac.shape != (self.dim, self.dim):
                raise GeometryError("analytic jacobian has wrong shape")
            return jac
        jac = np.empty((self.dim, self.dim))
        for j in range(self.dim):
            h = self.fd_step * (1.0 + abs(v[j]))
            vp, vm = v.copy(), v.copy()
            vp[j] += h
            vm[j] -= h
            jac[:, j] = (self(vp) - self(vm)) / (2.0 * h)
        return jac

    def compose(self, other: "FiveMap") -> "FiveMap":
        if self.dim != other.dim:
            raise GeometryError("composition dimension mismatch")
        return FiveMap(lambda v: self(other(v)), None, self.dim,
                       min(self.fd_step, other.fd_step))


def pfaffian_residual(e: SurfaceElement, de) -> float:
    """dz - p dx - q dy for the displacement de = (dx, dy, dz, dp, dq)."""
    de = np.asarray(de, dtype=float)
    if de.shape != (5,):
        raise GeometryError("displacement must have five components")
    return float(de[2] - e.p * de[0] - e.q * de[1])


def _contact_covector(v: np.ndarray) -> np.ndarray:
    if v.size == 5:
        return np.array([-v[3], -v[4], 1.0, 0.0, 0.0])
    return np.array([-v[2], 1.0, 0.0])    # dy - p dx on (x, y, p)


_BLOCK = 64     # generators built at once, so memory does not grow with samples


def _sample_rngs(seed: int, samples: int):
    for start in range(0, samples, _BLOCK):
        yield from rng_stack([mix_seed(seed, i) for i in range(samples)[start:start + _BLOCK]])


def _alignment_check(m: FiveMap, seed: int, samples: int, tol: float) -> ContactVerdict:
    if samples < 10:
        raise ValueError("need at least 10 samples")
    used = 0
    failures = 0
    max_resid = 0.0
    factors = array("d")
    witness_pt = witness_res = None
    verdict = True
    for rng in _sample_rngs(seed, samples):
        v = rng.uniform(-1.0, 1.0, size=m.dim)
        try:
            image = m(v)
            jac = m.jacobian_at(v)
        except (ArithmeticError, ValueError, ZeroDivisionError, GeometryError):
            failures += 1
            continue
        if not (np.all(np.isfinite(image)) and np.all(np.isfinite(jac))):
            failures += 1
            continue
        pulled = jac.T @ _contact_covector(image)
        target = _contact_covector(v)
        denom = float(target @ target)
        rho = float(pulled @ target) / denom
        norm = np.linalg.norm(pulled)
        if norm < 1e-12:
            resid = 1.0
        else:
            resid = float(np.linalg.norm(pulled - rho * target) / norm)
        used += 1
        factors.append(rho)
        max_resid = max(max_resid, resid)
        if resid > tol and verdict:
            verdict = False
            witness_pt, witness_res = v, resid
    if failures > samples / 2:
        raise GeometryError("map evaluation failed on more than half the samples")
    return ContactVerdict(is_contact=verdict, samples_used=used,
                          max_residual=max_resid, tol=tol, seed=seed,
                          factors=factors, witness_point=witness_pt,
                          witness_residual=witness_res)


def is_contact_transformation(m: FiveMap, seed: int, samples: int,
                              tol: float = 1e-6) -> ContactVerdict:
    """Test preservation of dz - p dx - q dy up to a factor.

    At each sampled element the pullback J^T (dz' - p'dx' - q'dy') is
    compared for rank-1 alignment against (dz - p dx - q dy); the
    residual must stay below ``tol``.
    """
    if m.dim != 5:
        raise GeometryError("surface-element check needs a five-variable map")
    return _alignment_check(m, seed, samples, tol)


def line_element_check(m: FiveMap, seed: int, samples: int) -> ContactVerdict:
    """Test preservation of the plane form dy - p dx up to a factor (to
    1e-6); the prolongation of any invertible plane point map must pass."""
    if m.dim != 3:
        raise GeometryError("line-element check needs a three-variable map")
    return _alignment_check(m, seed, samples, 1e-6)


def element_family_of_point(pt, grid) -> list:
    """The elements through a fixed point: (x0, y0, z0, p, q) with (p, q)
    running over the grid (an int n gives an n x n grid on [-1, 1]^2, or
    pass an iterable of (p, q) pairs)."""
    x0, y0, z0 = (float(v) for v in pt)
    return [SurfaceElement(x0, y0, z0, p, q) for (p, q) in _pq_grid(grid)]


def element_family_of_surface(f: Callable, grid, fx: Optional[Callable] = None,
                              fy: Optional[Callable] = None) -> list:
    """The elements covering the graph z = f(x, y): (x, y, f, fx, fy) with
    derivatives from callbacks or central differences at relative step 1e-6."""
    out = []
    for (x, y) in _pq_grid(grid):
        z = float(f(x, y))
        if not np.isfinite(z):
            raise GeometryError(f"surface value not finite at {(x, y)}")
        if fx is not None and fy is not None:
            p, q = float(fx(x, y)), float(fy(x, y))
        else:
            hx = 1e-6 * (1.0 + abs(x))
            hy = 1e-6 * (1.0 + abs(y))
            p = (float(f(x + hx, y)) - float(f(x - hx, y))) / (2.0 * hx)
            q = (float(f(x, y + hy)) - float(f(x, y - hy))) / (2.0 * hy)
        out.append(SurfaceElement(x, y, z, p, q))
    return out


def _pq_grid(grid):
    if isinstance(grid, int):
        if grid < 1:
            raise GeometryError("grid must be nonempty")
        ticks = np.linspace(-1.0, 1.0, grid) if grid > 1 else np.array([0.0])
        return [(float(a), float(b)) for a in ticks for b in ticks]
    pairs = [(float(a), float(b)) for (a, b) in grid]
    if not pairs:
        raise GeometryError("grid must be nonempty")
    return pairs


def legendre_map() -> FiveMap:
    """The total polarity (x, y, z, p, q) -> (p, q, px + qy - z, x, y);
    it reverses the contact form (factor -1) and swaps points with planes."""

    def forward(v):
        x, y, z, p, q = v
        return np.array([p, q, p * x + q * y - z, x, y])

    def jacobian(v):
        x, y, z, p, q = v
        return np.array([
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            [p, q, -1.0, x, y],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
        ])

    return FiveMap(forward, jacobian, dim=5)


def swap_zp_map() -> FiveMap:
    """(x, y, z, p, q) -> (x, y, p, z, q): a five-variable substitution
    that is not a contact transformation (constructed counterexample)."""

    def forward(v):
        x, y, z, p, q = v
        return np.array([x, y, p, z, q])

    return FiveMap(forward, dim=5)


def prolong_point_map(f: Callable, jac: Callable, fd_step: float = 1e-6) -> FiveMap:
    """Prolong a space point transformation to surface elements.

    f maps 3-vectors to 3-vectors with 3x3 Jacobian callback jac; the
    image direction (p', q') solves the chain-rule system built from the
    total derivatives along a surface through the element.
    """

    def forward(v):
        x, y, z, p, q = v
        base = np.array([x, y, z])
        img = np.asarray(f(base), dtype=float)
        j = np.asarray(jac(base), dtype=float)
        # total derivatives D_x = d/dx + p d/dz, D_y = d/dy + q d/dz
        dx = j[:, 0] + p * j[:, 2]
        dy = j[:, 1] + q * j[:, 2]
        a = np.array([[dx[0], dx[1]], [dy[0], dy[1]]])
        rhs = np.array([dx[2], dy[2]])
        pq = np.linalg.solve(a, rhs)
        return np.array([img[0], img[1], img[2], pq[0], pq[1]])

    return FiveMap(forward, dim=5, fd_step=fd_step)


def prolong_plane_map(f: Callable, jac: Callable) -> FiveMap:
    """Prolong a plane point transformation to line elements (x, y, p)."""

    def forward(v):
        x, y, p = v
        base = np.array([x, y])
        img = np.asarray(f(base), dtype=float)
        j = np.asarray(jac(base), dtype=float)
        dxx = j[0, 0] + p * j[0, 1]
        dyx = j[1, 0] + p * j[1, 1]
        if abs(dxx) < 1e-14:
            raise GeometryError("image direction is vertical (extended slope)")
        return np.array([img[0], img[1], dyx / dxx])

    return FiveMap(forward, dim=3)


def family_base_rank(elements) -> int:
    """Dimension of the base-point cloud of an element family (principal
    components above 1e-8 of the largest, or of 1): 0 for a point, 1 for a
    curve, 2 for a surface.  This is the observable signature of the three
    classes of contact transformations."""
    pts = np.array([e.as_array()[:3] for e in elements])
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    scale = max(1.0, float(s[0]) if s.size else 1.0)
    return int(np.sum(s > 1e-8 * scale))


def fit_plane(points) -> tuple:
    """Least-squares plane a x + b y + c = z through 3-d points; returns
    ((a, b, c), max absolute residual)."""
    pts = np.asarray(points, dtype=float)
    a = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(a, pts[:, 2], rcond=None)
    resid = float(np.max(np.abs(a @ coef - pts[:, 2])))
    return tuple(coef), resid
