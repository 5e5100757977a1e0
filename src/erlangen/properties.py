"""Built-in property functionals and their configuration samplers.

Each property packages the functional handed to invariance_test together
with a matching configuration sampler.  Quantities are complex-valued;
relations (incidence, tangency, collinearity) are boolean-valued and are
compared by exact verdict equality before/after a transformation, since
properties in the group-theoretic sense include relations as well as
magnitudes.  A property raises PropertyUndefined on configurations
outside its domain (for example circle-specific functionals on conics
that are no longer circles); such trials are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import GeometryError, rng_from
from .projective import Hyperplane, ProjPoint, Quadric, cross_ratio, incident
from .groups import Configuration, PropertyUndefined
from .moebius import circle_quadric, circle_from_quadric
from .cayley_klein import (CKMetric, _sign_normalized, ck_distance, klein_disk_metric,
                           elliptic_metric)

__all__ = ["BuiltinProperty", "builtin_property", "PROPERTY_NAMES"]

PROPERTY_NAMES = (
    "euclidean-distance",
    "angle",
    "cross-ratio",
    "incidence",
    "tangency",
    "collinearity",
    "ck-distance",
)


@dataclass(frozen=True)
class BuiltinProperty:
    name: str
    evaluate: Callable[[Configuration], object]
    sample_config: Callable[[int], Configuration]
    boolean: bool


def _affine(p: ProjPoint) -> np.ndarray:
    v = p.normalized()
    if abs(v[-1]) < 1e-10:
        raise PropertyUndefined("point at infinity")
    return (v / v[-1])[:-1]


def _point(coords) -> ProjPoint:
    return ProjPoint(list(coords) + [1.0])


def _sampler_points(count: int, dimension: int):
    def sample(seed: int) -> Configuration:
        rng = rng_from(seed)
        return Configuration([_point(rng.uniform(-1, 1, dimension))
                              for _ in range(count)])
    return sample


def _euclidean_distance(c: Configuration):
    if len(c) < 2:
        raise PropertyUndefined("needs two points")
    a, b = _affine(c[0]), _affine(c[1])
    return complex(np.sqrt(complex((a - b) @ (a - b))))


def _angle_at_vertex(c: Configuration):
    if len(c) < 3:
        raise PropertyUndefined("needs three points")
    o, a, b = (_affine(p) for p in c.elements[:3])
    u, v = a - o, b - o
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        raise PropertyUndefined("degenerate ray")
    cosv = complex(u @ v) / (nu * nv)
    return complex(np.arccos(np.clip(cosv.real, -1.0, 1.0)))


def _sampler_collinear_quadruple(dimension: int):
    def sample(seed: int) -> Configuration:
        rng = rng_from(seed)
        base = rng.uniform(-1, 1, dimension)
        direction = rng.uniform(-1, 1, dimension)
        direction /= np.linalg.norm(direction)
        while True:
            ts = rng.uniform(-2, 2, 4)
            if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) > 0.05:
                break
        return Configuration([_point(base + t * direction) for t in ts])
    return sample


def _cross_ratio_prop(c: Configuration):
    if len(c) < 4:
        raise PropertyUndefined("needs four points")
    try:
        return cross_ratio(*c.elements[:4])
    except GeometryError:
        raise PropertyUndefined("points not collinear") from None


def _sampler_incidence(dimension: int):
    def sample(seed: int) -> Configuration:
        rng = rng_from(seed)
        coeffs = rng.uniform(-1, 1, dimension + 1)
        h = Hyperplane(coeffs)
        if rng.random() < 0.5:
            # construct an incident point inside the hyperplane
            basis = np.eye(dimension + 1)
            k = int(np.argmax(np.abs(coeffs)))
            vecs = [basis[:, i] - (coeffs[i] / coeffs[k]) * basis[:, k]
                    for i in range(dimension + 1) if i != k]
            weights = rng.uniform(-1, 1, len(vecs))
            pt = ProjPoint(sum(w * v for w, v in zip(weights, vecs)))
        else:
            pt = _point(rng.uniform(-1, 1, dimension))
        return Configuration([pt, h])
    return sample


def _incidence_prop(c: Configuration):
    pt = next((e for e in c if isinstance(e, ProjPoint)), None)
    h = next((e for e in c if isinstance(e, Hyperplane)), None)
    if pt is None or h is None:
        raise PropertyUndefined("needs a point and a hyperplane")
    return incident(pt, h, 1e-8)


def _sampler_circle_pair(seed: int) -> Configuration:
    rng = rng_from(seed)
    c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    r1 = rng.uniform(0.3, 1.2)
    if rng.random() < 0.5:
        # externally tangent companion
        theta = rng.uniform(0, 2 * np.pi)
        r2 = rng.uniform(0.3, 1.2)
        c2 = c1 + (r1 + r2) * np.exp(1j * theta)
    else:
        while True:
            c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r2 = rng.uniform(0.3, 1.2)
            d = abs(c2 - c1)
            # keep decidedly away from tangency so the verdict is stable
            if min(abs(d - (r1 + r2)), abs(d - abs(r1 - r2))) > 0.05:
                break
    return Configuration([circle_quadric(c1, r1), circle_quadric(c2, r2)])


def _tangency_prop(c: Configuration):
    quads = [e for e in c if isinstance(e, Quadric)]
    if len(quads) < 2:
        raise PropertyUndefined("needs two circles")
    try:
        circles = [circle_from_quadric(q) for q in quads[:2]]
    except GeometryError:
        raise PropertyUndefined("conic is not a circle") from None
    (a1, x1, y1, c1), (a2, x2, y2, c2) = circles
    if abs(a1) < 1e-10 or abs(a2) < 1e-10:
        raise PropertyUndefined("line encountered")
    x1, y1, c1 = x1 / a1, y1 / a1, c1 / a1
    x2, y2, c2 = x2 / a2, y2 / a2, c2 / a2
    r1s = x1 * x1 + y1 * y1 - c1
    r2s = x2 * x2 + y2 * y2 - c2
    if r1s <= 0 or r2s <= 0:
        raise PropertyUndefined("imaginary circle")
    r1, r2 = np.sqrt(r1s), np.sqrt(r2s)
    d = np.hypot(x1 - x2, y1 - y2)
    scale = max(r1, r2, d)
    return bool(min(abs(d - (r1 + r2)), abs(d - abs(r1 - r2))) < 1e-7 * max(1.0, scale))


def _sampler_triple_maybe_collinear(dimension: int):
    def sample(seed: int) -> Configuration:
        rng = rng_from(seed)
        if rng.random() < 0.5:
            base = rng.uniform(-1, 1, dimension)
            direction = rng.uniform(-1, 1, dimension)
            ts = rng.uniform(-1.5, 1.5, 2)
            pts = [base, base + ts[0] * direction, base + ts[1] * direction]
        else:
            pts = [rng.uniform(-1, 1, dimension) for _ in range(3)]
        return Configuration([_point(p) for p in pts])
    return sample


def _collinearity_prop(c: Configuration):
    if len(c) < 3:
        raise PropertyUndefined("needs three points")
    stack = np.array([p.coords for p in c.elements[:3]])
    stack = stack / np.max(np.abs(stack))
    s = np.linalg.svd(stack, compute_uv=False)
    return bool(s[2] < 1e-8 * s[0])


def _ck_distance_prop(metric: CKMetric):
    def evaluate(c: Configuration):
        if len(c) < 2:
            raise PropertyUndefined("needs two points")
        try:
            # the value is defined up to sign: the labels of the two points
            # on the absolute follow a lexicographic rule, which a map can swap
            return _sign_normalized(ck_distance(c[0], c[1], metric))
        except GeometryError:
            raise PropertyUndefined("outside the metric domain") from None
    return evaluate


def _sampler_disk_pair(seed: int) -> Configuration:
    rng = rng_from(seed)
    pts = []
    while len(pts) < 2:
        p = rng.uniform(-1, 1, 2)
        if np.linalg.norm(p) < 0.9:
            pts.append(p)
    return Configuration([_point(p) for p in pts])


def builtin_property(name: str, dimension: int = 2,
                     metric: Optional[str] = None) -> BuiltinProperty:
    """Look up a named property functional with its configuration sampler.

    ``ck-distance`` requires a metric parameter ('klein-disk' or
    'elliptic'); every other property rejects one.
    """
    if name != "ck-distance" and metric is not None:
        raise GeometryError(f"property {name!r} takes no metric parameter")
    if name == "euclidean-distance":
        return BuiltinProperty(name, _euclidean_distance,
                               _sampler_points(2, dimension), False)
    if name == "angle":
        return BuiltinProperty(name, _angle_at_vertex,
                               _sampler_points(3, dimension), False)
    if name == "cross-ratio":
        return BuiltinProperty(name, _cross_ratio_prop,
                               _sampler_collinear_quadruple(dimension), False)
    if name == "incidence":
        return BuiltinProperty(name, _incidence_prop,
                               _sampler_incidence(dimension), True)
    if name == "tangency":
        if dimension != 2:
            raise GeometryError("tangency is a plane property")
        return BuiltinProperty(name, _tangency_prop, _sampler_circle_pair, True)
    if name == "collinearity":
        return BuiltinProperty(name, _collinearity_prop,
                               _sampler_triple_maybe_collinear(dimension), True)
    if name == "ck-distance":
        if metric is None:
            raise GeometryError("ck-distance requires a metric parameter")
        if metric == "klein-disk":
            return BuiltinProperty(name, _ck_distance_prop(klein_disk_metric()),
                                   _sampler_disk_pair, False)
        if metric == "elliptic":
            return BuiltinProperty(name, _ck_distance_prop(elliptic_metric()),
                                   _sampler_points(2, 2), False)
        raise GeometryError(f"unknown metric {metric!r}")
    raise GeometryError(f"unknown property: {name}")
