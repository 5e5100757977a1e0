"""Built-in property functionals and their configuration samplers.

Each property packages the functional handed to invariance_test together
with a matching configuration sampler.  Quantities are complex-valued;
relations (incidence, tangency, collinearity) are boolean-valued and are
compared by exact verdict equality before/after a transformation, since
properties in the group-theoretic sense include relations as well as
magnitudes.  A property raises PropertyUndefined on configurations
outside its domain (for example circle-specific functionals on conics
that are no longer circles); such trials are skipped.

Euclidean distance, angle, cross-ratio, incidence, tangency and
collinearity are written once, for stacks: each functional is a
Functional and each sampler a Sampler, whose scalar calls are batches of
one, and invariance_test runs them a block of trials at a time.  The
stacked steps round as the scalar ones did (numerics.complex_product and
friends), so values and verdicts are bit for bit those of the former
scalar bodies.  ck-distance is sampled by a Sampler too, so
invariance_test samples and maps its configurations on stacks, but it is
evaluated per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import GeometryError, complex_abs, rng_from, row_dot, row_norm
from .projective import Hyperplane, ProjPoint, Quadric, cross_ratio_stack, incident_stack
from .groups import Configuration, PropertyUndefined
from .moebius import circle_matrix, circle_parameters
from .cayley_klein import (CKMetric, _sign_normalized, ck_distance, klein_disk_metric,
                           elliptic_metric)
from .names import PROPERTY_NAMES

__all__ = ["BuiltinProperty", "Functional", "Sampler", "builtin_property", "PROPERTY_NAMES"]


@dataclass(frozen=True)
class BuiltinProperty:
    name: str
    evaluate: Callable[[Configuration], object]
    sample_config: Callable[[int], Configuration]
    boolean: bool


class Functional:
    """A property functional written once, for stacks of configurations.

    ``evaluate_stacks(points, hyperplanes, quadrics)`` takes the
    (B, k, n+1) point and (B, h, n+1) hyperplane coordinate stacks and the
    (B, q, n+1, n+1) quadric matrix stack of B configurations and returns
    their (B,) values, complex or bool, and (B,) codes: 0 where the value
    is defined, else the index in ``reasons`` of why it is not.  The
    functional reads a configuration's points, hyperplanes and quadrics,
    each in order.  Called on one Configuration it is the batch of one: it
    returns the value as a Python complex or bool, or raises
    PropertyUndefined.  invariance_test evaluates whole blocks of trials
    through ``evaluate_stacks``.
    """

    def __init__(self, evaluate_stacks, reasons):
        self.evaluate_stacks = evaluate_stacks
        self.reasons = reasons

    def __call__(self, c: Configuration):
        values, undefined = self.evaluate_stacks(*_stacks(c))
        if undefined[0]:
            raise PropertyUndefined(self.reasons[undefined[0]])
        return values.tolist()[0]


class Sampler:
    """A configuration sampler written once, for stacks of seeds.

    ``draw(rng)`` makes one configuration's draws on its generator and
    returns its point and hyperplane coordinate rows, (k, n+1) and
    (h, n+1), and its quadric matrices, (q, n+1, n+1), as arrays or
    sequences of them.
    ``sample_stacks(seeds)`` draws one configuration per seed, each from
    its own ``rng_from(seed)``, and stacks them as (B, k, n+1) point,
    (B, h, n+1) hyperplane and (B, q, n+1, n+1) quadric arrays.  Called on
    one seed it is the batch of one and returns the Configuration of the
    points, then the hyperplanes, then the quadrics (``configuration`` of
    its rows).
    """

    def __init__(self, dimension: int, draw):
        self.dimension = dimension
        self.draw = draw

    def sample_stacks(self, seeds):
        rows = [self.draw(rng_from(seed)) for seed in seeds]
        m = self.dimension + 1
        return tuple(np.array([r[j] for r in rows], dtype=complex)
                     .reshape((len(rows), len(rows[0][j])) + shape) if len(rows[0][j])
                     else np.empty((len(rows), 0) + shape, dtype=complex)
                     for j, shape in enumerate(((m,), (m,), (m, m))))

    def __call__(self, seed: int) -> Configuration:
        return self.configuration(*(x[0] for x in self.sample_stacks([seed])))

    @staticmethod
    def configuration(points: np.ndarray, hyperplanes: np.ndarray,
                      quadrics: np.ndarray) -> Configuration:
        """The Configuration of one configuration's rows."""
        return Configuration([ProjPoint(p) for p in points] + [Hyperplane(h) for h in hyperplanes]
                             + [Quadric(q) for q in quadrics])


_NO_ROWS = np.empty((0, 0))
_NO_QUADRICS = np.empty((0, 0, 0))


def _stacks(c: Configuration):
    """The point, hyperplane and quadric stacks of one configuration.
    Points and hyperplanes must share one space, and so must quadrics."""
    points = [e.coords for e in c if isinstance(e, ProjPoint)]
    hyperplanes = [e.coeffs for e in c if isinstance(e, Hyperplane)]
    quadrics = [e.matrix for e in c if isinstance(e, Quadric)]
    sizes = {v.size for v in points + hyperplanes}
    quadric_sizes = {len(m) for m in quadrics}
    if len(sizes) > 1 or len(quadric_sizes) > 1:
        raise PropertyUndefined("elements live in different spaces")
    n = sizes.pop() if sizes else 0
    k = quadric_sizes.pop() if quadric_sizes else 0
    return (np.array(points, dtype=complex).reshape(1, len(points), n),
            np.array(hyperplanes, dtype=complex).reshape(1, len(hyperplanes), n),
            np.array(quadrics, dtype=complex).reshape(1, len(quadrics), k, k))


# why a property is undefined, indexed by the codes of its evaluate_stacks
_DISTANCE_REASONS = ("", "needs two points", "point at infinity")
_ANGLE_REASONS = ("", "needs three points", "point at infinity", "degenerate ray")
_CROSS_RATIO_REASONS = ("", "needs four points", "points not collinear")
_INCIDENCE_REASONS = ("", "needs a point and a hyperplane")
_COLLINEARITY_REASONS = ("", "needs three points", "all points of P^1 are collinear")
_TANGENCY_REASONS = ("", "needs two circles", "conic is not a circle", "line encountered",
                     "imaginary circle")


def _undefined(points: np.ndarray, code: int, dtype=complex):
    b = len(points)
    return np.zeros(b, dtype=dtype), np.full(b, code, dtype=np.int8)


def _affine(points: np.ndarray):
    """Affine coordinates of a stack of point rows (last axis), and the
    mask of the points at infinity, whose coordinates are meaningless."""
    m = points.shape[-1]
    # each row divided by its largest-magnitude entry, then by its last one
    lead = points[np.eye(m, dtype=bool)[np.argmax(np.abs(points), axis=-1)]]
    v = points / lead.reshape(points.shape[:-1] + (1,))
    last = v[..., -1:]
    at_infinity = complex_abs(last[..., 0]) < 1e-10
    if at_infinity.any():
        last = np.where(at_infinity[..., None], 1.0, last)
    return (v / last)[..., :-1], at_infinity


def _homogeneous(coords: np.ndarray) -> np.ndarray:
    """Rows of affine coordinates with a last coordinate 1 appended."""
    out = np.ones(coords.shape[:-1] + (coords.shape[-1] + 1,))
    out[..., :-1] = coords
    return out


def _points_draw(count: int, dimension: int):
    def draw(rng):
        return _homogeneous(rng.uniform(-1, 1, (count, dimension))), _NO_ROWS, _NO_QUADRICS
    return draw


def _euclidean_distance(points, hyperplanes, quadrics):
    if points.shape[1] < 2:
        return _undefined(points, 1)
    affine, at_infinity = _affine(points[:, :2])
    d = affine[:, 0] - affine[:, 1]
    return np.sqrt(row_dot(d, d)), np.where(at_infinity.any(axis=1), 2, 0)


def _angle_at_vertex(points, hyperplanes, quadrics):
    if points.shape[1] < 3:
        return _undefined(points, 1)
    affine, at_infinity = _affine(points[:, :3])
    rays = affine[:, 1:] - affine[:, :1]
    norms = row_norm(rays)
    degenerate = (norms < 1e-12).any(axis=1)
    cosv = row_dot(rays[:, 0], rays[:, 1]).real / np.where(degenerate, 1.0,
                                                          norms[:, 0] * norms[:, 1])
    undefined = np.where(at_infinity.any(axis=1), 2, np.where(degenerate, 3, 0))
    return np.arccos(np.clip(cosv, -1.0, 1.0)).astype(complex), undefined


def _collinear_quadruple_draw(dimension: int):
    def draw(rng):
        # one draw of 2d numbers takes the same stream as two of d
        base, direction = rng.uniform(-1, 1, (2, dimension))
        # np.linalg.norm of a real vector, without its dispatch
        direction /= np.sqrt(direction.dot(direction))
        while True:
            ts = rng.uniform(-2, 2, 4)
            # the closest pair of parameters is a neighbouring pair in order
            t = sorted(ts.tolist())
            if min(t[1] - t[0], t[2] - t[1], t[3] - t[2]) > 0.05:
                break
        return _homogeneous(base + ts[:, None] * direction), _NO_ROWS, _NO_QUADRICS
    return draw


def _cross_ratio_prop(points, hyperplanes, quadrics):
    if points.shape[1] < 4:
        return _undefined(points, 1)
    values, faults = cross_ratio_stack(points[:, :4])
    return values, np.where(faults != 0, 2, 0)


def _incidence_draw(dimension: int):
    def draw(rng):
        coeffs = rng.uniform(-1, 1, dimension + 1)
        if rng.random() < 0.5:
            # construct an incident point inside the hyperplane
            basis = np.eye(dimension + 1)
            k = int(np.argmax(np.abs(coeffs)))
            vecs = [basis[:, i] - (coeffs[i] / coeffs[k]) * basis[:, k]
                    for i in range(dimension + 1) if i != k]
            weights = rng.uniform(-1, 1, len(vecs))
            pt = sum(w * v for w, v in zip(weights, vecs))
        else:
            pt = _homogeneous(rng.uniform(-1, 1, dimension))
        return pt[None], coeffs[None], _NO_QUADRICS
    return draw


def _incidence_prop(points, hyperplanes, quadrics):
    if points.shape[1] < 1 or hyperplanes.shape[1] < 1:
        return _undefined(points, 1, bool)
    return incident_stack(points[:, 0], hyperplanes[:, 0], 1e-8), np.zeros(len(points), np.int8)


def _circle_pair_draw(rng):
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
    return _NO_ROWS, _NO_ROWS, [circle_matrix(c1, r1), circle_matrix(c2, r2)]


def _tangency(points, hyperplanes, quadrics):
    """Whether the first two circles of each configuration touch, inside or
    outside, to 1e-7 times the largest of 1, their radii and the distance
    of their centres."""
    if quadrics.shape[1] < 2:
        return _undefined(quadrics, 1, bool)
    if quadrics.shape[-1] != 3:
        return _undefined(quadrics, 2, bool)
    (a, x, y, c), faults = circle_parameters(quadrics[:, :2])
    line = (np.abs(a) < 1e-10).any(axis=1)
    a = np.where(line[:, None], 1.0, a)
    x, y, c = x / a, y / a, c / a
    squares = x * x + y * y - c
    imaginary = (squares <= 0).any(axis=1)
    r1, r2 = np.sqrt(np.where(squares <= 0, 1.0, squares)).T
    d = np.hypot(x[:, 0] - x[:, 1], y[:, 0] - y[:, 1])
    # the parameters of a max-normalized conic with |A| >= 1e-10 keep all of
    # these finite, so no NaN can make np.maximum differ from Python's max
    scale = np.maximum(np.maximum(r1, r2), d)
    gap = np.minimum(np.abs(d - (r1 + r2)), np.abs(d - np.abs(r1 - r2)))
    undefined = np.where(faults.any(axis=1), 2, np.where(line, 3, np.where(imaginary, 4, 0)))
    return gap < 1e-7 * np.maximum(1.0, scale), undefined.astype(np.int8)


def _triple_maybe_collinear_draw(dimension: int):
    def draw(rng):
        if rng.random() < 0.5:
            base, direction = rng.uniform(-1, 1, (2, dimension))
            ts = rng.uniform(-1.5, 1.5, 2)
            pts = np.array([base, base + ts[0] * direction, base + ts[1] * direction])
        else:
            pts = rng.uniform(-1, 1, (3, dimension))
        return _homogeneous(pts), _NO_ROWS, _NO_QUADRICS
    return draw


def _collinearity_prop(points, hyperplanes, quadrics):
    if points.shape[1] < 3:
        return _undefined(points, 1, bool)
    if points.shape[2] < 3:
        return _undefined(points, 2, bool)
    stack = points[:, :3]
    stack = stack / np.max(np.abs(stack), axis=(1, 2), keepdims=True)
    s = np.linalg.svd(stack, compute_uv=False)
    return s[:, 2] < 1e-8 * s[:, 0], np.zeros(len(points), np.int8)


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


def _disk_pair_draw(rng):
    pts = []
    while len(pts) < 2:
        p = rng.uniform(-1, 1, 2)
        if np.linalg.norm(p) < 0.9:
            pts.append(p)
    return _homogeneous(np.array(pts)), _NO_ROWS, _NO_QUADRICS


def builtin_property(name: str, dimension: int = 2,
                     metric: Optional[str] = None) -> BuiltinProperty:
    """Look up a named property functional with its configuration sampler.

    ``ck-distance`` requires a metric parameter ('klein-disk' or
    'elliptic'); every other property rejects one.
    """
    if name != "ck-distance" and metric is not None:
        raise GeometryError(f"property {name!r} takes no metric parameter")
    if name == "euclidean-distance":
        return BuiltinProperty(name, Functional(_euclidean_distance, _DISTANCE_REASONS),
                               Sampler(dimension, _points_draw(2, dimension)), False)
    if name == "angle":
        return BuiltinProperty(name, Functional(_angle_at_vertex, _ANGLE_REASONS),
                               Sampler(dimension, _points_draw(3, dimension)), False)
    if name == "cross-ratio":
        return BuiltinProperty(name, Functional(_cross_ratio_prop, _CROSS_RATIO_REASONS),
                               Sampler(dimension, _collinear_quadruple_draw(dimension)),
                               False)
    if name == "incidence":
        return BuiltinProperty(name, Functional(_incidence_prop, _INCIDENCE_REASONS),
                               Sampler(dimension, _incidence_draw(dimension)), True)
    if name == "tangency":
        if dimension != 2:
            raise GeometryError("tangency is a plane property")
        return BuiltinProperty(name, Functional(_tangency, _TANGENCY_REASONS),
                               Sampler(2, _circle_pair_draw), True)
    if name == "collinearity":
        if dimension < 2:
            raise GeometryError("collinearity needs dimension >= 2: all points of "
                                "P^1 lie on its one line")
        return BuiltinProperty(name, Functional(_collinearity_prop, _COLLINEARITY_REASONS),
                               Sampler(dimension, _triple_maybe_collinear_draw(dimension)),
                               True)
    if name == "ck-distance":
        if metric is None:
            raise GeometryError("ck-distance requires a metric parameter")
        if metric == "klein-disk":
            return BuiltinProperty(name, _ck_distance_prop(klein_disk_metric()),
                                   Sampler(2, _disk_pair_draw), False)
        if metric == "elliptic":
            return BuiltinProperty(name, _ck_distance_prop(elliptic_metric()),
                                   Sampler(2, _points_draw(2, 2)), False)
        raise GeometryError(f"unknown metric {metric!r}")
    raise GeometryError(f"unknown property: {name}")
