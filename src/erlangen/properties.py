"""Built-in property functionals and their configuration samplers.

Each property packages the functional handed to invariance_test together
with a matching configuration sampler.  Quantities are complex-valued;
relations (incidence, tangency, collinearity) are boolean-valued and are
compared by exact verdict equality before/after a transformation, since
properties in the group-theoretic sense include relations as well as
magnitudes.  A property raises PropertyUndefined on configurations
outside its domain (for example circle-specific functionals on conics
that are no longer circles); such trials are skipped.

Every built-in property is written once, for stacks: each functional is
a Functional and each sampler a Sampler, whose scalar calls are batches
of one, and invariance_test runs them a block of trials at a time.  The
stacked steps round as the scalar ones did (numerics.complex_product and
friends), so values and verdicts, but ck-distance's, are bit for bit
those of the former scalar bodies; it is cayley_klein.ck_distance_stack.

Every built-in sampler draws only uniform numbers, so it is written on a
numerics.UniformWindow: each trial's draws are read ahead as one window of
its generator's doubles, and the block's configurations are built from
the (B, K) window at once.  A coin becomes a mask, and a rejection loop a
masked redraw from the rows' next doubles; a row that runs past its
window reads on from its own generator.  So each configuration is bit for
bit the one the trial's generator gave when it was drawn number by number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .numerics import (GeometryError, UniformWindow, complex_abs, normalize_leading_stack,
                       rng_stack, row_dot, row_norm, times_i, uniform)
from .projective import Hyperplane, ProjPoint, Quadric, cross_ratio_stack, incident_stack
from .groups import _ANY, Configuration, PropertyUndefined
from .moebius import circle_matrices, circle_parameters
from .cayley_klein import METRICS, CKMetric, ck_distance_stack
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
    its own generator, and stacks them as (B, k, n+1) point,
    (B, h, n+1) hyperplane and (B, q, n+1, n+1) quadric arrays.  Called on
    one seed it is the batch of one and returns the Configuration of the
    points, then the hyperplanes, then the quadrics (``configuration`` of
    its rows).

    The generators come from numerics.rng_stack(seeds): numpy's
    Generator(PCG64(seed)) for each seed, with numpy's stream (NEP 19
    freezes it), built from one stacked SeedSequence hash in a block of
    more than a few seeds.  A ``draw`` sees the same draws as from
    rng_from(seed), and ``rng.spawn`` gives numpy's children, but in such
    a block ``rng.bit_generator.seed_seq`` is a stand-in that forwards to
    numpy's SeedSequence(seed), not a SeedSequence itself.

    A Sampler(dimension, draw) calls ``draw`` once per generator.  The
    built-in samplers are WindowSamplers, which build the whole block from
    one window of uniform doubles per trial.
    """

    def __init__(self, dimension: int, draw):
        self.dimension = dimension
        self.draw = draw

    def sample_stacks(self, seeds):
        rows = [self.draw(rng) for rng in rng_stack(seeds)]
        m = self.dimension + 1
        return tuple(np.array([r[j] for r in rows], dtype=complex)
                     .reshape((len(rows), len(rows[0][j])) + shape) if rows and len(rows[0][j])
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


class WindowSampler(Sampler):
    """A Sampler whose draws are all uniform numbers, made on windows.

    ``stacks(window)`` builds the configurations of a block from a
    numerics.UniformWindow over the block's generators and returns their
    stacks, as ``sample_stacks`` does; ``once`` and ``again`` size the
    window (see UniformWindow).  ``sample_stacks(seeds)`` runs it on a
    window over rng_stack(seeds), which it reads with one call per
    generator.  ``draw(rng)`` is its batch of one on an empty window: it
    reads its draws from ``rng`` one call at a time, as they were made
    number by number, and leaves ``rng`` just past them.
    """

    def __init__(self, dimension: int, stacks, once: int, again: int = 0):
        self.dimension, self.stacks, self.once, self.again = dimension, stacks, once, again

    def draw(self, rng):
        return tuple(x[0] for x in self.stacks(UniformWindow([rng], 0)))

    def sample_stacks(self, seeds):
        return self.stacks(UniformWindow(rng_stack(seeds), self.once, self.again))


def _configurations(m: int, points=None, hyperplanes=None, quadrics=None):
    """The complex point, hyperplane and quadric stacks of a block of
    configurations of n+1 = m coordinates, from the real stacks given; a
    slot not given holds no rows."""
    b = len(next(x for x in (points, hyperplanes, quadrics) if x is not None))
    return tuple(np.empty((b, 0) + shape, dtype=complex) if x is None else np.asarray(x, complex)
                 for x, shape in ((points, (m,)), (hyperplanes, (m,)), (quadrics, (m, m))))


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


def _undefined(points: np.ndarray, code: int, dtype=complex):
    b = len(points)
    return np.zeros(b, dtype=dtype), np.full(b, code, dtype=np.int8)


def _affine(points: np.ndarray):
    """Affine coordinates of a stack of point rows (last axis), and the
    mask of the points at infinity, whose coordinates are meaningless."""
    # each row divided by its largest-magnitude entry, then by its last one
    v = normalize_leading_stack(points)
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


def _points_sampler(count: int, dimension: int) -> WindowSampler:
    """count points, each coordinate uniform in [-1, 1]."""
    def stacks(window):
        coords = uniform(-1, 1, window.take(None, count * dimension))
        return _configurations(dimension + 1, _homogeneous(coords.reshape(-1, count, dimension)))
    return WindowSampler(dimension, stacks, count * dimension)


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


def _collinear_quadruple_sampler(dimension: int) -> WindowSampler:
    """Four points base + t * direction of a line through a base point,
    with a unit direction; the parameters t are uniform in [-2, 2] and
    redrawn until no two lie within 0.05."""
    # base and direction uniform in [-1, 1]^d, then the four parameters
    bounds = np.repeat([[-1.0, -2.0], [1.0, 2.0]], [2 * dimension, 4], axis=1)

    def spaced(ts):
        # the closest pair of parameters is a neighbouring pair in order
        return np.diff(np.sort(ts, axis=1), axis=1).min(axis=1) > 0.05

    def stacks(window):
        line = uniform(*bounds, window.take(None, 2 * dimension + 4))
        base, direction, ts = line[:, :dimension], line[:, dimension:-4], line[:, -4:]
        direction = direction / np.sqrt(row_dot(direction, direction))[:, None]
        rows = np.flatnonzero(~spaced(ts))
        while rows.size:
            ts[rows] = uniform(-2, 2, window.take(rows, 4))
            rows = rows[~spaced(ts[rows])]
        points = base[:, None] + ts[:, :, None] * direction[:, None]
        return _configurations(dimension + 1, _homogeneous(points))
    return WindowSampler(dimension, stacks, 2 * dimension + 4, 4)


def _cross_ratio_prop(points, hyperplanes, quadrics):
    if points.shape[1] < 4:
        return _undefined(points, 1)
    values, faults = cross_ratio_stack(points[:, :4])
    return values, np.where(faults != 0, 2, 0)


def _incidence_sampler(dimension: int) -> WindowSampler:
    """A hyperplane with coefficients uniform in [-1, 1] and, on a coin, a
    point inside it (a combination of the basis vectors e_i - (c_i/c_k) e_k,
    i != k, with c_k the coefficient of largest magnitude, by weights
    uniform in [-1, 1]), else a point of uniform affine coordinates."""
    n = dimension + 1

    def stacks(window):
        u = window.take(None, 2 * n)
        coeffs, weights = uniform(-1, 1, u[:, :n]), uniform(-1, 1, u[:, n + 1:])
        k = np.argmax(np.abs(coeffs), axis=1)
        # the indices i != k, in order
        others = np.arange(dimension) + (np.arange(dimension) >= k[:, None])
        ratios = np.take_along_axis(coeffs, others, 1) / np.take_along_axis(coeffs, k[:, None], 1)
        basis = np.eye(n)
        terms = weights[..., None] * (basis[others] - ratios[..., None] * basis[k][:, None])
        incident = 0  # summed in order from 0, as Python's sum adds them
        for i in range(dimension):
            incident = incident + terms[:, i]
        points = np.where(u[:, n:n + 1] < 0.5, incident, _homogeneous(weights))
        return _configurations(n, points[:, None], coeffs[:, None])
    return WindowSampler(dimension, stacks, 2 * n)


def _incidence_prop(points, hyperplanes, quadrics):
    if points.shape[1] < 1 or hyperplanes.shape[1] < 1:
        return _undefined(points, 1, bool)
    return incident_stack(points[:, 0], hyperplanes[:, 0], 1e-8), np.zeros(len(points), np.int8)


#: the bounds of a circle pair's first six uniform draws: the first
#: circle's centre x and y and radius, the coin, and on the coin the
#: tangent circle's direction and radius
_TANGENT_PAIR = (np.array([-1.0, -1.0, 0.3, 0.0, 0.0, 0.3]),
                 np.array([1.0, 1.0, 1.2, 1.0, 2 * np.pi, 1.2]))
#: the bounds of the other circle off the coin: centre x and y, radius
_OTHER_CIRCLE = np.array([-2.0, -2.0, 0.3]), np.array([2.0, 2.0, 1.2])


def _circle_pair(window):
    """Two circles: the first with its centre uniform in [-1, 1]^2 and
    radius in [0.3, 1.2]; on a coin, the second is externally tangent to it
    (a direction uniform in [0, 2 pi), a radius in [0.3, 1.2]), else its
    centre is uniform in [-2, 2]^2 and its radius in [0.3, 1.2], redrawn
    until it is 0.05 away from tangency inside and out."""
    u = window.take(None, 6)
    v = uniform(*_TANGENT_PAIR, u)
    circles = np.empty((len(u), 2, 3))  # per circle: centre x and y, radius
    circles[:, 0] = v[:, :3]
    circles[:, 1, 2] = v[:, 5]
    # c1 + (r1 + r2) * exp(1j * theta): the complex product's other terms
    # are exact zeros
    e = np.exp(times_i(v[:, 4]))
    circles[:, 1, :2] = v[:, :2] + (v[:, 2] + v[:, 5])[:, None] * e[:, None].view(float)
    # off the coin, the first centre drawn is the same two doubles, and its
    # radius one more
    rows = np.flatnonzero(~(u[:, 3] < 0.5))
    if rows.size:
        first = v[rows, :3]
        draws = np.concatenate([u[rows, 4:], window.take(rows, 1)], axis=1)
        while True:
            second = uniform(*_OTHER_CIRCLE, draws)
            circles[rows, 1] = second
            d = np.hypot(*(second[:, :2] - first[:, :2]).T)  # abs() of c2 - c1
            r1, r2 = first[:, 2], second[:, 2]
            # keep decidedly away from tangency so the verdict is stable
            redo = ~(np.minimum(np.abs(d - (r1 + r2)), np.abs(d - np.abs(r1 - r2))) > 0.05)
            if not redo.any():
                break
            rows, first = rows[redo], first[redo]
            draws = window.take(rows, 3)
    return _configurations(3, quadrics=circle_matrices(circles))


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


def _triple_maybe_collinear_sampler(dimension: int) -> WindowSampler:
    """Three points: on a coin, base and base + t * direction for two t
    uniform in [-1.5, 1.5] (base and direction uniform in [-1, 1]^d), else
    three points uniform in [-1, 1]^d."""
    def stacks(window):
        u = window.take(None, 2 * dimension + 3)
        base = uniform(-1, 1, u[:, 1:dimension + 1])
        direction = uniform(-1, 1, u[:, dimension + 1:-2])
        points = np.empty((len(u), 3, dimension))
        points[:, 0] = base
        ts = uniform(-1.5, 1.5, u[:, -2:])
        points[:, 1:] = base[:, None] + ts[..., None] * direction[:, None]
        # off the coin the 3d numbers are the same 2d + 2 doubles and d - 2 more
        rows = np.flatnonzero(~(u[:, 0] < 0.5))
        spread = np.concatenate([u[rows, 1:], window.take(rows, dimension - 2)], axis=1)
        points[rows] = uniform(-1, 1, spread).reshape(-1, 3, dimension)
        return _configurations(dimension + 1, _homogeneous(points))
    return WindowSampler(dimension, stacks, 1 + 3 * dimension)


def _collinearity_prop(points, hyperplanes, quadrics):
    if points.shape[1] < 3:
        return _undefined(points, 1, bool)
    if points.shape[2] < 3:
        return _undefined(points, 2, bool)
    stack = points[:, :3]
    stack = stack / np.max(np.abs(stack), axis=(1, 2), keepdims=True)
    s = np.linalg.svd(stack, compute_uv=False)
    return s[:, 2] < 1e-8 * s[:, 0], np.zeros(len(points), np.int8)


def _ck_distance(metric: CKMetric, disk: bool, points, hyperplanes, quadrics):
    """The distance of the first two plane points, undefined where ck_distance
    refuses them or, with ``disk``, where one is not inside x^2 + y^2 = w^2."""
    if points.shape[1] < 2:
        return _undefined(points, 1)
    if points.shape[2] != 3:
        return _undefined(points, 2)
    pair = points[:, :2]
    values, faults = ck_distance_stack(pair[:, 0], pair[:, 1], metric.absolute.matrix, metric.c)
    # the disk test reads the same at every complex scale of the coordinates
    outside = disk & (np.sum(np.abs(pair[..., :-1]) ** 2, axis=-1)
                      >= complex_abs(pair[..., -1]) ** 2).any(axis=1)
    return values, np.where(outside | (faults != 0), 2, 0)


def _disk_pair(window):
    """Two points of the disk of radius 0.9, each uniform in [-1, 1]^2 and
    redrawn until it falls inside."""
    b = len(window.rngs)
    points, found = np.empty((b, 2, 2)), np.zeros(b, dtype=np.intp)
    rows = np.arange(b)
    while rows.size:
        p = uniform(-1, 1, window.take(rows, 2))
        inside = np.sqrt(row_dot(p, p)) < 0.9  # np.linalg.norm of each point
        points[rows[inside], found[rows[inside]]] = p[inside]
        found[rows[inside]] += 1
        rows = rows[found[rows] < 2]
    return _configurations(3, _homogeneous(points))


_PLANE = (lambda d: d == 2, "{} is a plane property")
_CK_DISTANCE_REASONS = ("", "needs two points", "outside the metric domain")

#: per built-in property and metric (None for a property that takes none):
#: the dimensions it takes, and the refusal of any other; whether it is a
#: relation; why it is undefined, by the codes of its evaluate_stacks; and
#: for dimension d its evaluate_stacks and its sampler
_PROPERTIES = {
    ("euclidean-distance", None): (_ANY, False, ("", "needs two points", "point at infinity"),
                                   lambda d: (_euclidean_distance, _points_sampler(2, d))),
    ("angle", None): (_ANY, False, ("", "needs three points", "point at infinity",
                                    "degenerate ray"),
                      lambda d: (_angle_at_vertex, _points_sampler(3, d))),
    ("cross-ratio", None): (_ANY, False, ("", "needs four points", "points not collinear"),
                            lambda d: (_cross_ratio_prop, _collinear_quadruple_sampler(d))),
    ("incidence", None): (_ANY, True, ("", "needs a point and a hyperplane"),
                          lambda d: (_incidence_prop, _incidence_sampler(d))),
    ("tangency", None): (_PLANE, True, ("", "needs two circles", "conic is not a circle",
                                        "line encountered", "imaginary circle"),
                         lambda d: (_tangency, WindowSampler(2, _circle_pair, 7, 3))),
    ("collinearity", None): (
        (lambda d: d >= 2, "{} needs dimension >= 2: all points of P^1 lie on its one line"),
        True, ("", "needs three points", "all points of P^1 are collinear"),
        lambda d: (_collinearity_prop, _triple_maybe_collinear_sampler(d))),
    ("ck-distance", "klein-disk"): (_PLANE, False, _CK_DISTANCE_REASONS, lambda d: (
        partial(_ck_distance, METRICS["klein-disk"](), True), WindowSampler(2, _disk_pair, 4, 4))),
    ("ck-distance", "elliptic"): (_PLANE, False, _CK_DISTANCE_REASONS, lambda d: (
        partial(_ck_distance, METRICS["elliptic"](), False), _points_sampler(2, 2))),
}


def builtin_property(name: str, dimension: int = 2,
                     metric: Optional[str] = None) -> BuiltinProperty:
    """Look up a named property functional with its configuration sampler
    (_PROPERTIES).  The checks run in order: a metric where the property
    takes none, the name, the metric (ck-distance requires one), and the
    dimension."""
    metrics = [m for n, m in _PROPERTIES if n == name]
    if metric is not None and not any(metrics):
        raise GeometryError(f"property {name!r} takes no metric parameter")
    if not metrics:
        raise GeometryError(f"unknown property: {name}")
    if metric not in metrics:
        raise GeometryError(f"unknown metric {metric!r}" if metric is not None
                            else f"{name} requires a metric parameter")
    (takes, refusal), boolean, reasons, build = _PROPERTIES[name, metric]
    if not takes(dimension):
        raise GeometryError(refusal.format(name))
    evaluate, sampler = build(dimension)
    return BuiltinProperty(name, Functional(evaluate, reasons), sampler, boolean)
