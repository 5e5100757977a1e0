"""Transformation groups as first-class values.

A GroupDescriptor packages identity, composition, inversion, a seeded
sampler and a numeric membership predicate.  Membership is decided with
tolerances, never algebraically: the groups here are continuous and the
substrate is floating point.  The randomized invariance classifier
reports "invariant" strictly as absence of a counterexample over the
executed trials, never as a proof.

Per-trial randomness is always derived from the run seed and the trial
index through the splitmix64 rule in numerics.mix_seed, which makes
every trial independently reproducible.  Trials are therefore
independent.  Every built-in group acts by matrices, and a group
element (Transformation) is the record of its kind, its forward and
inverse matrices (ProjMap matrices, Moebius coefficient matrices or
pentaspherical matrices) and an antilinear flag.  Each kind (_KINDS)
says how a stack of its matrices is checked, inverted, composed and
acts on stacked configurations; the operations of a Transformation are
the batch of one of that code.  For descriptors with the block fields
``sample_matrices``/``contains_matrices`` (all seven built-in groups)
the trial loops sample, validate, invert, compose and check a block of
trials at once on stacked matrices, and map configurations a block at a
time.  Each block of invariance trials is compared on its stacks, and
only the trials that run alone or disagree there run per-trial Python
(see invariance_test).  Each trial still draws from its own generators,
so verdicts, witness seeds, errors and output bytes are those of the
per-trial loop, which every other descriptor runs.

Each built-in group (_GROUPS) is the stabiliser of a figure among its
kind's matrices, such as the imaginary circle at infinity (principal) or
the hyperplane at infinity (affine); one test, _fixes, checks them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    GeometryError,
    UniformWindow,
    complex_abs,
    complex_product,
    complex_quotient,
    equal_up_to_scale,
    equal_up_to_scale_stack,
    mix_seed,
    mix_seeds,
    normalize_leading_stack,
    orthogonal_from_normals,
    proportionality,
    proportionality_stack,
    rng_stack,
    times_i,
    uniform,
)
from .projective import (
    PROJMAP_FAULTS,
    Hyperplane,
    ProjMap,
    ProjPoint,
    Quadric,
    coords_faulty,
    map_hyperplanes,
    map_points,
    map_quadrics,
    projmap_faults,
)
from .moebius import (
    CIRCLE_FAULTS,
    MOEBIUS_FAULTS,
    circle_parameters,
    moebius_circles,
    moebius_faults,
    moebius_inverses,
    random_moebius_stack,
)
from .transfers import random_pentaspherical_stack
from .names import BUILTIN_GROUP_NAMES
from .records import trusted
from .reports import AxiomReport, Invariant, Violated

__all__ = [
    "Transformation",
    "Configuration",
    "GroupDescriptor",
    "PropertyUndefined",
    "builtin_group",
    "BUILTIN_GROUP_NAMES",
    "AxiomReport",
    "check_group_axioms",
    "stabilizes",
    "Invariant",
    "Violated",
    "invariance_test",
    "is_similarity_via_circular_points",
    "orbit_sample",
    "transform_configuration",
    "sample_quadric_preserving_map",
]


class PropertyUndefined(GeometryError):
    """Raised by property functionals on configurations outside their domain;
    invariance_test treats it as a skip signal rather than an error."""


class Transformation:
    """A concrete group element: the record (kind, forward, inverse_map,
    antilinear) of an element of one of the kinds in _KINDS.

    ``forward`` and ``inverse_map`` are the kind's (n, n) complex matrices:
    ProjMap matrices ('projective'), Moebius coefficient matrices
    [[a, b], [c, d]] ('moebius') or matrices acting on circle coordinates
    ('pentaspherical').  ``antilinear`` marks the Moebius maps that
    conjugate first, and the constructor refuses it for the other kinds.
    Each operation is the batch of one of the kind's stacked code.

    The constructor runs the kind's checks on ``forward`` and on the
    inverse (computed as the kind inverts when not given) and raises the
    error of the first that fails; with ``check`` it also requires the
    product of the two, composed as the kind composes, to be ~ I.
    """

    __slots__ = ("kind", "forward", "inverse_map", "antilinear")

    def __init__(self, kind: str, forward, inverse=None, antilinear: bool = False,
                 check: bool = True):
        if kind not in _KINDS:
            raise GeometryError(f"unknown transformation kind: {kind}")
        spec = _KINDS[kind]
        if antilinear and not spec.antilinear:
            raise GeometryError(f"a {kind} transformation cannot be antilinear")
        flags = np.array([bool(antilinear)])
        faults = []
        forward = _checked(spec, np.array(forward, dtype=complex)[None], faults)
        if inverse is None:
            inverse, raised = spec.inverse(forward, flags)
        else:
            inverse, raised = np.array(inverse, dtype=complex)[None], None
            if inverse.shape != forward.shape:
                raise GeometryError(f"{kind} inverse of another shape")
        inverse = _checked(spec, inverse, faults, raised)
        _raise_first(spec, np.stack(faults, axis=1))
        if check:
            unit = spec.compose((forward, inverse, flags), (inverse, forward, flags))[0][0]
            if proportionality(unit, np.eye(len(unit)))[1] > 1e-9:
                raise GeometryError(f"inverse check failed for {kind} pair")
        self.kind, self.forward, self.inverse_map = kind, forward[0], inverse[0]
        self.antilinear = bool(antilinear)

    def _stacks(self):
        """The element as a block of one: (forward, inverse, antilinear)."""
        return self.forward[None], self.inverse_map[None], np.array([self.antilinear])

    # -- group structure ----------------------------------------------------

    def compose(self, other: "Transformation") -> "Transformation":
        """self after other."""
        if self.kind != other.kind:
            raise GeometryError("cannot compose transformations of different kinds")
        spec = _KINDS[self.kind]
        faults = []
        forward, inverse = [_checked(spec, x, faults)
                            for x in spec.compose(self._stacks(), other._stacks())]
        _raise_first(spec, np.stack(faults, axis=1))
        return trusted(Transformation, self.kind, forward[0], inverse[0],
                       self.antilinear != other.antilinear)

    def invert(self) -> "Transformation":
        return trusted(Transformation, self.kind, self.inverse_map, self.forward, self.antilinear)

    def approx_equal(self, other: "Transformation", tol: float = 1e-9) -> bool:
        return (self.kind == other.kind and self.antilinear == other.antilinear
                and equal_up_to_scale(self.forward, other.forward, tol))

    def is_identity(self, tol: float = 1e-9) -> bool:
        return not self.antilinear and equal_up_to_scale(
            self.forward, np.eye(len(self.forward)), tol)

    # -- action on configuration elements -----------------------------------

    def apply(self, element):
        """The image of a point, hyperplane or quadric: the batch of one of
        the kind's stacked action."""
        slot = _slot(element)
        if slot is not None:
            rows, faults = _act_on(_KINDS[self.kind], self._stacks(), element, slot)
            if not faults[0]:
                return _ELEMENT_TYPES[slot][0](rows[0])
            etype, message = _APPLY_ERRORS[faults[0]]
        else:
            etype, message = _APPLY_ERRORS[1]
        raise etype(message.format(kind=self.kind, element=type(element).__name__))


#: the types of configuration elements, and the attribute holding each one's
#: coordinates; a kind's action takes them in this order
_ELEMENT_TYPES = ((ProjPoint, "coords"), (Hyperplane, "coeffs"), (Quadric, "matrix"))


def _slot(element) -> Optional[int]:
    """The index in _ELEMENT_TYPES of an element's type, or None."""
    for slot, (etype, _) in enumerate(_ELEMENT_TYPES):
        if isinstance(element, etype):
            return slot
    return None


class Configuration:
    """Finite, nonempty heterogeneous list of points/hyperplanes/quadrics."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise GeometryError("Configuration must be nonempty")
        for e in elements:
            if _slot(e) is None:
                raise GeometryError(f"unsupported configuration element {type(e)}")
        self.elements = elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __repr__(self):
        return f"Configuration({list(self.elements)!r})"


def transform_configuration(t: Transformation, c: Configuration) -> Configuration:
    return Configuration([t.apply(e) for e in c])


@dataclass(frozen=True)
class GroupDescriptor:
    """A named transformation group with sampler and membership predicate.

    ``sample`` must be a pure function of its seed.  ``contains`` is a
    numeric predicate with tolerance; "invariant" verdicts built on it
    are statistical statements, not proofs.

    A group may also give the block fields, which hold its elements as
    the matrices of their kind: ProjMap matrices, MoebiusMap coefficient
    matrices [[a, b], [c, d]] or pentaspherical matrices.
    ``sample_matrices(seeds)`` returns the (B, n, n) complex stack of the
    forward matrices of the elements ``sample`` returns, one per seed;
    for a kind with antilinear elements (moebius) it returns the pair of
    that stack and the (B,) mask of the antilinear ones.  ``contains_matrices(stack,
    tol)`` returns the (B,) verdicts of ``contains`` on forward matrices that
    passed the kind's checks, which it does not repeat.  With both set,
    check_group_axioms, invariance_test and orbit_sample work on blocks of
    trials and call neither ``sample`` nor ``contains`` per trial.  The
    per-trial loops stay as the reference the block path is tested against.
    """

    name: str
    dimension: int
    identity: Transformation
    sample: Callable[[int], Transformation]
    contains: Callable[..., bool]
    sample_matrices: Optional[Callable[[Sequence[int]], np.ndarray]] = None
    contains_matrices: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    @property
    def blocked(self) -> bool:
        """Whether the trial loops take the block path for this group."""
        return self.sample_matrices is not None and self.contains_matrices is not None


def _affine_stack(linear: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """(B, d+1, d+1) complex affine matrices from (B, d, d) linear parts
    and (B, d) translations."""
    b, d = translation.shape
    m = np.zeros((b, d + 1, d + 1), dtype=complex)
    m[:, :d, :d] = linear
    m[:, :d, d] = translation
    m[:, d, d] = 1.0
    return m


def _similarity_matrices(dim: int, scaled: bool):
    """Sampler of isometries (``scaled`` False) or similarities."""
    def sample_matrices(seeds) -> np.ndarray:
        rngs = rng_stack(seeds)
        normals = np.array([rng.normal(size=(dim, dim)) for rng in rngs]).reshape(-1, dim, dim)
        window = UniformWindow(rngs, scaled + dim)
        linear = orthogonal_from_normals(normals)
        if scaled:
            scale = np.exp(uniform(np.log(0.25), np.log(4.0), window.take(None, 1)))
            linear = scale[:, :, None] * linear
        return _affine_stack(linear, uniform(-1.0, 1.0, window.take(None, dim)))
    return sample_matrices


def _affine_matrices(dim: int):
    def sample_matrices(seeds) -> np.ndarray:
        rngs = rng_stack(seeds)
        normals = np.array([rng.normal(size=(2, dim, dim)) for rng in rngs]).reshape(
            -1, 2, dim, dim)
        window = UniformWindow(rngs, 2 * dim)
        stretch = np.exp(uniform(np.log(0.25), np.log(4.0), window.take(None, dim)))
        tr = uniform(-1.0, 1.0, window.take(None, dim))
        q1, q2 = orthogonal_from_normals(normals.swapaxes(0, 1))
        return _affine_stack(q1 * stretch[:, None, :] @ q2, tr)
    return sample_matrices


def _projective_matrices(dim: int):
    """Sampler of matrices with entries uniform in [-1, 1], each redrawn
    until its condition number is below 50."""
    n = dim + 1

    def sample_matrices(seeds) -> np.ndarray:
        window = UniformWindow(rng_stack(seeds), n * n, n * n)
        m = uniform(-1.0, 1.0, window.take(None, n * n)).reshape(-1, n, n)
        rows = np.flatnonzero(~(np.linalg.cond(m) < 50.0))
        # rejection sampling, each redraw from the trial's next doubles
        while rows.size:
            m[rows] = uniform(-1.0, 1.0, window.take(rows, n * n)).reshape(-1, n, n)
            rows = rows[~(np.linalg.cond(m[rows]) < 50.0)]
        return m.astype(complex)
    return sample_matrices


def _absolute(n: int) -> np.ndarray:
    """diag(1, ..., 1, 0): the imaginary circle (sphere) at infinity of P^(n-1)
    as a dual quadric, the dual absolute."""
    return np.diag(np.r_[np.ones(n - 1), 0.0])


def _fixes(stack: np.ndarray, tol: float, figure, side: int = 0, unit: bool = False):
    """Per matrix M of a stack, whether M fixes a figure F to ``tol``:
    X^T F X ~ F, with X = M for a point quadric F (side 0) and X = M^T for a
    dual quadric (side 1).  A hyperplane h is the point quadric h h^T.  With
    ``unit`` M is first scaled so that M[-1, -1] = 1, and the factor must be
    1 to ``tol`` too.  Every matrix fixes the figure None."""
    if figure is None:
        return np.ones(len(stack), dtype=bool)
    if unit:
        corner = stack[:, -1, -1]
        stack = stack / np.where(corner == 0, 1.0, corner)[:, None, None]
    x = stack.swapaxes(1, 2) if side else stack
    mu, resid = proportionality_stack(x.swapaxes(1, 2) @ figure @ x, figure)
    return (resid <= tol) & (np.abs(mu - 1.0) <= tol if unit else True)


_METRIC = (lambda d: d in (2, 3), "{} supports dimensions 2 and 3 only")
_ANY = (lambda d: d >= 1, "{} needs dimension >= 1")
_PLANAR = (lambda d: d == 2, "{} is planar (dimension 2)")

#: per built-in group: its kind; the dimensions it takes, and the refusal of
#: any other; for dimension d its matrix size, stacked sampler and the figure
#: it fixes, as the arguments (figure, side, unit) of _fixes
_GROUPS = {
    "euclidean_isometries": ("projective", _METRIC, lambda d: (
        d + 1, _similarity_matrices(d, False), (_absolute(d + 1), 1, True))),
    "principal": ("projective", _METRIC, lambda d: (
        d + 1, _similarity_matrices(d, True), (_absolute(d + 1), 1))),
    # the hyperplane at infinity x_d = 0, as the point quadric e e^T
    "affine": ("projective", _ANY, lambda d: (
        d + 1, _affine_matrices(d), (np.diag(np.eye(d + 1)[-1]),))),
    "projective": ("projective", _ANY, lambda d: (d + 1, _projective_matrices(d), (None,))),
    "moebius": ("moebius", _PLANAR, lambda d: (2, random_moebius_stack, (None,))),
    "inversive_pentaspherical": ("pentaspherical", _PLANAR, lambda d: (
        4, partial(random_pentaspherical_stack, n=4), (np.eye(4),))),
    "lie_sphere_extended": ("pentaspherical", _PLANAR, lambda d: (
        5, partial(random_pentaspherical_stack, n=5), (np.eye(5),))),
}


def builtin_group(name: str, dimension: int = 2) -> GroupDescriptor:
    """Construct one of the built-in groups (_GROUPS): the matrices of a
    kind that fix a figure.

    Metric groups (euclidean_isometries, principal) support dimensions
    2 and 3; affine and projective any dimension >= 1; the circle
    geometries (moebius, inversive_pentaspherical, lie_sphere_extended)
    are planar.  Samplers draw rotations from the Haar measure on the
    orthogonal group (so reflections appear with probability 1/2),
    translations componentwise uniform in [-1, 1], scales log-uniform in
    [1/4, 4]; the conjugating family of moebius maps appears with
    probability 1/2.  ``sample`` and ``contains`` are batches of one.
    """
    if name not in _GROUPS:
        raise GeometryError(f"unknown builtin group: {name}")
    kind_name, (takes, refusal), build = _GROUPS[name]
    if not takes(dimension):
        raise GeometryError(refusal.format(name))
    n, sample_matrices, figure = build(dimension)
    kind = _KINDS[kind_name]

    def contains_matrices(stack: np.ndarray, tol: float) -> np.ndarray:
        if stack.shape[1:] != (n, n):
            return np.zeros(len(stack), dtype=bool)
        return _fixes(stack, tol, *figure)

    def sample(seed: int) -> Transformation:
        faults = []
        elements = _sampled(kind, sample_matrices, [seed], faults)
        return _block_element(kind, elements, _first_faults(faults), 0)

    def contains(t: Transformation, tol: float = 1e-8) -> bool:
        return t.kind == kind_name and bool(contains_matrices(t.forward[None], tol)[0])

    return GroupDescriptor(name, dimension, Transformation(kind_name, np.eye(n), check=False),
                           sample, contains, sample_matrices, contains_matrices)


#: the most trials one block of the block path holds
_BLOCK = 64


def _block_bounds(trials: int, first: int):
    """(start, stop) of consecutive blocks covering range(trials): the
    first holds ``first`` trials and each next one _BLOCK, and a tail
    shorter than _BLOCK joins the block of _BLOCK before it, so a block
    holds fewer than 2 * _BLOCK.  Invariance starts with one probe trial,
    which takes no tail, since a witness at trial 0 then costs one
    element.  Axiom checks and orbits start at _BLOCK."""
    start, size = 0, first
    while start < trials:
        stop = min(trials, start + size)
        if size == _BLOCK and trials - stop < _BLOCK:
            stop = trials
        yield start, stop
        start, size = stop, _BLOCK


# -- element kinds on stacks ----------------------------------------------------


class _Kind(NamedTuple):
    """One kind of Transformation, on stacks.  It holds the elements of a
    block as (forward, inverse, antilinear): two (B, n, n) stacks of the
    kind's matrices and a (B,) mask; a Transformation is a block of one.

    ``faults(stack)`` gives per matrix the code of the first check the
    kind's matrices fail (0: none), and raises GeometryError for a stack
    of matrices of the wrong shape; ``errors[code]`` is the (exception
    type, message) a failed check raises.  ``inverse(stack, antilinear)``
    returns the inverses of the kind's elements, and the codes of the
    inversions that raise (or None).  ``compose(t1, t2)`` returns the
    forward and inverse matrices of t1.compose(t2).

    ``maps`` holds per slot of _ELEMENT_TYPES the kind's map, or None:
    ``map(elements, rows)`` takes a block's elements and one configuration's
    (B, k, m) rows or (B, k, m, m) quadric matrices per element, and returns
    their images and (B, k) codes in _APPLY_ERRORS (0: none), or None for a
    map that never fails.  n x n elements map rows of size ``size(n)``
    (None: none); other rows, or rows in a slot without a map, give the
    trial the code ``refusal``.

    ``antilinear`` says whether the kind has antilinear elements, ones
    that conjugate before they act; only Moebius maps do.
    """

    name: str
    antilinear: bool
    errors: tuple
    faults: Callable
    inverse: Callable
    compose: Callable
    maps: tuple
    size: Callable
    refusal: int

    def act(self, forward, inverse, antilinear, points, hyperplanes, quadrics):
        """The images of stacked configurations, one per element of a block,
        and (B,) codes in _APPLY_ERRORS, nonzero where applying the element
        raises before it builds an image (for one element, that error); an
        image row its element type would refuse comes back as it is.
        Transformation.apply is its batch of one."""
        stacks, size = [points, hyperplanes, quadrics], self.size(forward.shape[-1])
        codes = np.zeros(len(forward), dtype=np.int8)
        if any(rows.shape[1] and (f is None or rows.shape[-1] != size)
               for f, rows in zip(self.maps, stacks)):
            return (*stacks, codes + self.refusal)
        for slot, f in enumerate(self.maps):
            if stacks[slot].shape[1]:
                stacks[slot], c = f((forward, inverse, antilinear), stacks[slot])
                if c is not None:
                    codes = np.maximum(codes, c.max(axis=1))
        return (*stacks, codes)


#: what the errors of a pentaspherical Transformation name
_PENTASPHERICAL_MAP = "pentaspherical map"


def _finite_faults(stack: np.ndarray) -> np.ndarray:
    """Code 2 for each matrix with a non-finite entry, which a
    pentaspherical Transformation refuses, else 0."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise GeometryError(f"{_PENTASPHERICAL_MAP} needs a square matrix")
    return np.where(np.isfinite(stack).all(axis=(1, 2)), np.int8(0), np.int8(2))


def _inverses(stack: np.ndarray, antilinear: np.ndarray):
    """np.linalg.inv of each matrix, with code 1 where it raises for an
    exactly singular one (whose inverse here is the identity).  On a stack
    np.linalg.inv raises for all matrices if it does for one."""
    try:
        return np.linalg.inv(stack), None
    except np.linalg.LinAlgError:
        pass
    inverse = np.empty_like(stack)
    codes = np.zeros(len(stack), dtype=np.int8)
    for k, m in enumerate(stack):
        try:
            inverse[k] = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            inverse[k], codes[k] = np.eye(len(m)), 1
    return inverse, codes


def _linear_compose(t1, t2):
    """Forward and inverse of a product, as the factors' matrices and
    their inverses multiply."""
    return t1[0] @ t2[0], t2[1] @ t1[1]


def _moebius_compose(t1, t2):
    """MoebiusMap.compose of each pair, and the inverse MoebiusMap.inverse
    takes of the product."""
    product = t1[0] @ np.where(t1[2][:, None, None], np.conj(t2[0]), t2[0])
    return product, moebius_inverses(product, t1[2] != t2[2])


# -- the action of each kind on stacked configurations ----------------------------

#: (exception type, message) of the errors Transformation.apply raises,
#: indexed by the codes of the kinds' actions (0: none); circle_from_quadric's
#: code c is code _CIRCLE + c here
_APPLY_ERRORS = (
    (None, ""),
    (GeometryError, "{kind} transformation not applicable to {element}"),
    (DimensionMismatch, "{kind} transformation applied to a {element} of another dimension"),
    (PropertyUndefined, "point at infinity is outside the affine chart"),
    (PropertyUndefined, "image at infinity not representable in P^2"),
    (GeometryError, "finite ExtendedComplex requires finite value"),
    (PropertyUndefined, "image circle degenerates to a line"),
) + tuple((GeometryError, message) for message in CIRCLE_FAULTS[1:])
_CIRCLE = len(_APPLY_ERRORS) - len(CIRCLE_FAULTS)


def _circle_codes(faults: np.ndarray) -> np.ndarray:
    return np.where(faults != 0, faults + _CIRCLE, 0).astype(np.int8)


def _moebius_circles(elements, conics: np.ndarray):
    """moebius.moebius_circles as a map of the moebius kind."""
    images, faults = moebius_circles(elements[0], elements[2], conics)
    return images, _circle_codes(faults)


def _moebius_points(coeffs: np.ndarray, antilinear: np.ndarray, coords: np.ndarray):
    """The (B, k, 3) plane points of each row under the row's Moebius map:
    z = (x + iy)/w of the max-normalized coordinates goes to (az + b)/(cz + d),
    conjugated first where the map is antilinear, with the rounding of
    Python's complex arithmetic.  Also the (B, k) codes: a point at
    infinity, an image at infinity, a non-finite image."""
    x, y, w = np.moveaxis(normalize_leading_stack(coords), -1, 0)
    at_infinity = complex_abs(w) < 1e-14
    w = np.where(at_infinity, 1.0, w)
    z = x / w + complex_product(1j, y) / w
    z = np.where(antilinear[:, None], np.conj(z), z)
    a, b, c, d = (coeffs[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    denom = complex_product(c, z) + d
    infinite = denom == 0
    image = complex_quotient(complex_product(a, z) + b, np.where(infinite, 1.0, denom))
    out = np.ones(coords.shape, dtype=complex)
    out[..., 0], out[..., 1] = image.real, image.imag
    faults = np.where(at_infinity, 3, np.where(infinite, 4, np.where(np.isfinite(image), 0, 5)))
    return out, faults.astype(np.int8)


def _pentaspherical_circles(matrices: np.ndarray, conics: np.ndarray):
    """The (B, q, 3, 3) circle conics of each row under the row's 4 x 4
    matrix, which acts on the circle coordinates (i a, i b, i (A - C)/2,
    (A + C)/2), with the rounding of Python's complex arithmetic; and the
    (B, q) codes of the circles that are not, or whose images degenerate
    to lines."""
    (aa, a, b, cc), circle_faults = circle_parameters(conics)
    u = np.empty(aa.shape + (4,), dtype=complex)
    u[..., 0], u[..., 1] = times_i(a), times_i(b)
    u[..., 2] = complex_quotient(times_i(aa - cc), np.complex128(2.0))
    u[..., 3] = (aa + cc) / 2.0
    img = (matrices[:, None] @ u[..., None])[..., 0]
    # the A of the image circle's equation
    lead = complex_product(-1j, img[..., 2]) + img[..., 3]
    degenerate = complex_abs(lead) < 1e-12 * np.max(np.abs(img), axis=-1)
    img = img / np.where(degenerate, 1.0, lead)[..., None]
    out = np.zeros(conics.shape, dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = 1.0
    out[..., 0, 2] = out[..., 2, 0] = -complex_product(-1j, img[..., 0]).real
    out[..., 1, 2] = out[..., 2, 1] = -complex_product(-1j, img[..., 1]).real
    out[..., 2, 2] = (complex_product(1j, img[..., 2]) + img[..., 3]).real
    faults = np.where(circle_faults != 0, _circle_codes(circle_faults), np.where(degenerate, 6, 0))
    return out, faults.astype(np.int8)


def _act_on(kind: "_Kind", elements, e, slot: int):
    """The rows of the images of the configuration element e under each of
    a block's elements (forward, inverse, antilinear), as a (B, ...) stack,
    and the (B,) codes of the errors applying them raises."""
    data = getattr(e, _ELEMENT_TYPES[slot][1])
    b = len(elements[0])
    stacks = [np.empty((b, 0))] * 3
    stacks[slot] = np.broadcast_to(data, (b, 1) + data.shape)
    *images, faults = kind.act(*elements, *stacks)
    return images[slot][:, 0], faults


_KINDS = {kind.name: kind for kind in (
    # ProjMap's checks pass only matrices that np.linalg.inv inverts
    _Kind("projective", False, tuple((GeometryError, message) for message in PROJMAP_FAULTS),
          projmap_faults, _inverses, _linear_compose,
          (lambda e, rows: (map_points(e[0], rows), None),
           lambda e, rows: (map_hyperplanes(e[1], rows), None),
           lambda e, rows: (map_quadrics(e[1], rows), None)), lambda n: n, 2),
    _Kind("moebius", True, MOEBIUS_FAULTS, moebius_faults,
          lambda stack, antilinear: (moebius_inverses(stack, antilinear), None),
          _moebius_compose,
          (lambda e, rows: _moebius_points(e[0], e[2], rows), None, _moebius_circles),
          {2: 3}.get, 1),
    # a pentaspherical element must be finite, and inverting one may raise
    _Kind("pentaspherical", False,
          ((None, ""), (np.linalg.LinAlgError, "Singular matrix"),
           (GeometryError, f"{_PENTASPHERICAL_MAP}: non-finite entries")),
          _finite_faults, _inverses, _linear_compose,
          (None, None, lambda e, conics: _pentaspherical_circles(e[0], conics)),
          {4: 3}.get, 1),
)}


def _checked(kind: _Kind, stack: np.ndarray, faults: list, raised=None) -> np.ndarray:
    """Append the codes of the kind's checks on ``stack`` to ``faults``
    (where ``raised`` has a nonzero code, that one), and return the stack
    with each failed matrix replaced by the identity so that later stacked
    operations see only valid matrices."""
    f = kind.faults(stack)
    if raised is not None:
        f = np.where(raised != 0, raised, f)
    faults.append(f)
    if not f.any():
        return stack
    return np.where((f == 0)[:, None, None], stack, np.eye(stack.shape[-1]))


def _sampled(kind: _Kind, sample_matrices, seeds, faults: list):
    """The elements (forward, inverse, antilinear) that sample_matrices
    gives for the seeds, each sample and then its inverse checked."""
    sampled = sample_matrices(seeds)
    forward, antilinear = (sampled if isinstance(sampled, tuple)
                           else (sampled, np.zeros(len(seeds), dtype=bool)))
    forward = _checked(kind, forward, faults)
    inverse, raised = kind.inverse(forward, antilinear)
    return forward, _checked(kind, inverse, faults, raised), antilinear


def _first_faults(faults: list) -> np.ndarray:
    """Per trial, the first nonzero code of the stages' code arrays."""
    first = faults[-1]
    for f in reversed(faults[:-1]):
        first = np.where(f != 0, f, first)
    return first


def _error(kind: _Kind, code) -> Exception:
    etype, message = kind.errors[code]
    return etype(message)


def _raise_first(kind: _Kind, faults: np.ndarray) -> None:
    """Raise the first fault of a (trials, stages) code array, in trial
    order and within a trial in stage order, as the per-trial loop would."""
    bad = np.flatnonzero(faults)
    if bad.size:
        raise _error(kind, faults.flat[bad[0]])


def _block_element(kind: _Kind, elements, faults: np.ndarray, k: int) -> Transformation:
    """The Transformation of trial k of a block's elements (forward,
    inverse, antilinear), or the error of its first failed check."""
    if faults[k]:
        raise _error(kind, faults[k])
    forward, inverse, antilinear = elements
    return trusted(Transformation, kind.name, forward[k], inverse[k], bool(antilinear[k]))


def _element_blocks(g: GroupDescriptor, seed: int, trials: int, stride: int, offset: int,
                    first_block: int):
    """For a blocked descriptor, yield (start, elements, faults) per block
    of _block_bounds(trials, first_block): the stacks (forward, inverse,
    antilinear) of the checked elements of seeds
    mix_seed(seed, stride * i + offset) of its trials i, and per trial the
    code of the first check g.sample would fail (0: none).  A block is
    sampled only when the caller asks for it."""
    kind = _KINDS[g.identity.kind]
    for start, stop in _block_bounds(trials, first_block):
        seeds = mix_seeds(seed, range(stride * start + offset, stride * stop + offset, stride))
        faults = []
        elements = _sampled(kind, g.sample_matrices, seeds, faults)
        yield start, elements, _first_faults(faults)


def check_group_axioms(g: GroupDescriptor, seed: int, trials: int,
                       tol: float = 1e-8) -> AxiomReport:
    """Sample-based checks of closure, inverses and the identity.

    Per trial: two elements are drawn; their composition must pass
    ``contains`` (closure), the inverse of the first must pass
    ``contains`` and compose with it to the identity (inverse axiom,
    which for infinite groups is an extra requirement and not a
    consequence of closure), and composing with the group identity must
    not change the element.

    Trial i draws from mix_seed(seed, 2i) and mix_seed(seed, 2i + 1).  A
    blocked group checks the blocks of _block_bounds on stacks
    (_axioms_block), with the report and errors of the per-trial loop.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    report = AxiomReport(group=g.name, trials=trials, tol=tol)
    if not g.contains(g.identity, tol):
        report.identity_failures.append((-1, 0, 0))
    if g.blocked:
        for start, stop in _block_bounds(trials, _BLOCK):
            _axioms_block(g, report, seed, start, stop, tol)
        return report
    for i in range(trials):
        s1 = mix_seed(seed, 2 * i)
        s2 = mix_seed(seed, 2 * i + 1)
        t1 = g.sample(s1)
        t2 = g.sample(s2)
        if not g.contains(t1.compose(t2), tol):
            report.closure_failures.append((i, s1, s2))
        inv = t1.invert()
        if not g.contains(inv, tol) or not t1.compose(inv).is_identity(1e-8):
            report.inverse_failures.append((i, s1, s2))
        if not g.identity.compose(t1).approx_equal(t1, 1e-8):
            report.identity_failures.append((i, s1, s2))
    return report


def _axioms_block(g: GroupDescriptor, report: AxiomReport, seed: int, start: int,
                  stop: int, tol: float) -> None:
    """Trials start..stop-1 of check_group_axioms on stacks.  Every element
    the per-trial loop builds is checked as its kind's constructor would,
    and the first failure raises in the same order: both samples and their
    inverses, then the forward and inverse of t1*t2, t1*t1^-1 and
    identity*t1.  Each stage runs once for the block, as the kinds' checks
    and compositions, the figure tests and the comparison act row by row:
    the 2B operands are sampled as one stack, the three products composed
    as one stack of 3B and checked with their inverses as one of 6B, and
    membership and the comparisons each take one call."""
    kind = _KINDS[g.identity.kind]
    b = stop - start
    seeds = mix_seeds(seed, range(2 * start, 2 * stop))
    s1, s2 = seeds[0::2], seeds[1::2]
    checks = []
    sampled = _sampled(kind, g.sample_matrices, s1 + s2, checks)
    t1, t2 = tuple(x[:b] for x in sampled), tuple(x[b:] for x in sampled)
    identity = [np.broadcast_to(x, y.shape) for x, y in zip(g.identity._stacks(), t1)]
    # t1*t2, t1*t1^-1 and identity*t1 as one stack
    left = [np.concatenate(x) for x in zip(t1, t1, identity)]
    right = [np.concatenate(x) for x in zip(t2, (t1[1], t1[0], t1[2]), t1)]
    products = _checked(kind, np.concatenate(kind.compose(left, right)), checks)
    antilinear = left[2] != right[2]
    member = g.contains_matrices(np.concatenate([products[:b], t1[1]]), tol)
    closure, inverse = member[:b], member[b:]
    forwards, inverses = checks[2].reshape(2, 3, b)
    # t1*t1^-1 is only formed when t1^-1 passes contains
    unit = [np.where(inverse, f, 0) for f in (forwards[1], inverses[1])]
    _raise_first(kind, np.stack([checks[0][:b], checks[1][:b], checks[0][b:], checks[1][b:],
                                 forwards[0], inverses[0], *unit, forwards[2], inverses[2]],
                                axis=1))
    eye = np.broadcast_to(np.eye(t1[0].shape[-1]), t1[0].shape)
    same = equal_up_to_scale_stack(products[b:3 * b], np.concatenate([eye, t1[0]]), 1e-8)
    inverse = inverse & ~antilinear[b:2 * b] & same[:b]
    identical = (antilinear[2 * b:] == t1[2]) & same[b:]
    for failures, ok in ((report.closure_failures, closure),
                         (report.inverse_failures, inverse),
                         (report.identity_failures, identical)):
        failures.extend((start + k, s1[k], s2[k]) for k in np.flatnonzero(~ok).tolist())


def stabilizes(t: Transformation, c: Configuration) -> bool:
    """True iff every element of the configuration is mapped to itself up
    to scale, to 1e-8 (quadrics compared as matrices up to scale)."""
    for e in c:
        data = _ELEMENT_TYPES[_slot(e)][1]
        if not equal_up_to_scale(getattr(t.apply(e), data), getattr(e, data), 1e-8):
            return False
    return True


def invariance_test(prop: Callable[[Configuration], object], g: GroupDescriptor,
                    config_sampler: Callable[[int], Configuration], seed: int,
                    trials: int, tol: float = 1e-9):
    """Randomized falsification of "prop is invariant under g".

    Numeric property values are compared with relative tolerance;
    boolean values must match exactly (_agree).  A property may raise
    PropertyUndefined to skip a trial; if more than 90% of trials are
    skipped the sampler does not fit the property and an error is
    raised.

    Trial i draws its configuration from mix_seed(seed, 3i) and its
    transformation from mix_seed(seed, 3i + 1).  A blocked group runs one
    probe trial, where most witnesses are, then the blocks of
    _block_bounds, and each block is sampled, mapped, evaluated and
    compared on stacks (_stacked_trials).  Any other group runs each
    trial as a block of one that runs alone.  Only the trials that run
    alone or disagree on the stacks run per-trial Python, in trial order,
    so the verdict, and any error, are those of the per-trial loop.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kind = _KINDS[g.identity.kind]
    blocks = (_element_blocks(g, seed, trials, 3, 1, 1) if g.blocked
              else ((i, None, [0]) for i in range(trials)))
    skipped = 0
    for start, elements, faults in blocks:
        cseeds = mix_seeds(seed, range(3 * start, 3 * (start + len(faults)), 3))
        alone, skip, agree, before, after, config = _stacked_trials(
            prop, kind, config_sampler, cseeds, elements, faults, tol)
        for k in np.flatnonzero(alone | ~(skip | agree)).tolist():
            i = start + k
            if alone[k]:
                c = config_sampler(cseeds[k])
                t = (g.sample(mix_seed(seed, 3 * i + 1)) if elements is None
                     else _block_element(kind, elements, faults, k))
                try:
                    b, a = prop(c), prop(transform_configuration(t, c))
                except PropertyUndefined:
                    skip[k] = True
                    continue
            else:
                b, a = before[k], after[k]
            if not _agree(b, a, tol):
                if not alone[k]:
                    c = config_sampler.configuration(*(x[k] for x in config))
                    t = _block_element(kind, elements, faults, k)
                return Violated(trial=i, config_seed=cseeds[k],
                                transform_seed=mix_seed(seed, 3 * i + 1), before=b, after=a,
                                config=c, transformation=t, tol=tol,
                                trials_executed=i + 1 - skipped - int(skip[:k + 1].sum()))
        skipped += int(skip.sum())
    if skipped > 0.9 * trials:
        raise GeometryError(
            f"property undefined on {skipped}/{trials} samples (sampler mismatch)")
    return Invariant(trials_executed=trials - skipped, trials_skipped=skipped, tol=tol)


def _agree(before, after, tol: float) -> bool:
    """Whether two property values agree: the comparison that decides."""
    if isinstance(before, (bool, np.bool_)) or isinstance(after, (bool, np.bool_)):
        return bool(before) == bool(after)
    b, a = complex(before), complex(after)
    return abs(b - a) <= tol * max(1.0, abs(b), abs(a))


def _stacked_agree(before: np.ndarray, after: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the rows of two stacks of values where _agree holds and
    raises nothing; it may leave such rows out, but adds none.  Values
    are cast as complex() casts them, and a dtype that cannot be cast
    agrees nowhere.  Python's max skips a NaN, as np.fmax does, and its
    abs raises OverflowError where a modulus of finite parts overflows."""
    if before.dtype == bool:
        return before == after
    if not np.can_cast(before.dtype, complex):
        return np.zeros(len(before), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        b, a = before.astype(complex), after.astype(complex)
        parts = np.array([b - a, b, a])
        d, mb, ma = moduli = complex_abs(parts)
        agree = d <= tol * np.fmax(1.0, np.fmax(mb, ma))
        return agree & ~(np.isfinite(parts) & np.isinf(moduli)).any(axis=0)


def _stacked_trials(prop, kind: _Kind, config_sampler, cseeds, elements, faults, tol: float):
    """(alone, undefined, agree, before, after, config) of a block of
    invariance trials: the masks of the trials that run alone, as the
    per-trial loop runs them, and of the others whose property is
    undefined before or after, or whose values _stacked_agree; those
    values as Python scalars; and the configuration stacks, which are
    mapped and evaluated on stacks.  A trial runs alone where the scalar
    objects would refuse its configuration, element or image (an image
    only where the property is defined before), and every trial does
    without block fields (``elements`` None), ``evaluate_stacks`` or
    ``sample_stacks``, or where either raises: both may be user code."""
    b = len(cseeds)
    everyone = (np.ones(b, dtype=bool), *np.zeros((2, b), dtype=bool), None, None, None)
    if elements is None or not hasattr(prop, "evaluate_stacks"):
        return everyone
    try:
        config = config_sampler.sample_stacks(cseeds)
    except Exception:
        return everyone
    alone = (faults != 0) | _faulty(config)
    config = _sanitized(config, alone)
    *images, codes = kind.act(*elements, *config)
    refused = (codes != 0) | _faulty(images)
    images = _sanitized(images, refused)
    # the configurations and their images in one stack: rows are independent
    stacks = [np.concatenate([x, y]) for x, y in zip(config, images)]
    try:
        values, undefined = prop.evaluate_stacks(*stacks)
    except Exception:
        return everyone
    # an image is made only when the property is defined before
    alone |= (undefined[:b] == 0) & refused
    before, after = values[:b], values[b:]
    return (alone, ((undefined[:b] | undefined[b:]) != 0) & ~alone,
            _stacked_agree(before, after, tol), before.tolist(), after.tolist(), config)


def _faulty(stacks) -> np.ndarray:
    """Mask of the configurations whose stacked point, hyperplane and
    quadric rows hold one that ProjPoint, Hyperplane or Quadric would
    refuse."""
    faulty = np.zeros(len(stacks[0]), dtype=bool)
    for slot, rows in enumerate(stacks):
        if rows.size:
            faulty |= _rows_faulty(slot, rows).any(axis=1)
    return faulty


def _rows_faulty(slot: int, rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a stack of one slot of _ELEMENT_TYPES that its
    type would refuse: non-finite or all zero, or for a quadric matrix not
    exactly symmetric."""
    if _ELEMENT_TYPES[slot][0] is not Quadric:
        return coords_faulty(rows)
    asymmetric = (rows != rows.swapaxes(-1, -2)).any(axis=(-2, -1))
    return coords_faulty(rows.reshape(rows.shape[:-2] + (-1,))) | asymmetric


def _sanitized(stacks, irregular: np.ndarray):
    """The stacks with the rows of irregular trials set to ones, so stacked
    evaluation sees finite coordinates only."""
    if not irregular.any():
        return stacks
    return [np.where(irregular.reshape((-1,) + (1,) * (x.ndim - 1)), 1.0, x) for x in stacks]


def is_similarity_via_circular_points(m) -> bool:
    """Similarity test by the fixed-pair characterization: a real plane
    projectivity is a similarity (possibly orientation-reversing) exactly
    when it maps the pair of circular points at infinity I = (1, i, 0) and
    J = (1, -i, 0) to itself as a set.  Reflections swap the two points but
    keep the pair.  The pair is the dual conic I J^T + J I^T = 2 diag(1, 1, 0),
    the principal group's figure, so this is the principal membership test
    of one matrix at DEFAULT_TOL."""
    mat = np.asarray(m.matrix if isinstance(m, ProjMap) else m, dtype=complex)
    if mat.shape != (3, 3):
        raise GeometryError("expected a 3x3 real matrix")
    if float(np.max(np.abs(mat.imag))) > 0:
        raise GeometryError("expected a real matrix")
    scale = float(np.max(np.abs(mat)))
    if scale == 0 or abs(np.linalg.det(mat / scale)) < 1e-12:
        raise GeometryError("matrix is singular")
    return bool(_fixes(mat[None], DEFAULT_TOL, _absolute(3), 1)[0])


def orbit_sample(c: Configuration, g: GroupDescriptor, seed: int,
                 count: int) -> list:
    """Deterministic sample of the orbit (the "body") of a configuration.

    Configurations fixed by a normal subgroup of g yield degenerate
    orbits that cannot separate the group elements; no automated
    detection of that situation is attempted here.

    A blocked group maps each element of c under a block of elements at
    once, and checks the image rows once per block, on the stacks; only a
    row that fails those checks goes through its constructor, which
    raises the per-trial loop's error at its trial.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not g.blocked:
        return [transform_configuration(g.sample(mix_seed(seed, i)), c) for i in range(count)]
    kind = _KINDS[g.identity.kind]
    slots = [_slot(e) for e in c]
    orbit = []
    for _, elements, faults in _element_blocks(g, seed, count, 1, 0, _BLOCK):
        # each element of the configuration under the whole block at once,
        # its image rows copied into one stack and checked there
        images, refused = [], faults != 0
        for e, slot in zip(c, slots):
            rows, codes = _act_on(kind, elements, e, slot)
            rows = np.array(rows, dtype=complex)
            refused |= codes != 0
            images.append((_ELEMENT_TYPES[slot][0], rows, _rows_faulty(slot, rows).tolist()))
        for k in range(len(faults)):
            if refused[k]:
                # raises the element's or the action's error at its trial
                orbit.append(transform_configuration(_block_element(kind, elements, faults, k),
                                                     c))
            else:
                # a flagged row goes through its constructor, which raises
                # its error here, as the scalar apply does
                orbit.append(trusted(Configuration, tuple(
                    etype(rows[k]) if flagged[k] else trusted(etype, rows[k])
                    for etype, rows, flagged in images)))
    return orbit


def sample_quadric_preserving_map(q: Quadric, seed: int) -> ProjMap:
    """Seeded projectivity preserving a nondegenerate quadric (exactly, up
    to rounding); used to exercise conjugation invariance of projective
    measurements."""
    from .numerics import sample_form_preserving
    return ProjMap(sample_form_preserving(q.matrix, seed))
