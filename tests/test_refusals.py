"""What each kind of group element maps and what it refuses, pinned; and
the rarely taken branches of the trial loops, the property table and the
report writer; the refusals of the group and property lookups and of
ProjMap, and the scalar comparison and inverse.

A kind acts on the element types it has a map for, on rows of the
coordinate size it declares for its n x n matrices, and refuses every
other row with one code before it maps anything; the codes of the rows
it maps combine by max.  The rules below are read from the code, the
digests are those of the image bytes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from erlangen import groups
from erlangen.groups import (
    _APPLY_ERRORS,
    _KINDS,
    Configuration,
    GroupDescriptor,
    PropertyUndefined,
    Transformation,
    Violated,
    builtin_group,
    check_group_axioms,
    invariance_test,
)
from erlangen.moebius import MoebiusMap, circle_quadric
from erlangen.numerics import DimensionMismatch, GeometryError, equal_up_to_scale, mix_seed
from erlangen.projective import Hyperplane, ProjMap, ProjPoint, Quadric
from erlangen.properties import PROPERTY_NAMES, Sampler, builtin_property
from erlangen.reports import parse_report_trailer, serialize_report
from erlangen.transfers import moebius_circle_matrix

ELEMENT_TYPES = (ProjPoint, Hyperplane, Quadric)

# one group of each kind and matrix size
KIND_GROUPS = [("projective", 1), ("projective", 2), ("projective", 3), ("moebius", 2),
               ("inversive_pentaspherical", 2), ("lie_sphere_extended", 2)]


def _element(etype, size: int):
    """A point, hyperplane or quadric with rows of ``size`` coordinates,
    which the kinds that map it map without a fault of its own row."""
    rng = np.random.default_rng(size)
    if etype is Quadric:
        if size == 3:
            return circle_quadric(0.3 + 0.1j, 0.8)
        return Quadric(np.diag(np.r_[rng.uniform(0.5, 2.0, size - 1), -1.0]))
    return etype(np.r_[rng.uniform(-0.5, 0.5, size - 1), 1.0])


def _refusal(t: Transformation, etype, size: int):
    """The (exception type, message) t.apply raises before mapping an
    element of etype with rows of ``size`` coordinates, or None."""
    n, name = len(t.forward), etype.__name__
    if t.kind == "projective":
        if size == n:
            return None
        return (DimensionMismatch,
                f"projective transformation applied to a {name} of another dimension")
    if t.kind == "moebius" and etype is not Hyperplane and size == 3:
        return None
    if t.kind == "pentaspherical" and etype is Quadric and size == 3 and n == 4:
        return None
    return GeometryError, f"{t.kind} transformation not applicable to {name}"


def _data(element) -> np.ndarray:
    return getattr(element, ("coords", "coeffs", "matrix")[ELEMENT_TYPES.index(type(element))])


def _bytes(element) -> bytes:
    return np.ascontiguousarray(_data(element)).tobytes()


# sha256 (first 16 hex digits) of the images' bytes, in the test's order
IMAGE_DIGESTS = {
    ("projective", 1): "fccbf0b419beae66",
    ("projective", 2): "7c1b3757f7c47fdd",
    ("projective", 3): "6322e2ec000f197b",
    ("moebius", 2): "600d8d1414748398",
    ("inversive_pentaspherical", 2): "a5ae45e6d539394d",
    # no image: the 5 x 5 kind maps nothing
    ("lie_sphere_extended", 2): "e3b0c44298fc1c14",
}


@pytest.mark.parametrize("name,dim", KIND_GROUPS)
def test_apply_maps_or_refuses_each_element_type_and_size(name, dim):
    g = builtin_group(name, dim)
    images = []
    for seed in range(3):
        t = g.sample(seed)
        for etype in ELEMENT_TYPES:
            for size in (2, 3, 4, 5):
                refusal = _refusal(t, etype, size)
                try:
                    image = t.apply(_element(etype, size))
                except GeometryError as exc:
                    assert (type(exc), str(exc)) == refusal
                else:
                    assert refusal is None and type(image) is etype
                    images.append(_bytes(image))
    assert hashlib.sha256(b"".join(images)).hexdigest()[:16] == IMAGE_DIGESTS[name, dim]


def _code(t: Transformation, e) -> int:
    """The code in _APPLY_ERRORS of the error t.apply(e) raises before it
    builds an image (0: none)."""
    try:
        t.apply(e)
    except GeometryError as exc:
        for code, (etype, message) in enumerate(_APPLY_ERRORS):
            if code and type(exc) is etype and str(exc) == message.format(
                    kind=t.kind, element=type(e).__name__):
                return code
        raise
    return 0


# a finite point, the point at infinity, and the pole of 1/(z - (0.5 + 0.25i))
POINTS = [ProjPoint([0.1, -0.3, 1.0]), ProjPoint([1.0, 0.0, 0.0]), ProjPoint([0.5, 0.25, 1.0])]
HYPERPLANES = [Hyperplane([0.2, -1.0, 0.5]), Hyperplane([1.0, 1.0, 1.0])]
# a circle, a conic that is not a circle, one that is not real, and a circle
# through the origin, which the inversion z -> 1/z sends to a line
CONICS = [circle_quadric(0.3 + 0.1j, 0.8), Quadric(np.diag([1.0, 2.0, -1.0])),
          Quadric(np.diag([1.0, 1.0, 1.0j])), circle_quadric(0.5, 0.5)]
# the slots (points, hyperplanes, quadrics) a stack fills, and the size of
# its point rows
SLOT_SETS = [((0,), 3), ((1,), 3), ((2,), 3), ((0, 2), 3), ((0, 1), 3), ((1, 2), 3),
             ((0, 1, 2), 3), ((0, 2), 4), ((0,), 4)]


# the codes of each kind's trials below: 1 and 2 refuse a slot, 3-5 are point
# faults, 6 a circle mapped to a line, 7 and 8 conics that are not real circles
ACT_CODES = {"projective": {0, 2}, "moebius": {0, 1, 3, 4, 7, 8},
             "inversive_pentaspherical": {0, 1, 6, 7, 8}, "lie_sphere_extended": {1}}


def _elements(name: str):
    g = builtin_group(name)
    special = {"moebius": Transformation("moebius", [[0.0, 1.0], [1.0, -(0.5 + 0.25j)]]),
               "inversive_pentaspherical": Transformation(
                   "pentaspherical", moebius_circle_matrix(MoebiusMap(0, 1, 1, 0)))}
    return [g.sample(s) for s in range(4)] + ([special[name]] if name in special else [])


@pytest.mark.parametrize("name", ["projective", "moebius", "inversive_pentaspherical",
                                  "lie_sphere_extended"])
def test_act_codes_on_mixed_stacks(name):
    """A kind's action on stacks that fill several slots: each trial gets
    the refusal code of a refused slot, else the max of its rows' codes,
    and the rows of a trial with code 0 are the scalar images."""
    ts = _elements(name)
    kind = _KINDS[ts[0].kind]
    b = 20
    forward, inverse = (np.array([getattr(ts[k % len(ts)], attr) for k in range(b)])
                        for attr in ("forward", "inverse_map"))
    antilinear = np.array([ts[k % len(ts)].antilinear for k in range(b)])
    seen = set()
    for slots, size in SLOT_SETS:
        rows = [[[], [], []] for _ in range(b)]
        for k in range(b):
            if 0 in slots:
                rows[k][0] = [ProjPoint(np.r_[POINTS[(k + j) % 3].coords, [1.0] * (size - 3)])
                              for j in range(2)]
            if 1 in slots:
                rows[k][1] = [HYPERPLANES[k % 2]]
            if 2 in slots:
                rows[k][2] = [CONICS[k % 4], CONICS[(k + 1) % 4]]
        stacks = []
        for slot, m in enumerate((size, 3, 3)):
            data = [[_data(e) for e in rows[k][slot]] for k in range(b)]
            shape = (b, len(data[0])) + ((m,) if slot < 2 else (3, 3))
            stacks.append(np.array(data, dtype=complex).reshape(shape))
        *images, codes = kind.act(forward, inverse, antilinear, *stacks)
        for k in range(b):
            t = ts[k % len(ts)]
            row_codes = [_code(t, e) for slot in rows[k] for e in slot]
            refused = [c for c in row_codes if c in (1, 2)]
            assert codes[k] == (refused[0] if refused else max(row_codes))
            seen.add(int(codes[k]))
            if codes[k] == 0:
                for slot, elements in enumerate(rows[k]):
                    for j, e in enumerate(elements):
                        assert images[slot][k, j].tobytes() == _bytes(t.apply(e))
    assert seen == ACT_CODES[name]


class _Recording(Sampler):
    """A built-in sampler that records the seeds of its scalar calls."""

    def __init__(self, sampler: Sampler):
        super().__init__(sampler.dimension, sampler.draw)
        self.seeds = []

    def __call__(self, seed: int):
        self.seeds.append(seed)
        return super().__call__(seed)


def _run(prop_name: str, dim: int, g: GroupDescriptor, seed: int):
    """The outcome of invariance_test: the report, its type, trial and
    counts, or the error and the configuration seed of the trial that
    raised it."""
    prop = builtin_property(prop_name, dim)
    sampler = _Recording(prop.sample_config)
    try:
        verdict = invariance_test(prop.evaluate, g, sampler, seed, 8)
    except GeometryError as exc:
        return type(exc), str(exc), sampler.seeds[-1:]
    fields = (serialize_report(verdict), type(verdict), verdict.trials_executed)
    if isinstance(verdict, Violated):
        return fields + (verdict.trial, repr(verdict.config))
    return fields + (verdict.trials_skipped,)


# properties and the dimensions of their samplers
SAMPLERS = [("euclidean-distance", 3), ("angle", 1), ("cross-ratio", 3), ("incidence", 1),
            ("incidence", 3), ("collinearity", 3), ("tangency", 2), ("cross-ratio", 2)]
GROUPS = [("euclidean_isometries", 3), ("principal", 2), ("affine", 1), ("projective", 3),
          ("projective", 2), ("moebius", 2), ("inversive_pentaspherical", 2),
          ("lie_sphere_extended", 2)]


@pytest.mark.parametrize("name,dim", GROUPS)
def test_a_sampler_of_another_dimension_gets_the_per_trial_outcome(name, dim):
    g = builtin_group(name, dim)
    per_trial = GroupDescriptor(g.name, g.dimension, g.identity, g.sample, g.contains)
    outcomes = set()
    for prop_name, prop_dim in SAMPLERS:
        if prop_dim == dim:
            continue
        for seed in range(3):
            outcome = _run(prop_name, prop_dim, g, seed)
            assert outcome == _run(prop_name, prop_dim, per_trial, seed)
            outcomes.add(outcome[0])
    # every such pair is refused by the action, at the first trial that maps
    assert outcomes == {DimensionMismatch if g.identity.kind == "projective" else GeometryError}


def test_elements_of_two_kinds_do_not_compose():
    t1, t2 = builtin_group("moebius").sample(1), builtin_group("projective", 1).sample(1)
    with pytest.raises(GeometryError, match="^cannot compose transformations of different kinds$"):
        t1.compose(t2)


@pytest.mark.parametrize("name", ["affine", "projective"])
def test_a_group_of_dimension_zero_is_refused(name):
    with pytest.raises(GeometryError, match=f"^{name} needs dimension >= 1$"):
        builtin_group(name, 0)


def test_the_per_trial_axioms_record_an_identity_that_changes_elements():
    g = builtin_group("projective", 2)
    stretched = GroupDescriptor(g.name, 2, Transformation("projective", np.diag([2.0, 1.0, 1.0])),
                                g.sample, g.contains)
    report = check_group_axioms(stretched, 3, 5)
    assert report.identity_failures == [(i, mix_seed(3, 2 * i), mix_seed(3, 2 * i + 1))
                                        for i in range(5)]
    assert report.closure_failures == report.inverse_failures == []


def test_the_axioms_record_an_identity_that_contains_rejects():
    g = builtin_group("euclidean_isometries", 2)
    # the block path decides the trials by contains_matrices, the identity by contains
    report = check_group_axioms(dataclasses.replace(g, contains=lambda t, tol=1e-8: False), 3, 5)
    assert report.identity_failures == [(-1, 0, 0)]
    assert report.closure_failures == report.inverse_failures == []


# sha256 (first 16 hex digits) of the closure, inverse and identity failure
# lists of check_group_axioms over seeds 1-3, 130 trials each, per built-in
# group cell and at tol 3e-15, 1e-12 and 1e-8.  At these tolerances every
# list is empty, so each digest is that of three empty triples.
NO_FAILURES = "110ab6e3ec639c33"
AXIOM_DIGESTS = {
    (name, dim): (NO_FAILURES,) * 3
    for name, dims in (("euclidean_isometries", (2, 3)), ("principal", (2, 3)),
                       ("affine", (1, 2, 3)), ("projective", (1, 2, 3)), ("moebius", (2,)),
                       ("inversive_pentaspherical", (2,)), ("lie_sphere_extended", (2,)))
    for dim in dims}


@pytest.mark.parametrize("name,dim", sorted(AXIOM_DIGESTS))
def test_the_axiom_failure_lists_are_pinned(name, dim):
    g = builtin_group(name, dim)
    digests = []
    for tol in (3e-15, 1e-12, 1e-8):
        data = b""
        for seed in (1, 2, 3):
            r = check_group_axioms(g, seed, 130, tol)
            data += repr((r.closure_failures, r.inverse_failures, r.identity_failures)).encode()
        digests.append(hashlib.sha256(data).hexdigest()[:16])
    assert tuple(digests) == AXIOM_DIGESTS[(name, dim)]


@pytest.mark.parametrize("points,reason", [
    ([[0.1, 0.2, 1.0]], "needs two points"),
    # a point on the absolute
    ([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]], "outside the metric domain"),
    ([[1.5, 0.0, 1.0], [0.0, 0.0, 1.0]], "outside the metric domain"),
    # points of another space than the plane
    ([[0.1, 0.2, 0.3, 1.0], [0.2, 0.1, 0.0, 1.0]], "outside the metric domain"),
    ([[0.1, 1.0], [0.2, 1.0]], "outside the metric domain")])
def test_ck_distance_is_undefined_off_its_domain(points, reason):
    prop = builtin_property("ck-distance", 2, "klein-disk")
    with pytest.raises(PropertyUndefined, match=f"^{reason}$"):
        prop.evaluate(Configuration([ProjPoint(p) for p in points]))


def test_ck_distance_takes_the_elliptic_metric_and_refuses_another():
    prop = builtin_property("ck-distance", 2, "elliptic")
    verdict = invariance_test(prop.evaluate, builtin_group("euclidean_isometries"),
                              prop.sample_config, 1, 20)
    assert parse_report_trailer(serialize_report(verdict)) == {
        "verdict": "violated", "trials": 1, "tol": 1e-09,
        "witness_seed": 13757245211066428519, "witness_config_seed": 10451216379200822465}
    with pytest.raises(GeometryError, match="^unknown metric 'hyperbolic'$"):
        builtin_property("ck-distance", 2, "hyperbolic")


def test_a_report_of_an_unknown_type_is_refused():
    with pytest.raises(TypeError, match="^cannot serialize int$"):
        serialize_report(3)


def test_a_sampler_of_another_dimension_takes_the_block_path(monkeypatch):
    taken = []
    block_outcomes = groups._block_outcomes

    def recording(*args):
        taken.append(args[1].name)
        return block_outcomes(*args)

    monkeypatch.setattr(groups, "_block_outcomes", recording)
    _run("angle", 1, builtin_group("projective", 3), 0)
    assert taken == ["projective"]


@pytest.mark.parametrize("matrix,message", [
    (np.ones(3), "ProjMap needs a square matrix of size >= 2"),
    (np.ones((2, 3)), "ProjMap needs a square matrix of size >= 2"),
    ([[1.0]], "ProjMap needs a square matrix of size >= 2"),
    ([[1.0, np.nan], [0.0, 1.0]], "ProjMap: non-finite entries"),
    (np.full((2, 3), np.inf), "ProjMap: non-finite entries"),
    (np.zeros((3, 3)), "ProjMap matrix must not vanish"),
    ([[1.0, 2.0], [2.0, 4.0 + 1e-14]], "ProjMap matrix is (numerically) singular")])
def test_projmap_refuses_a_matrix(matrix, message):
    with pytest.raises(GeometryError) as info:
        ProjMap(matrix)
    assert (type(info.value), str(info.value)) == (GeometryError, message)


@pytest.mark.parametrize("v,w,equal", [
    ([1.0, 2j], [2j, -4.0], True),
    # both sides are flattened
    (np.eye(2), [1.0, 0.0, 0.0, 1.0], True),
    ([1.0, 2.0], [1.0, 2.0, 3.0], False),
    ([0.0, 0.0], [0.0, 0.0], False),
    ([1.0, 0.0], [0.0, 0.0], False),
    # w is small where v is largest
    ([1.0, 0.1], [0.4, 1.0], False),
    ([1.0, np.nan], [1.0, 1.0], False)])
def test_equal_up_to_scale_on_edge_cases(v, w, equal):
    assert equal_up_to_scale(v, w) is equal


@pytest.mark.parametrize("conjugating,parts", [
    (True, [(3.0, 1.0), (0.0, -0.5), (-0.25, 0.0), (1.0, -2.0)]),
    (False, [(3.0, -1.0), (0.0, 0.5), (-0.25, -0.0), (1.0, 2.0)])])
def test_moebius_inverse_bytes(conjugating, parts):
    inverse = MoebiusMap(1 + 2j, -0.5j, 0.25, 3 - 1j, conjugating).inverse()
    assert inverse.conjugating is conjugating
    got = np.array([inverse.a, inverse.b, inverse.c, inverse.d])
    assert got.tobytes() == np.array([complex(*z) for z in parts]).tobytes()


@pytest.mark.parametrize("name,dim,message", [
    ("euclidean_isometries", 4, "euclidean_isometries supports dimensions 2 and 3 only"),
    ("principal", 1, "principal supports dimensions 2 and 3 only"),
    ("moebius", 3, "moebius is planar (dimension 2)"),
    ("lie_sphere_extended", 1, "lie_sphere_extended is planar (dimension 2)"),
    ("hyperbolic", 2, "unknown builtin group: hyperbolic")])
def test_builtin_group_refusals(name, dim, message):
    with pytest.raises(GeometryError) as info:
        builtin_group(name, dim)
    assert (type(info.value), str(info.value)) == (GeometryError, message)


PROPERTY_REFUSALS = [
    ("angle", 2, "elliptic", "property 'angle' takes no metric parameter"),
    ("ck-distance", 2, None, "ck-distance requires a metric parameter"),
    ("tangency", 3, None, "tangency is a plane property"),
    ("ck-distance", 3, "klein-disk", "ck-distance is a plane property"),
    ("ck-distance", 1, "elliptic", "ck-distance is a plane property"),
    ("area", 2, None, "unknown property: area")]


def _by_dimension(*messages):
    """The refusals at dimensions -1 to 4, from (message, count) runs; a
    None message: the lookup succeeds."""
    return [message for message, count in messages for _ in range(count)]


_NEEDS_ONE = "{} needs dimension >= 1"
_PLANE = "{} is a plane property"
_COLLINEARITY = "collinearity needs dimension >= 2: all points of P^1 lie on its one line"
#: per (name, metric), builtin_property's refusal at dimensions -1 to 4
#: (None: accepted); the metric-free properties refuse every metric alike
PROPERTY_GRID = {
    ("euclidean-distance", None): _by_dimension((_NEEDS_ONE, 2), (None, 4)),
    ("angle", None): _by_dimension((_NEEDS_ONE, 2), (None, 4)),
    ("cross-ratio", None): _by_dimension((_NEEDS_ONE, 2), (None, 4)),
    ("incidence", None): _by_dimension((_NEEDS_ONE, 2), (None, 4)),
    ("tangency", None): _by_dimension((_PLANE, 3), (None, 1), (_PLANE, 2)),
    ("collinearity", None): _by_dimension((_COLLINEARITY, 3), (None, 3)),
    ("ck-distance", None): _by_dimension(("ck-distance requires a metric parameter", 6)),
    ("ck-distance", "klein-disk"): _by_dimension((_PLANE, 3), (None, 1), (_PLANE, 2)),
    ("ck-distance", "elliptic"): _by_dimension((_PLANE, 3), (None, 1), (_PLANE, 2)),
    # the checks run in order (a metric where none is taken, the name, the
    # metric, the dimension), so these refuse at every dimension
    ("ck-distance", "hyperbolic"): _by_dimension(("unknown metric 'hyperbolic'", 6)),
    ("area", None): _by_dimension(("unknown property: area", 6)),
    **{(name, metric): _by_dimension((f"property {name!r} takes no metric parameter", 6))
       for name in PROPERTY_NAMES + ("area",) if name != "ck-distance"
       for metric in ("klein-disk", "elliptic", "hyperbolic")},
}
PROPERTY_GRID_CELLS = [(name, dim, metric, message and message.format(name))
                       for (name, metric), messages in PROPERTY_GRID.items()
                       for dim, message in zip(range(-1, 5), messages)]


@pytest.mark.parametrize("name,dim,metric,message", PROPERTY_REFUSALS + [
    cell for cell in PROPERTY_GRID_CELLS if cell not in PROPERTY_REFUSALS])
def test_builtin_property_refusals(name, dim, metric, message):
    if message is None:
        # an accepted property samples a configuration of its dimension
        prop = builtin_property(name, dim, metric)
        assert prop.name == name
        assert prop.sample_config(1)[0].dim == dim
        return
    with pytest.raises(GeometryError) as info:
        builtin_property(name, dim, metric)
    assert (type(info.value), str(info.value)) == (GeometryError, message)
