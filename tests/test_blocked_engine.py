"""The block path of the trial loops against the per-trial loop.

Every built-in group carries a stacked sampler and membership test, so
check_group_axioms, invariance_test and orbit_sample sample, validate,
invert and compose its elements a block of trials at a time, and each
kind of element has one stacked action, so orbit_sample maps its
configuration a block of elements at a time; the built-in samplers are
stacked, so invariance_test also samples and maps configurations a block
at a time, and evaluates them on stacks with every built-in functional;
any other callable runs each trial alone, as in the per-trial loop.
Rebuilding the same group without the block fields gives the per-trial
loop, and the scalar samplers, property bodies, actions and constructors
the stacked ones replaced, and the tagged-union group element that the
record Transformation replaced, are kept below: together they are the
reference here.  Every verdict, witness seed, error and output byte must be the
same on both paths.
"""

import ast
import dataclasses
import inspect
import textwrap

import numpy as np
import pytest
from scipy.linalg import expm

from erlangen import cayley_klein, groups, names, properties
from erlangen.moebius import (
    MoebiusMap,
    circle_quadric,
    moebius_faults,
    moebius_inverses,
    random_moebius,
)
from erlangen.numerics import (
    GeometryError,
    as_complex_array,
    complex_abs,
    complex_product,
    equal_up_to_scale,
    mix_seed,
    proportionality,
    proportionality_stack,
    rng_from,
    row_dot,
    row_norm,
)
from erlangen.projective import (
    Hyperplane,
    ProjMap,
    ProjPoint,
    Quadric,
    coords_faulty,
    map_hyperplanes,
    map_points,
    map_quadrics,
)
from erlangen.groups import (
    _KINDS,
    _sampled,
    BUILTIN_GROUP_NAMES,
    Configuration,
    GroupDescriptor,
    Invariant,
    PropertyUndefined,
    Transformation,
    Violated,
    builtin_group,
    check_group_axioms,
    invariance_test,
    is_similarity_via_circular_points,
    orbit_sample,
    transform_configuration,
)
from erlangen.properties import PROPERTY_NAMES, Functional, Sampler, builtin_property
from erlangen.reports import serialize_report
from erlangen.transfers import random_inversive_map, random_lie_map

GROUP_DIMS = [("euclidean_isometries", 2), ("euclidean_isometries", 3),
              ("principal", 2), ("principal", 3),
              ("affine", 1), ("affine", 2), ("affine", 3),
              ("projective", 1), ("projective", 2), ("projective", 3)]

CIRCLE_GROUPS = ("moebius", "inversive_pentaspherical", "lie_sphere_extended")

SEEDS = range(20)

# a property each group leaves invariant, by dimension
INVARIANT_PROPERTY = {"euclidean_isometries": "euclidean-distance", "principal": "angle",
                      "affine": "cross-ratio", "projective": "cross-ratio"}


def per_trial(g: GroupDescriptor) -> GroupDescriptor:
    """The same group without the block fields: the per-trial loop."""
    return GroupDescriptor(g.name, g.dimension, g.identity, g.sample, g.contains)


# -- the scalar samplers the stacked ones replace, draw for draw ---------------

def _haar(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def _affine(linear, translation):
    d = linear.shape[0]
    m = np.eye(d + 1, dtype=complex)
    m[:d, :d] = linear
    m[:d, d] = translation
    return m


def reference_sample(name, dim, seed):
    rng = rng_from(seed)
    if name == "euclidean_isometries":
        lin = _haar(rng, dim)
        return _affine(lin, rng.uniform(-1.0, 1.0, size=dim))
    if name == "principal":
        lin = _haar(rng, dim)
        scale = np.exp(rng.uniform(np.log(0.25), np.log(4.0)))
        return _affine(scale * lin, rng.uniform(-1.0, 1.0, size=dim))
    if name == "affine":
        q1 = _haar(rng, dim)
        q2 = _haar(rng, dim)
        s = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=dim))
        return _affine(q1 @ np.diag(s) @ q2, rng.uniform(-1.0, 1.0, size=dim))
    while True:
        m = rng.uniform(-1.0, 1.0, size=(dim + 1, dim + 1))
        if np.linalg.cond(m) < 50.0:
            return m.astype(complex)


@pytest.mark.parametrize("name,dim", GROUP_DIMS)
def test_stacked_samples_match_the_scalar_samplers_bitwise(name, dim):
    g = builtin_group(name, dim)
    seeds = [mix_seed(99, k) for k in range(150)]
    stack = g.sample_matrices(seeds)
    assert stack.shape == (150, dim + 1, dim + 1) and stack.dtype == complex
    for seed, m in zip(seeds, stack):
        assert np.array_equal(m, reference_sample(name, dim, seed))
        assert np.array_equal(g.sample(seed).forward, m)


def _normalized_affine(m, tol):
    scale = float(np.max(np.abs(m)))
    d = m.shape[0] - 1
    if abs(m[d, d]) < 1e-12 * scale:
        return None
    m = m / m[d, d]
    if float(np.max(np.abs(m[d, :d]))) > tol * float(np.max(np.abs(m))):
        return None
    return m


def old_contains(name, matrix, tol):
    """The per-group membership tests that the figure check replaced."""
    if name == "projective":
        return True
    m = _normalized_affine(matrix, tol)
    if m is None:
        return False
    d = m.shape[0] - 1
    if name == "affine":
        return bool(abs(np.linalg.det(m[:d, :d] / np.max(np.abs(m)))) > 1e-10)
    gram = m[:d, :d].T @ m[:d, :d]
    if name == "euclidean_isometries":
        return bool(np.max(np.abs(gram - np.eye(d))) <= tol)
    mu = np.trace(gram) / d
    if abs(mu) <= tol:
        return False
    return bool(np.max(np.abs(gram - mu * np.eye(d))) <= tol * max(1.0, abs(mu)))


def reference_contains(name, matrix, tol):
    """Whether the matrix fixes its group's figure F: M F M^T ~ F for the
    dual absolute diag(1, ..., 1, 0), M^T F M ~ F for the hyperplane at
    infinity as the point quadric e e^T; an isometry, scaled to a unit
    corner, with factor 1.  A projectivity fixes nothing."""
    n = len(matrix)
    absolute, at_infinity = np.diag([1.0] * (n - 1) + [0.0]), np.diag([0.0] * (n - 1) + [1.0])
    if name == "projective":
        return True
    if name == "affine":
        return proportionality(matrix.T @ at_infinity @ matrix, at_infinity)[1] <= tol
    if name == "euclidean_isometries" and matrix[-1, -1] != 0:
        matrix = matrix / matrix[-1, -1]
    mu, resid = proportionality(matrix @ absolute @ matrix.T, absolute)
    return resid <= tol and (name == "principal" or abs(mu - 1.0) <= tol)


@pytest.mark.parametrize("name,dim", GROUP_DIMS)
def test_stacked_membership_matches_the_scalar_tests(name, dim):
    g = builtin_group(name, dim)
    stack = g.sample_matrices(range(8))
    tilted = stack.copy()  # moves the hyperplane at infinity
    tilted[:, dim, 0] = 0.5
    sheared = stack.copy()
    sheared[:, 0, dim - 1] += 1e-3
    swapped = stack.copy()  # the corner entry vanishes
    swapped[:, dim, dim] = 0.0
    swapped[:, dim, 0] = 1.0
    for candidates in (stack, stack @ stack[::-1], 2.5j * stack, tilted, sheared, swapped):
        for tol in (1e-8, 4e-16):
            verdicts = g.contains_matrices(candidates, tol)
            assert list(verdicts) == [reference_contains(name, m, tol) for m in candidates]
            # contains reads only the forward matrix
            wrapped = [groups._element("projective", m, m, False) for m in candidates]
            assert list(verdicts) == [g.contains(t, tol) for t in wrapped]
        # the figure check keeps the verdicts of the tests it replaced
        assert list(g.contains_matrices(candidates, 1e-8)) == [
            old_contains(name, m, 1e-8) for m in candidates]
    assert all(g.contains_matrices(stack, 1e-8))
    assert not any(g.contains_matrices(tilted, 1e-8)) or name == "projective"


def test_the_circular_points_are_the_principal_figure():
    i, j = np.array([1.0, 1j, 0.0]), np.array([1.0, -1j, 0.0])
    assert proportionality(groups._absolute(3), np.outer(i, j) + np.outer(j, i))[1] < 1e-15
    # sampled similarities, and the 1000 random matrices of TestSimilarityCriterion
    principal = builtin_group("principal", 2)
    rng = rng_from(2)
    matrices = list(principal.sample_matrices(range(200)))
    while len(matrices) < 1200:
        m = rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(m)) >= 1e-3:
            matrices.append(m.astype(complex))
    for m in matrices:
        assert is_similarity_via_circular_points(m.real) == bool(
            principal.contains_matrices(m[None], 1e-10)[0])


def test_every_builtin_group_takes_the_block_path():
    for name, dim in GROUP_DIMS + [(name, 2) for name in CIRCLE_GROUPS]:
        assert builtin_group(name, dim).blocked
        assert not per_trial(builtin_group(name, dim)).blocked
    assert {name for name, _ in GROUP_DIMS} | set(CIRCLE_GROUPS) == set(BUILTIN_GROUP_NAMES)


# -- axioms ------------------------------------------------------------------

@pytest.mark.parametrize("name,dim", GROUP_DIMS)
def test_axiom_reports_match(name, dim):
    g = builtin_group(name, dim)
    ref = per_trial(g)
    for seed in SEEDS:
        # at a membership tolerance of a few ulps the metric groups' verdicts,
        # and so the failure lists, depend on the last bits of each matrix
        for tol in (1e-8, 4e-16):
            blocked = check_group_axioms(g, seed, 4, tol)
            serial = check_group_axioms(ref, seed, 4, tol)
            assert blocked == serial
            assert serialize_report(blocked) == serialize_report(serial)
    # more trials than one block holds
    assert check_group_axioms(g, 5, 70, 4e-16) == check_group_axioms(ref, 5, 70, 4e-16)


# -- invariance --------------------------------------------------------------

def _same_invariance(prop, g, seed, trials):
    blocked = invariance_test(prop.evaluate, g, prop.sample_config, seed, trials)
    serial = invariance_test(prop.evaluate, per_trial(g), prop.sample_config, seed, trials)
    assert serialize_report(blocked) == serialize_report(serial)
    assert type(blocked) is type(serial)
    if isinstance(blocked, Violated):
        for field in ("trial", "config_seed", "transform_seed", "trials_executed"):
            assert getattr(blocked, field) == getattr(serial, field)
        assert repr(blocked.before) == repr(serial.before)
        assert repr(blocked.after) == repr(serial.after)
        assert np.array_equal(blocked.transformation.forward, serial.transformation.forward)
    return blocked


@pytest.mark.parametrize("name,dim", GROUP_DIMS)
def test_invariance_reports_match(name, dim):
    g = builtin_group(name, dim)
    prop = builtin_property(INVARIANT_PROPERTY[name], dim)
    for seed in SEEDS:
        # 9 trials span the probe trial and a block of 8
        assert _same_invariance(prop, g, seed, 9).invariant


@pytest.mark.parametrize("name,prop_name", [("affine", "euclidean-distance"),
                                            ("projective", "angle")])
def test_violated_cells_match(name, prop_name):
    g = builtin_group(name, 2)
    prop = builtin_property(prop_name, 2)
    for seed in SEEDS:
        assert not _same_invariance(prop, g, seed, 30).invariant


def test_invariance_over_full_blocks_matches():
    g = builtin_group("projective", 2)
    for prop_name in ("incidence", "collinearity"):
        verdict = _same_invariance(builtin_property(prop_name, 2), g, 3, 140)
        assert verdict.trials_executed == 140


# -- orbits ------------------------------------------------------------------

def _image_bytes(images):
    return b"".join(np.ascontiguousarray(e.coords if isinstance(e, ProjPoint) else e.matrix)
                    .tobytes() for img in images for e in img)


@pytest.mark.parametrize("name,dim", GROUP_DIMS)
def test_orbit_images_match_bytewise(name, dim):
    g = builtin_group(name, dim)
    rng = np.random.default_rng(dim)
    config = Configuration([ProjPoint(list(rng.uniform(-1, 1, dim)) + [1.0])
                            for _ in range(3)])
    for seed in SEEDS:
        blocked = orbit_sample(config, g, seed, 3)
        assert _image_bytes(blocked) == _image_bytes(orbit_sample(config, per_trial(g), seed, 3))
    assert _image_bytes(orbit_sample(config, g, 1, 70)) == \
        _image_bytes(orbit_sample(config, per_trial(g), 1, 70))


# -- block schedule ----------------------------------------------------------

def _counting(g):
    requested = []

    def sample_matrices(seeds):
        requested.append(len(seeds))
        return g.sample_matrices(seeds)

    return dataclasses.replace(g, sample_matrices=sample_matrices), requested


def test_witness_at_trial_zero_samples_one_element():
    g, requested = _counting(builtin_group("affine", 2))
    prop = builtin_property("euclidean-distance", 2)
    verdict = invariance_test(prop.evaluate, g, prop.sample_config, seed=1, trials=100)
    assert isinstance(verdict, Violated) and verdict.trial == 0
    assert requested == [1]


def test_block_sizes():
    g, requested = _counting(builtin_group("projective", 2))
    prop = builtin_property("cross-ratio", 2)
    invariance_test(prop.evaluate, g, prop.sample_config, seed=1, trials=200)
    assert requested == [1, 64, 64, 64, 7]
    del requested[:]
    check_group_axioms(g, seed=1, trials=130)
    assert requested == [128, 128, 4]
    del requested[:]
    orbit_sample(Configuration([ProjPoint([0.1, 0.2, 1.0])]), g, seed=1, count=65)
    assert requested == [64, 1]


@pytest.mark.parametrize("first", [1, groups._BLOCK])
def test_blocks_are_contiguous_and_full(first):
    for trials in range(1, 301):
        bounds = list(groups._block_bounds(trials, first))
        assert [b for b, _ in bounds] == [0] + [e for _, e in bounds[:-1]]
        assert bounds[-1][1] == trials
        sizes = [e - b for b, e in bounds]
        assert sizes[0] == min(first, trials)
        assert all(size == groups._BLOCK for size in sizes[1:-1])
        assert 0 < sizes[-1] <= groups._BLOCK


# -- errors in trial order ---------------------------------------------------

BAD = {"nan": np.full((3, 3), np.nan),
       "zero": np.zeros((3, 3)),
       "singular": np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]),
       # passes every check, but its inverse overflows
       "tiny": 1e-310 * np.eye(3)}


def faulty_group(bad_seeds, name="projective"):
    """The plane group ``name``, with the given matrix at each seed of
    ``bad_seeds``; its scalar sampler wraps the matrices with the
    constructor itself."""
    base = builtin_group(name, 2)

    def sample_matrices(seeds):
        sampled = base.sample_matrices(seeds)
        stack = sampled[0] if name == "moebius" else sampled
        for b, seed in enumerate(seeds):
            if seed in bad_seeds:
                stack[b] = bad_seeds[seed]
        return sampled

    def sample(seed):
        if name == "moebius":
            coeffs, antilinear = sample_matrices([seed])
            return Transformation("moebius", coeffs[0], antilinear=antilinear[0], check=False)
        return Transformation(base.identity.kind, sample_matrices([seed])[0], check=False)

    return GroupDescriptor("faulty", 2, base.identity, sample, base.contains,
                           sample_matrices, base.contains_matrices)


def _outcome(fn):
    try:
        return fn()
    except (GeometryError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _both(run, g):
    return _outcome(lambda: run(g)), _outcome(lambda: run(per_trial(g)))


# the subnormal matrix warns in ProjMap.__init__ and in its stacked checks alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(BAD))
def test_axiom_errors_in_trial_order(kind):
    # both elements of trial 5 are bad, and so is trial 9's second
    g = faulty_group({mix_seed(4, 10): BAD[kind], mix_seed(4, 11): BAD["zero"],
                      mix_seed(4, 19): BAD["nan"]})
    blocked, serial = _both(lambda h: check_group_axioms(h, 4, 12), g)
    assert blocked == serial and isinstance(blocked, tuple)


# the subnormal matrix warns in ProjMap.__init__ and in its stacked checks alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(BAD))
def test_orbit_errors_in_trial_order(kind):
    g = faulty_group({mix_seed(4, 7): BAD[kind], mix_seed(4, 9): BAD["nan"]})
    config = Configuration([ProjPoint([0.1, 0.2, 1.0])])
    blocked, serial = _both(lambda h: orbit_sample(config, h, 4, 12), g)
    assert blocked == serial and isinstance(blocked, tuple)


def test_invariance_raises_only_if_no_earlier_trial_is_a_witness():
    angle = builtin_property("angle", 2)

    def run(g):
        return _outcome(lambda: serialize_report(
            invariance_test(angle.evaluate, g, angle.sample_config, 1, 10)))

    def tseed(i):
        return mix_seed(1, 3 * i + 1)

    eye = np.eye(3)
    # trials 1 and 2 share a block; trial 1 is the witness, trial 2 is bad
    g = faulty_group({tseed(0): eye, tseed(2): BAD["nan"]})
    blocked = run(g)
    assert blocked == run(per_trial(g))
    assert "  trial: 1\n" in blocked
    # with no witness before it, the bad element raises on both paths
    g = faulty_group({tseed(0): eye, tseed(1): eye, tseed(2): BAD["nan"]})
    assert run(g) == run(per_trial(g)) == (GeometryError, "ProjMap: non-finite entries")


def _raising(which, bad_seed):
    """The angle functional and sampler, with ``which`` of their stacked
    forms raising RuntimeError on the configuration of ``bad_seed``."""
    angle = builtin_property("angle", 2)
    bad = angle.sample_config.sample_stacks([bad_seed])[0][0]

    class Raising(Sampler):
        def sample_stacks(self, seeds):
            if which == "sample_stacks" and bad_seed in seeds:
                raise RuntimeError(f"no stacks for {bad_seed}")
            return super().sample_stacks(seeds)

    def evaluate_stacks(points, hyperplanes, quadrics):
        if which == "evaluate_stacks" and (points == bad).all(axis=(1, 2)).any():
            raise RuntimeError("no values for those points")
        return angle.evaluate.evaluate_stacks(points, hyperplanes, quadrics)

    return (Functional(evaluate_stacks, angle.evaluate.reasons),
            Raising(2, angle.sample_config.draw))


def _outcome_or_runtime_error(fn):
    try:
        return _outcome_of(fn)
    except RuntimeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("which", ["sample_stacks", "evaluate_stacks"])
def test_a_raising_stacked_form_does_not_preempt_an_earlier_witness(which):
    prop, sampler = _raising(which, mix_seed(1, 6))

    def run(g):
        return _outcome_or_runtime_error(lambda: invariance_test(prop, g, sampler, 1, 10))

    # trial 0 maps by the identity; trials 1 and 2 share a block, trial 1 is
    # the witness and trial 2 draws the configuration that raises
    g = faulty_group({mix_seed(1, 1): np.eye(3)})
    blocked = run(g)
    assert blocked == run(per_trial(g))
    assert blocked["type"] is Violated and blocked["trial"] == 1
    # with no witness before it, trial 2 raises on both paths
    g = faulty_group({mix_seed(1, 1): np.eye(3), mix_seed(1, 4): np.eye(3)})
    assert run(g) == run(per_trial(g)) == (RuntimeError, "no stacks for "
                                           f"{mix_seed(1, 6)}" if which == "sample_stacks"
                                           else "no values for those points")


def test_a_sampler_that_raises_at_random_trials_matches_the_per_trial_loop():
    """Cross-ratio at a tolerance of a few ulps is violated at a trial that
    the last bits decide; the sampler raises for about one seed in 16."""
    prop = builtin_property("cross-ratio", 2)

    class Raising(Sampler):
        def sample_stacks(self, seeds):
            if any(seed % 16 == 0 for seed in seeds):
                raise RuntimeError("no stacks")
            return super().sample_stacks(seeds)

    sampler = Raising(2, prop.sample_config.draw)
    g = builtin_group("projective", 2)
    outcomes = []
    for seed in range(60):
        blocked, serial = (_outcome_or_runtime_error(lambda: invariance_test(
            prop.evaluate, h, sampler, seed, 30, 1e-15)) for h in (g, per_trial(g)))
        assert blocked == serial
        outcomes.append(blocked[0] if isinstance(blocked, tuple) else blocked["type"])
    assert {RuntimeError, Violated} <= set(outcomes)


# -- the scalar property bodies and samplers the stacked ones replace ----------

def _old_affine(p):
    v = p.coords / p.coords[int(np.argmax(np.abs(p.coords)))]
    if abs(v[-1]) < 1e-10:
        raise PropertyUndefined("point at infinity")
    return (v / v[-1])[:-1]


def _old_point(coords):
    return ProjPoint(list(coords) + [1.0])


def old_distance(c):
    if len(c) < 2:
        raise PropertyUndefined("needs two points")
    a, b = _old_affine(c[0]), _old_affine(c[1])
    return complex(np.sqrt(complex((a - b) @ (a - b))))


def old_angle(c):
    if len(c) < 3:
        raise PropertyUndefined("needs three points")
    o, a, b = (_old_affine(p) for p in c.elements[:3])
    u, v = a - o, b - o
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        raise PropertyUndefined("degenerate ray")
    cosv = complex(u @ v) / (nu * nv)
    return complex(np.arccos(np.clip(cosv.real, -1.0, 1.0)))


def old_cross_ratio(pts, tol=1e-10):
    stack = np.array([p.coords for p in pts])
    stack = stack / np.max(np.abs(stack))
    _, s, vh = np.linalg.svd(stack)
    if s.size > 2 and s[2] > max(tol, 1e-12) * s[0] * 100:
        raise GeometryError("cross-ratio requires collinear points")
    a, b = stack @ np.conj(vh[0]), stack @ np.conj(vh[1])

    def det(i, j):
        return a[i] * b[j] - a[j] * b[i]

    num = det(0, 2) * det(1, 3)
    den = det(0, 3) * det(1, 2)
    m = max(abs(num), abs(den))
    if m == 0.0:
        raise GeometryError("cross-ratio is indeterminate (0/0 coincidence)")
    if abs(den) < 1e-14 * m:
        raise GeometryError("cross-ratio is infinite for this coincidence")
    return complex(num / den)


def old_cross_ratio_prop(c):
    if len(c) < 4:
        raise PropertyUndefined("needs four points")
    try:
        return old_cross_ratio(c.elements[:4])
    except GeometryError:
        raise PropertyUndefined("points not collinear") from None


def old_incident(p, h, tol):
    val = abs(h.coeffs @ p.coords)
    return bool(val / (np.linalg.norm(h.coeffs) * np.linalg.norm(p.coords)) < tol)


def old_incidence(c):
    pt = next((e for e in c if isinstance(e, ProjPoint)), None)
    h = next((e for e in c if isinstance(e, Hyperplane)), None)
    if pt is None or h is None:
        raise PropertyUndefined("needs a point and a hyperplane")
    return old_incident(pt, h, 1e-8)


def old_collinearity(c):
    if len(c) < 3:
        raise PropertyUndefined("needs three points")
    stack = np.array([p.coords for p in c.elements[:3]])
    stack = stack / np.max(np.abs(stack))
    s = np.linalg.svd(stack, compute_uv=False)
    return bool(s[2] < 1e-8 * s[0])


def old_points_sampler(count, dimension):
    def sample(seed):
        rng = rng_from(seed)
        return Configuration([_old_point(rng.uniform(-1, 1, dimension))
                              for _ in range(count)])
    return sample


def old_quadruple_sampler(dimension):
    def sample(seed):
        rng = rng_from(seed)
        base = rng.uniform(-1, 1, dimension)
        direction = rng.uniform(-1, 1, dimension)
        direction /= np.linalg.norm(direction)
        while True:
            ts = rng.uniform(-2, 2, 4)
            if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) > 0.05:
                break
        return Configuration([_old_point(base + t * direction) for t in ts])
    return sample


def old_incidence_sampler(dimension):
    def sample(seed):
        rng = rng_from(seed)
        coeffs = rng.uniform(-1, 1, dimension + 1)
        h = Hyperplane(coeffs)
        if rng.random() < 0.5:
            basis = np.eye(dimension + 1)
            k = int(np.argmax(np.abs(coeffs)))
            vecs = [basis[:, i] - (coeffs[i] / coeffs[k]) * basis[:, k]
                    for i in range(dimension + 1) if i != k]
            weights = rng.uniform(-1, 1, len(vecs))
            pt = ProjPoint(sum(w * v for w, v in zip(weights, vecs)))
        else:
            pt = _old_point(rng.uniform(-1, 1, dimension))
        return Configuration([pt, h])
    return sample


def old_triple_sampler(dimension):
    def sample(seed):
        rng = rng_from(seed)
        if rng.random() < 0.5:
            base = rng.uniform(-1, 1, dimension)
            direction = rng.uniform(-1, 1, dimension)
            ts = rng.uniform(-1.5, 1.5, 2)
            pts = [base, base + ts[0] * direction, base + ts[1] * direction]
        else:
            pts = [rng.uniform(-1, 1, dimension) for _ in range(3)]
        return Configuration([_old_point(p) for p in pts])
    return sample


OLD_PROPERTIES = {
    "euclidean-distance": (old_distance, lambda d: old_points_sampler(2, d)),
    "angle": (old_angle, lambda d: old_points_sampler(3, d)),
    "cross-ratio": (old_cross_ratio_prop, old_quadruple_sampler),
    "incidence": (old_incidence, old_incidence_sampler),
    "collinearity": (old_collinearity, old_triple_sampler),
}

# every projective-family group with every blocked property, in dimensions 1-3
# where both are defined (collinearity needs a plane)
CELLS = [(name, dim, prop) for name, dim in GROUP_DIMS for prop in OLD_PROPERTIES
         if not (prop == "collinearity" and dim == 1)]


def _element_bytes(t):
    """The bytes of a group element's forward and inverse matrices, and its
    antilinear flag; ``t`` is a Transformation or an OldTransformation."""
    forward, inverse, antilinear = old_matrices(t) if isinstance(t, OldTransformation) else (
        t.forward, t.inverse_map, t.antilinear)
    return forward.tobytes(), inverse.tobytes(), bool(antilinear)


def _outcome_of(fn):
    """An invariance verdict's report bytes and fields, or the error raised."""
    try:
        verdict = fn()
    except (GeometryError, ValueError) as exc:
        return type(exc), str(exc)
    fields = {"report": serialize_report(verdict), "type": type(verdict)}
    if isinstance(verdict, Violated):
        fields.update(trial=verdict.trial, seeds=(verdict.config_seed, verdict.transform_seed),
                      executed=verdict.trials_executed,
                      values=(repr(verdict.before), repr(verdict.after)),
                      config=repr(verdict.config),
                      element=_element_bytes(verdict.transformation))
    else:
        fields.update(executed=verdict.trials_executed, skipped=verdict.trials_skipped)
    return fields


def _value(fn, c):
    try:
        v = fn(c)
    except PropertyUndefined:
        return "undefined"
    return repr(v), type(v)


@pytest.mark.parametrize("name,dim,prop_name", CELLS)
def test_property_stacks_match_the_scalar_bodies(name, dim, prop_name):
    old_eval, old_sampler = OLD_PROPERTIES[prop_name]
    prop = builtin_property(prop_name, dim)
    old_sample = old_sampler(dim)
    g = builtin_group(name, dim)
    seeds = [mix_seed(13, k) for k in range(40)]
    stacks = prop.sample_config.sample_stacks(seeds)
    for k, seed in enumerate(seeds):
        config = old_sample(seed)
        assert repr(prop.sample_config(seed)) == repr(config)
        assert repr(prop.sample_config.configuration(*(x[k] for x in stacks))) == repr(config)
        image = transform_configuration(g.sample(mix_seed(14, k)), config)
        for c in (config, image):
            assert _value(prop.evaluate, c) == _value(old_eval, c)


@pytest.mark.parametrize("prop_name", sorted(OLD_PROPERTIES))
def test_functionals_match_the_scalar_bodies_on_complex_points(prop_name):
    old_eval, _ = OLD_PROPERTIES[prop_name]
    prop = builtin_property(prop_name, 2)
    rng = np.random.default_rng(8)
    for _ in range(300):
        def vec():
            return rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        a, b = vec(), vec()
        # collinear points, so cross-ratio is defined, and points in general position
        line = [ProjPoint(a * rng.uniform(-2, 2) + b * rng.uniform(-2, 2)) for _ in range(4)]
        general = [ProjPoint(vec()) for _ in range(4)]
        # a point next to the hyperplane at infinity, on either side of the cut
        far = ProjPoint(vec() * np.array([1.0, 1.0, 10.0 ** rng.uniform(-14, -8)]))
        configs = [Configuration(line), Configuration(general),
                   Configuration([far] + general[1:])]
        if prop_name == "incidence":
            configs.append(Configuration([general[0], Hyperplane(vec())]))
        for c in configs:
            assert _value(prop.evaluate, c) == _value(old_eval, c)


@pytest.mark.parametrize("name,dim,prop_name", CELLS)
def test_blocked_invariance_matches_the_scalar_loop(name, dim, prop_name):
    """The block path with the stacked property against the per-trial loop
    with the scalar bodies, at the default tolerance and at one where the
    verdict hinges on the last bits of the values."""
    old_eval, old_sampler = OLD_PROPERTIES[prop_name]
    prop = builtin_property(prop_name, dim)
    g = builtin_group(name, dim)
    ref = per_trial(g)
    verdicts = set()
    for seed in SEEDS:
        for tol in (1e-9, 4e-16):
            blocked = _outcome_of(lambda: invariance_test(prop.evaluate, g, prop.sample_config,
                                                          seed, 12, tol))
            serial = _outcome_of(lambda: invariance_test(old_eval, ref, old_sampler(dim),
                                                         seed, 12, tol))
            assert blocked == serial
            verdicts.add(blocked["type"])
    # relations are compared exactly, and angles on a line are 0 or pi; any
    # other value at a tolerance of 4e-16 hinges on its last bits
    assert prop.boolean or (prop_name, dim) == ("angle", 1) or Violated in verdicts


def test_stacked_steps_round_as_scalar_ones():
    rng = np.random.default_rng(4)
    z = rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3))
    w = rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3))
    product, size = complex_product(z, w), complex_abs(z)
    for b in range(200):
        assert row_dot(z, w)[b] == z[b] @ w[b]
        assert row_norm(z)[b] == np.linalg.norm(z[b])
        for j in range(3):
            assert product[b, j] == complex(z[b, j]) * complex(w[b, j])
            assert size[b, j] == abs(complex(z[b, j]))
    # stacks of 3x3 matrices against one, some of them nearly proportional to it
    a = np.concatenate([z, 0.3 * z + w[0]]).reshape(-1, 3, 2)
    target = w[0].reshape(3, 1) * w[1, :2]
    _, residuals = proportionality_stack(a, target)
    assert [r.tobytes() for r in residuals] == \
        [np.float64(proportionality(m, target)[1]).tobytes() for m in a]


def test_a_property_undefined_on_the_image_skips_the_trial():
    """A map that sends the first point to infinity leaves the distance
    undefined after, but not before: the trial is skipped."""
    def draw(rng):
        pts = np.ones((2, 3))
        pts[:, 1] = rng.uniform(-1, 1, 2)
        pts[1, 0] = rng.uniform(-1, 1)
        return pts, np.empty((0, 3)), np.empty((0, 3, 3))

    # the plane projective map (x, y, 1) -> (x, y, 1 - x) moves the line x = 1
    # to infinity
    to_infinity = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    g = faulty_group({mix_seed(2, 3 * i + 1): to_infinity for i in (0, 3, 4, 9)})
    prop = builtin_property("euclidean-distance", 2)
    blocked = _outcome_of(lambda: invariance_test(prop.evaluate, g, Sampler(2, draw), 2, 12))
    serial = _outcome_of(lambda: invariance_test(prop.evaluate, per_trial(g), Sampler(2, draw),
                                                 2, 12))
    assert blocked == serial
    assert blocked["type"] is Violated and blocked["trial"] == 1
    assert blocked["executed"] == 1


def _counting_sampler(prop):
    """The property's sampler, recording the seeds of each sample_stacks call."""
    requested = []

    class Counting(Sampler):
        def sample_stacks(self, seeds):
            requested.append(list(seeds))
            return super().sample_stacks(seeds)

    return Counting(prop.sample_config.dimension, prop.sample_config.draw), requested


def test_a_plain_callable_samples_one_configuration_per_trial():
    g = builtin_group("projective", 2)
    prop = builtin_property("cross-ratio", 2)
    sampler, requested = _counting_sampler(prop)
    blocked = invariance_test(prop.evaluate, g, sampler, 3, 20)
    assert [len(seeds) for seeds in requested] == [1, 19]
    del requested[:]
    wrapped = invariance_test(lambda c: prop.evaluate(c), g, sampler, 3, 20)
    # without evaluate_stacks every trial runs alone, on its own configuration
    assert requested == [[mix_seed(3, 3 * i)] for i in range(20)]
    assert serialize_report(wrapped) == serialize_report(blocked)


def _property_rows():
    """(name, dimension, metric) of every row of the property table at each
    dimension 1 to 3 it takes."""
    return [(name, dim, metric)
            for (name, metric), ((takes, _), *_) in properties._PROPERTIES.items()
            for dim in (1, 2, 3) if takes(dim)]


def test_every_builtin_property_is_on_stacks():
    """The block path has one evaluation path for the built-in properties:
    each is a Functional with a stacked sampler."""
    rows = _property_rows()
    assert {(name, metric) for name, _, metric in rows} == set(properties._PROPERTIES)
    for name, dim, metric in rows:
        prop = builtin_property(name, dim, metric)
        assert isinstance(prop.evaluate, Functional), (name, dim, metric)
        assert hasattr(prop.sample_config, "sample_stacks"), (name, dim, metric)
        assert prop.sample_config.dimension == dim, (name, dim, metric)


def test_an_empty_block_has_the_shapes_of_a_full_one():
    """What a sampler fills, slot by slot, is read off sample_stacks([]),
    which draws nothing: the same slot counts and row sizes as a block of
    one."""
    for name, dim, metric in _property_rows():
        sampler = builtin_property(name, dim, metric).sample_config
        empty, one = sampler.sample_stacks([]), sampler.sample_stacks([1])
        assert [s.shape for s in empty] == [(0,) + s.shape[1:] for s in one], (name, dim, metric)


def test_witness_at_trial_zero_samples_one_configuration():
    prop = builtin_property("euclidean-distance", 2)
    sampler, requested = _counting_sampler(prop)
    verdict = invariance_test(prop.evaluate, builtin_group("affine", 2), sampler,
                              seed=1, trials=100)
    assert isinstance(verdict, Violated) and verdict.trial == 0
    assert requested == [[verdict.config_seed]]
    assert repr(verdict.config) == repr(prop.sample_config(verdict.config_seed))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_action_matches_projmap(dim):
    g = builtin_group("projective", dim)
    forward = g.sample_matrices(range(30))
    inverse = np.linalg.inv(forward)
    rng = np.random.default_rng(dim)
    coords = rng.uniform(-1, 1, (30, 3, dim + 1)) + 1j * rng.uniform(-1, 1, (30, 3, dim + 1))
    points, planes = map_points(forward, coords), map_hyperplanes(inverse, coords)
    assert not coords_faulty(points).any() and not coords_faulty(planes).any()
    quadrics = coords[..., None] * coords[..., None, :]
    quadrics = (quadrics + quadrics.swapaxes(-1, -2)) / 2.0
    conics = map_quadrics(inverse, quadrics)
    for b in range(30):
        m = ProjMap(forward[b])
        for j in range(3):
            assert np.array_equal(points[b, j], m.apply(ProjPoint(coords[b, j])).coords)
            assert np.array_equal(planes[b, j],
                                  m.apply_hyperplane(Hyperplane(coords[b, j])).coeffs)
            image = m.apply_quadric(Quadric(quadrics[b, j]))
            assert conics[b, j].tobytes() == image.matrix.tobytes()


def test_coordinate_faults_are_the_rows_projpoint_refuses():
    rows = np.array([[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0],
                     [1.0, complex(0.0, np.inf)], [-1e-300, 0.0]], dtype=complex)
    refused = []
    for row in rows:
        try:
            ProjPoint(row)
            refused.append(False)
        except GeometryError:
            refused.append(True)
    assert list(coords_faulty(rows)) == refused == [False, True, True, True, True, False]


def _triangle_or(bad_row):
    """A sampler of three plane points, which replaces the second point
    by ``bad_row`` for about one seed in four."""
    def draw(rng):
        pts = np.ones((3, 3))
        pts[:, :2] = rng.uniform(-1, 1, (3, 2))
        if rng.random() < 0.25:
            pts[1] = bad_row
        return pts, np.empty((0, 3)), np.empty((0, 3, 3))
    return Sampler(2, draw)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad_row", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                     [1e308, 1e308, 1e308]])
def test_invariance_errors_in_trial_order(bad_row):
    """Configurations ProjPoint refuses, and (for the huge row, whose image
    under a projective map may overflow) images it refuses, raise at their
    trial on both paths, unless an earlier trial is a witness."""
    sampler = _triangle_or(bad_row)
    outcomes = set()
    for name, prop_name in [("euclidean_isometries", "angle"), ("projective", "angle"),
                            ("projective", "collinearity")]:
        g = builtin_group(name, 2)
        prop = builtin_property(prop_name, 2)
        for seed in range(12):
            blocked = _outcome_of(lambda: invariance_test(prop.evaluate, g, sampler, seed, 30))
            serial = _outcome_of(lambda: invariance_test(prop.evaluate, per_trial(g), sampler,
                                                         seed, 30))
            assert blocked == serial
            outcomes.add(blocked[0] if isinstance(blocked, tuple) else blocked["type"])
    assert GeometryError in outcomes and Violated in outcomes


# -- the circle groups ---------------------------------------------------------
#
# moebius holds its elements as (B, 2, 2) coefficient stacks with a (B,)
# antilinear mask, the pentaspherical groups as (B, 4, 4) and (B, 5, 5)
# matrix stacks.  The scalar samplers below are those the stacked ones
# replaced.

PENTASPHERICAL = {4: "inversive_pentaspherical", 5: "lie_sphere_extended"}

# a tolerance of a few ulps, at which the pentaspherical membership test
# passes some samples and products and fails others
ULP_TOL = 2.5e-16


def old_random_moebius(seed, conjugating=None):
    rng = rng_from(seed)
    while True:
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        a, b, c, d = (coeffs / np.sqrt(2)).tolist()
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if abs(a * d - b * c) > 0.2 * scale * scale:
            break
    flag = bool(rng.random() < 0.5) if conjugating is None else bool(conjugating)
    return MoebiusMap(a, b, c, d, conjugating=flag)


def _old_antisymmetric(rng, n):
    g = rng.normal(size=(n, n))
    a = (g - g.T) / 2.0
    nrm = np.linalg.norm(a)
    if nrm > 0:
        a *= 0.8 / nrm
    return a


def _old_indefinite_orthogonal(rng, p, q):
    n = p + q
    g = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
    m = expm(g @ _old_antisymmetric(rng, n))
    for i in (0, n - 1):
        if rng.random() < 0.5:
            flip = np.eye(n)
            flip[i, i] = -1.0
            m = m @ flip
    return m


def old_pentaspherical_map(seed, n):
    """The old random_inversive_map (n = 4) and random_lie_map (n = 5)."""
    rng = rng_from(seed)
    d = np.diag([1j, 1j, 1j] + [1.0] * (n - 3))
    m = d @ _old_indefinite_orthogonal(rng, 3, n - 3) @ np.linalg.inv(d)
    return m * np.exp(rng.uniform(np.log(0.25), np.log(4.0)))


@pytest.mark.parametrize("n", [4, 5])
def test_stacked_pentaspherical_samples_match_the_scalar_sampler_bitwise(n):
    g = builtin_group(PENTASPHERICAL[n])
    scalar = random_inversive_map if n == 4 else random_lie_map
    seeds = [mix_seed(98, k) for k in range(150)]
    stack = g.sample_matrices(seeds)
    assert stack.shape == (150, n, n) and stack.dtype == complex
    for seed, m in zip(seeds, stack):
        ref = old_pentaspherical_map(seed, n).tobytes()
        assert m.tobytes() == ref
        assert scalar(seed).tobytes() == ref
        assert g.sample(seed).forward.tobytes() == ref


def test_stacked_moebius_samples_match_the_scalar_sampler_bitwise():
    g = builtin_group("moebius")
    seeds = [mix_seed(97, k) for k in range(150)]
    coeffs, antilinear = g.sample_matrices(seeds)
    assert coeffs.shape == (150, 2, 2) and coeffs.dtype == complex
    assert antilinear.dtype == bool and 0 < antilinear.sum() < 150
    for k, seed in enumerate(seeds):
        ref = old_random_moebius(seed)
        assert coeffs[k].tobytes() == ref.coeff_matrix.tobytes()
        assert antilinear[k] == ref.conjugating
        # repr shows every bit of the coefficients
        assert repr(random_moebius(seed)) == repr(ref)
        t = g.sample(seed)
        assert (t.forward.tobytes(), t.inverse_map.tobytes(), t.antilinear) == \
            (ref.coeff_matrix.tobytes(), ref.inverse().coeff_matrix.tobytes(), ref.conjugating)


def reference_form_preserving(m, n, tol):
    if m.shape != (n, n):
        return False
    _, resid = proportionality(m.T @ m, np.eye(n, dtype=complex))
    return resid <= tol


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [4, 5])
def test_stacked_form_membership_matches_the_scalar_test(n):
    g = builtin_group(PENTASPHERICAL[n])
    stack = g.sample_matrices(range(40))
    products = stack @ stack[::-1]
    odd = stack.copy()
    odd[:10, 0, 1] += 1e-9  # no longer preserves the form
    odd[10:20] = 0.0  # M^T M vanishes: the residual is 0
    odd[20:30, 1, 2] = np.nan
    odd[30:, 0, 0] = np.inf
    for candidates in (stack, products, 2.5j * stack, odd):
        for tol in (1e-8, ULP_TOL):
            verdicts = g.contains_matrices(candidates, tol)
            assert list(verdicts) == [reference_form_preserving(m, n, tol) for m in candidates]
            finite = [m for m in candidates if np.isfinite(m).all()]
            wrapped = [Transformation("pentaspherical", m, m, check=False) for m in finite]
            assert [v for v, m in zip(verdicts, candidates) if np.isfinite(m).all()] == \
                [g.contains(t, tol) for t in wrapped]
    # a pentaspherical element refuses a non-finite matrix, as ProjMap does
    for m in odd[20:]:
        with pytest.raises(GeometryError, match="pentaspherical map: non-finite entries"):
            Transformation("pentaspherical", m, check=False)
    for candidates in (stack, products):
        assert all(g.contains_matrices(candidates, 1e-8))
        split = g.contains_matrices(candidates, ULP_TOL)
        assert split.any() and not split.all()
    # a matrix of the other size is not a member
    other = builtin_group(PENTASPHERICAL[9 - n]).sample_matrices(range(3))
    assert not g.contains_matrices(other, 1e-8).any()
    assert not g.contains(Transformation("pentaspherical", other[0], check=False))


# coefficient matrices [[a, b], [c, d]] that MoebiusMap refuses; a NaN in
# any place makes the coefficients invalid
MOEBIUS_BAD = {
    "singular": [[1, 2], [2, 4]],
    "zero": [[0, 0], [0, 0]],
    "nan": [[np.nan] * 2] * 2,
    "nan-a": [[np.nan, 1], [1, 2]],
    "nan-b": [[1, np.nan], [1, 2]],
    "nan-d": [[1, 1], [1, np.nan]],
    "inf-c": [[1, 1], [np.inf, 2]],
    "huge-d": [[1, 0], [0, 1.5e308 * (1 + 1j)]],
    # the determinant's parts are finite, its size is not
    "huge-det": [[1e154, 0], [0, 1.3e154 * (1 + 1j)]],
    "tiny": [[1e-200, 0], [0, 1e-200]],
}


def _constructed(coeffs):
    """"ok", or the type and message of the error MoebiusMap raises."""
    (a, b), (c, d) = coeffs.tolist()
    try:
        MoebiusMap(a, b, c, d)
    except (GeometryError, OverflowError) as exc:
        return type(exc), str(exc)
    return "ok"


def reference_moebius_checks(coeffs):
    """The scalar checks MoebiusMap.__init__ made before it became the
    batch of one of moebius_faults, with a NaN refused in any place."""
    (a, b), (c, d) = coeffs.tolist()
    try:
        sizes = [abs(a), abs(b), abs(c), abs(d)]
        scale = max(sizes)
        if scale == 0.0 or not np.isfinite(scale) or any(np.isnan(sizes)):
            raise GeometryError("MoebiusMap coefficients invalid")
        if abs(a * d - b * c) <= 1e-12 * scale * scale:
            raise GeometryError("MoebiusMap is singular (ad - bc ~ 0)")
    except (GeometryError, OverflowError) as exc:
        return type(exc), str(exc)
    return "ok"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_moebius_faults_are_the_checks_of_the_constructor():
    g = builtin_group("moebius")
    coeffs, antilinear = g.sample_matrices(range(30))
    bad = np.array(list(MOEBIUS_BAD.values()), dtype=complex)
    # the bad matrices, conjugated, and with their rows or columns swapped
    stack = np.concatenate([coeffs, bad, np.conj(bad), bad[:, ::-1], bad[:, :, ::-1]])
    errors = _KINDS["moebius"].errors
    outcomes = [errors[code] if code else "ok" for code in moebius_faults(stack)]
    assert outcomes == [reference_moebius_checks(m) for m in stack] == \
        [_constructed(m) for m in stack]
    # every bad matrix holding a NaN is refused, wherever the NaN is
    assert all(outcome != "ok" for m, outcome in zip(stack, outcomes) if np.isnan(m).any())
    assert set(outcomes) == {"ok", (OverflowError, "absolute value too large")} | {
        (GeometryError, m) for m in ("MoebiusMap coefficients invalid",
                                     "MoebiusMap is singular (ad - bc ~ 0)")}
    # the inverses are MoebiusMap.inverse, conjugated for antilinear maps
    inverses = moebius_inverses(coeffs, antilinear)
    for k in range(30):
        (a, b), (c, d) = coeffs[k].tolist()
        ref = MoebiusMap(a, b, c, d, antilinear[k]).inverse()
        assert inverses[k].tobytes() == ref.coeff_matrix.tobytes()


@pytest.mark.parametrize("name", CIRCLE_GROUPS)
def test_circle_axiom_reports_match(name):
    g = builtin_group(name)
    ref = per_trial(g)
    failures = 0
    for seed in SEEDS:
        for tol in (1e-8, ULP_TOL):
            blocked = check_group_axioms(g, seed, 4, tol)
            assert blocked == check_group_axioms(ref, seed, 4, tol)
            failures += blocked.total_failures
    assert check_group_axioms(g, 5, 70, ULP_TOL) == check_group_axioms(ref, 5, 70, ULP_TOL)
    # moebius membership holds at any tolerance; pentaspherical membership
    # at a few ulps hinges on the last bits of each product
    assert (failures > 0) == (name != "moebius")


# -- the scalar actions and tangency bodies the stacked ones replace ------------

def old_circle_quadric(center, radius):
    c = complex(center)
    a, b = c.real, c.imag
    cc = a * a + b * b - radius * radius
    return Quadric(np.array([[1.0, 0.0, -a], [0.0, 1.0, -b], [-a, -b, cc]], dtype=complex))


def old_sampler_circle_pair(seed):
    rng = rng_from(seed)
    c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    r1 = rng.uniform(0.3, 1.2)
    if rng.random() < 0.5:
        theta = rng.uniform(0, 2 * np.pi)
        r2 = rng.uniform(0.3, 1.2)
        c2 = c1 + (r1 + r2) * np.exp(1j * theta)
    else:
        while True:
            c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r2 = rng.uniform(0.3, 1.2)
            d = abs(c2 - c1)
            if min(abs(d - (r1 + r2)), abs(d - abs(r1 - r2))) > 0.05:
                break
    return Configuration([old_circle_quadric(c1, r1), old_circle_quadric(c2, r2)])


def old_circle_from_quadric(q, tol=1e-9):
    if q.dim != 2:
        raise GeometryError("circle quadrics live in P^2")
    mat = q.matrix / np.max(np.abs(q.matrix))
    if abs(mat[0, 0] - mat[1, 1]) > tol or abs(mat[0, 1]) > tol:
        raise GeometryError("conic is not a circle or line")
    im = float(np.max(np.abs(mat.imag)))
    if im > 1e-6:
        raise GeometryError("conic is not a real circle")
    mat = mat.real
    if abs(mat[0, 0]) > tol:
        mat = mat / mat[0, 0]
    return float(mat[0, 0]), float(-mat[0, 2]), float(-mat[1, 2]), float(mat[2, 2])


def old_tangency(c):
    quads = [e for e in c if isinstance(e, Quadric)]
    if len(quads) < 2:
        raise PropertyUndefined("needs two circles")
    try:
        circles = [old_circle_from_quadric(q) for q in quads[:2]]
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


def old_moebius_transform_circle(m, q):
    aa, a, b, cc = old_circle_from_quadric(q)
    h = np.array([[aa, -(a + 1j * b)], [-(a - 1j * b), cc]], dtype=complex)
    ginv = np.linalg.inv(m.coeff_matrix)
    if m.conjugating:
        hp = np.conj(ginv).T @ h.T @ ginv
    else:
        hp = np.conj(ginv).T @ h @ ginv
    hp = (hp + np.conj(hp).T) / 2.0
    aa2, cc2 = float(hp[0, 0].real), float(hp[1, 1].real)
    a2, b2 = float(-hp[0, 1].real), float(-hp[0, 1].imag)
    return Quadric(np.array([[aa2, 0.0, -a2], [0.0, aa2, -b2], [-a2, -b2, cc2]],
                            dtype=complex))


def old_moebius_point(m, p):
    v = p.normalized()
    if abs(v[2]) < 1e-14:
        raise PropertyUndefined("point at infinity is outside the affine chart")
    z = complex(v[0] / v[2] + 1j * v[1] / v[2])
    w = m.apply(z)
    if w.infinite:
        raise PropertyUndefined("image at infinity not representable in P^2")
    return ProjPoint([w.value.real, w.value.imag, 1.0])


def old_pentaspherical_circle(matrix, q):
    aa, a, b, cc = old_circle_from_quadric(q)
    u4 = np.array([1j * a, 1j * b, 1j * (aa - cc) / 2.0, (aa + cc) / 2.0], dtype=complex)
    img = matrix @ u4
    aa2 = complex(-1j * img[2] + img[3])
    if abs(aa2) < 1e-12 * np.max(np.abs(img)):
        raise PropertyUndefined("image circle degenerates to a line")
    img = img / aa2
    a2 = complex(-1j * img[0]).real
    b2 = complex(-1j * img[1]).real
    cc2 = complex(1j * img[2] + img[3]).real
    return Quadric(np.array([[1.0, 0, -a2], [0, 1.0, -b2], [-a2, -b2, cc2]], dtype=complex))


class OldTransformation:
    """The tagged-union group element that the record Transformation
    replaced: a ProjMap or MoebiusMap pair, or a pair of pentaspherical
    matrices, each kind handled by its own branch, acting through the old
    scalar bodies above."""

    __slots__ = ("kind", "forward", "inverse_map")

    def __init__(self, kind: str, forward, inverse=None, check: bool = True):
        self.kind = kind
        self.forward = forward
        if kind == "projective":
            self.inverse_map = inverse if inverse is not None else forward.inverse()
            if check:
                prod = self.forward.matrix @ self.inverse_map.matrix
                _, resid = proportionality(prod, np.eye(prod.shape[0], dtype=complex))
                if resid > 1e-9:
                    raise GeometryError("inverse check failed for projective pair")
        elif kind == "moebius":
            self.inverse_map = inverse if inverse is not None else forward.inverse()
            if check and not forward.compose(self.inverse_map).equals(
                    MoebiusMap(1, 0, 0, 1), 1e-9):
                raise GeometryError("inverse check failed for moebius pair")
        elif kind == "pentaspherical":
            self.forward = as_complex_array(forward, "pentaspherical map")
            self.inverse_map = as_complex_array(
                inverse if inverse is not None else np.linalg.inv(self.forward),
                "pentaspherical map")
            if check:
                prod = self.forward @ self.inverse_map
                _, resid = proportionality(prod, np.eye(prod.shape[0], dtype=complex))
                if resid > 1e-9:
                    raise GeometryError("inverse check failed for pentaspherical pair")
        else:
            raise GeometryError(f"unknown transformation kind: {kind}")

    def compose(self, other):
        if self.kind != other.kind:
            raise GeometryError("cannot compose transformations of different kinds")
        if self.kind == "projective":
            return OldTransformation(
                "projective",
                ProjMap(self.forward.matrix @ other.forward.matrix),
                ProjMap(other.inverse_map.matrix @ self.inverse_map.matrix),
                check=False)
        if self.kind == "moebius":
            return OldTransformation("moebius", self.forward.compose(other.forward),
                                     check=False)
        return OldTransformation(
            "pentaspherical",
            self.forward @ other.forward,
            other.inverse_map @ self.inverse_map,
            check=False)

    def invert(self):
        return OldTransformation(self.kind, self.inverse_map, self.forward, check=False)

    def approx_equal(self, other, tol=1e-9):
        if self.kind != other.kind:
            return False
        if self.kind == "projective":
            return equal_up_to_scale(self.forward.matrix, other.forward.matrix, tol)
        if self.kind == "moebius":
            return self.forward.equals(other.forward, tol)
        return equal_up_to_scale(self.forward, other.forward, tol)

    def is_identity(self, tol=1e-9):
        if self.kind == "projective":
            n = self.forward.matrix.shape[0]
            return equal_up_to_scale(self.forward.matrix, np.eye(n), tol)
        if self.kind == "moebius":
            return (not self.forward.conjugating
                    and self.forward.equals(MoebiusMap(1, 0, 0, 1), tol))
        n = self.forward.shape[0]
        return equal_up_to_scale(self.forward, np.eye(n), tol)

    def apply(self, element):
        if self.kind == "projective":
            if isinstance(element, ProjPoint):
                return self.forward.apply(element)
            if isinstance(element, Hyperplane):
                return self.forward.apply_hyperplane(element)
            if isinstance(element, Quadric):
                return self.forward.apply_quadric(element)
        elif self.kind == "moebius":
            if isinstance(element, ProjPoint) and element.dim == 2:
                return old_moebius_point(self.forward, element)
            if isinstance(element, Quadric) and element.dim == 2:
                return old_moebius_transform_circle(self.forward, element)
        elif isinstance(element, Quadric) and element.dim == 2 \
                and self.forward.shape == (4, 4):
            return old_pentaspherical_circle(self.forward, element)
        raise GeometryError(
            f"{self.kind} transformation not applicable to {type(element).__name__}")


def old_map(kind, m, antilinear=False):
    """What the old constructor took for the kind's matrix m."""
    if kind == "projective":
        return ProjMap(m)
    if kind == "moebius":
        return MoebiusMap(*np.asarray(m).ravel().tolist(), antilinear)
    return m


def old_element(t):
    """The OldTransformation of a record's matrices."""
    inverse = None if t.kind == "moebius" else old_map(t.kind, t.inverse_map)
    return OldTransformation(t.kind, old_map(t.kind, t.forward, t.antilinear), inverse,
                             check=False)


def old_matrices(old):
    """The (forward, inverse, antilinear) matrices of an OldTransformation."""
    if old.kind == "projective":
        return old.forward.matrix, old.inverse_map.matrix, False
    if old.kind == "moebius":
        return old.forward.coeff_matrix, old.inverse_map.coeff_matrix, old.forward.conjugating
    return old.forward, old.inverse_map, False


def old_actions(g):
    """g's elements, sampled per trial, acting through the old scalar bodies:
    the per-trial loop of the parent code."""
    return GroupDescriptor(g.name, g.dimension, g.identity, lambda s: old_element(g.sample(s)),
                           g.contains)


def _images_or_error(fn):
    """The bytes of a configuration's image (or of a list of them), or the
    error making it raises."""
    try:
        images = fn()
    except GeometryError as exc:
        return type(exc), str(exc)
    return _image_bytes(images if isinstance(images, list) else [images])


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_tangency_stacks_match_the_scalar_bodies(name):
    """Configurations, images and values of tangency under each group: the
    stacked sampler, action on a 40-element block, scalar apply and
    functional against the old scalar bodies."""
    prop = builtin_property("tangency", 2)
    g = builtin_group(name)
    seeds = [mix_seed(17, k) for k in range(40)]
    tseeds = [mix_seed(18, k) for k in range(40)]
    stacks = prop.sample_config.sample_stacks(seeds)
    kind = _KINDS[g.identity.kind]
    *images, codes = kind.act(*_sampled(kind, g.sample_matrices, tseeds, []), *stacks)
    outcomes = set()
    for k, seed in enumerate(seeds):
        config = old_sampler_circle_pair(seed)
        assert repr(prop.sample_config(seed)) == repr(config)
        assert repr(prop.sample_config.configuration(*(x[k] for x in stacks))) == repr(config)
        t = g.sample(tseeds[k])
        old = _images_or_error(lambda: transform_configuration(old_element(t), config))
        assert _images_or_error(lambda: transform_configuration(t, config)) == old
        if isinstance(old, bytes):
            assert codes[k] == 0 and images[2][k].tobytes() == old
            image = transform_configuration(t, config)
            assert _value(prop.evaluate, image) == _value(old_tangency, image)
        else:
            assert codes[k] != 0
        assert _value(prop.evaluate, config) == _value(old_tangency, config)
        outcomes.add(old if isinstance(old, tuple) else bytes)
    assert outcomes == ({(GeometryError, "pentaspherical transformation not applicable "
                                          "to Quadric")}
                        if name == "lie_sphere_extended" else {bytes})


CIRCLE_CELLS = [(name, "tangency") for name in BUILTIN_GROUP_NAMES] + [
    ("moebius", "angle"), ("moebius", "euclidean-distance")]

OLD_CIRCLE_PROPERTIES = {"tangency": (old_tangency, old_sampler_circle_pair),
                         "angle": (old_angle, old_points_sampler(3, 2)),
                         "euclidean-distance": (old_distance, old_points_sampler(2, 2))}


@pytest.mark.parametrize("name,prop_name", CIRCLE_CELLS)
def test_circle_invariance_reports_match(name, prop_name):
    """The block path, with the stacked property and the group's stacked
    action, against the per-trial loop with the same property and against
    the per-trial loop with the old scalar bodies."""
    g = builtin_group(name)
    prop = builtin_property(prop_name, 2)
    old_eval, old_sampler = OLD_CIRCLE_PROPERTIES[prop_name]
    outcomes = set()
    for seed in SEEDS:
        blocked = _outcome_of(lambda: invariance_test(prop.evaluate, g, prop.sample_config,
                                                      seed, 12))
        serial = _outcome_of(lambda: invariance_test(prop.evaluate, per_trial(g),
                                                     prop.sample_config, seed, 12))
        old = _outcome_of(lambda: invariance_test(old_eval, old_actions(g), old_sampler,
                                                  seed, 12))
        assert blocked == serial == old
        outcomes.add(blocked[0] if isinstance(blocked, tuple) else blocked["type"])
    expected = {"tangency": {"lie_sphere_extended": GeometryError, "affine": GeometryError,
                             "projective": GeometryError}}
    assert outcomes == {expected.get(prop_name, {}).get(
        name, Invariant if prop_name == "tangency" else Violated)}


def test_moebius_points_match_the_scalar_body():
    """Plane points, some at or next to infinity, under Moebius maps, one of
    which sends a point to infinity: the block's action and the scalar
    apply against the old scalar body."""
    g = builtin_group("moebius")
    rng = np.random.default_rng(11)
    coords = rng.uniform(-1, 1, (40, 3, 3)) + 1j * rng.uniform(-1, 1, (40, 3, 3)) * (
        rng.random((40, 3, 1)) < 0.3)
    coords[:, 0, 2] *= 10.0 ** rng.uniform(-16, -12, 40)
    coords[:4, 1] = [0.5, 0.25, 1.0]
    forward, inverse, antilinear = _sampled(_KINDS["moebius"], g.sample_matrices,
                                            range(40), [])
    # (z - (0.5 + 0.25i)) / z sends 0.5 + 0.25i to infinity
    forward[:2] = [[1.0, -(0.5 + 0.25j)], [1.0, 0.0]]
    forward[2:4] = [[0.0, 1.0], [1.0, -(0.5 + 0.25j)]]
    antilinear[:4] = False
    inverse[:4] = moebius_inverses(forward[:4], antilinear[:4])
    images, _, _, codes = _KINDS["moebius"].act(forward, inverse, antilinear, coords,
                                                 np.empty((40, 0, 3)), np.empty((40, 0, 3, 3)))
    outcomes = set()
    for k in range(40):
        t = Transformation("moebius", forward[k], inverse[k], antilinear[k], check=False)
        m = old_map("moebius", forward[k], antilinear[k])
        old = [_outcome(lambda: old_moebius_point(m, ProjPoint(p)).coords.tobytes())
               for p in coords[k]]
        assert [_outcome(lambda: t.apply(ProjPoint(p)).coords.tobytes())
                for p in coords[k]] == old
        if all(isinstance(o, bytes) for o in old):
            assert codes[k] == 0 and b"".join(old) == images[k].tobytes()
        else:
            assert codes[k] != 0
        outcomes.update(o if isinstance(o, tuple) else bytes for o in old)
    assert outcomes == {bytes, (PropertyUndefined, "image at infinity not representable in P^2"),
                        (PropertyUndefined, "point at infinity is outside the affine chart")}


def test_pentaspherical_circles_match_the_scalar_body():
    """Circles under inversive matrices, and circles through the origin
    under the inversion z -> 1/z, whose images are lines: the block's action
    and the scalar apply against the old scalar body."""
    from erlangen.transfers import moebius_circle_matrix

    g = builtin_group("inversive_pentaspherical")
    rng = np.random.default_rng(12)
    centers = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    # through the origin, within about 1e-11 of it, and elsewhere
    radii = np.where(np.arange(40) < 10, np.abs(centers), rng.uniform(0.3, 1.2, 40))
    radii[5:10] += 3e-11
    conics = np.array([[circle_quadric(c, r).matrix] for c, r in zip(centers, radii)])
    forward, inverse, antilinear = _sampled(_KINDS["pentaspherical"], g.sample_matrices,
                                            range(40), [])
    forward[:10] = moebius_circle_matrix(MoebiusMap(0, 1, 1, 0))
    inverse[:10] = np.linalg.inv(forward[:10])
    _, _, images, codes = _KINDS["pentaspherical"].act(
        forward, inverse, antilinear, np.empty((40, 0, 3)), np.empty((40, 0, 3)), conics)
    outcomes = set()
    for k in range(40):
        t = Transformation("pentaspherical", forward[k], inverse[k], check=False)
        old = _outcome(lambda: old_pentaspherical_circle(forward[k], Quadric(conics[k, 0]))
                       .matrix.tobytes())
        assert _outcome(lambda: t.apply(Quadric(conics[k, 0])).matrix.tobytes()) == old
        assert (codes[k] == 0) == isinstance(old, bytes)
        if isinstance(old, bytes):
            assert images[k, 0].tobytes() == old
        outcomes.add(old if isinstance(old, tuple) else bytes)
    assert outcomes == {bytes, (PropertyUndefined, "image circle degenerates to a line")}


def test_tangency_matches_the_scalar_body_on_odd_configurations():
    tangency = builtin_property("tangency", 2)
    unit = circle_quadric(0, 1.0)
    line = Quadric(np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0.5]], dtype=complex))
    imaginary = Quadric(np.diag([1.0, 1.0, 1.0]).astype(complex))
    ellipse = Quadric(np.diag([1.0, 2.0, -1.0]).astype(complex))
    # a quadric of P^3 whose leading 3 x 3 block is a circle
    space = Quadric(np.pad(unit.matrix, (0, 1)))
    configs = [[unit], [unit, line], [unit, imaginary], [ellipse, unit],
               [space, space], [ProjPoint([0.1, 0.2, 1.0]), unit, circle_quadric(2, 1.0)],
               [unit, circle_quadric(0.5, 0.5), circle_quadric(5, 1.0)]]
    values = [_value(tangency.evaluate, Configuration(c)) for c in configs]
    assert values == [_value(old_tangency, Configuration(c)) for c in configs]
    assert values[-2:] == [(repr(True), bool)] * 2


@pytest.mark.parametrize("name", ["moebius", "inversive_pentaspherical"])
def test_a_conic_that_is_not_a_circle_raises_under_a_circle_group(name):
    g = builtin_group(name)
    ellipse = Configuration([Quadric(np.diag([1.0, 2.0, -1.0]).astype(complex))])
    refused = (GeometryError, "conic is not a circle or line")
    assert _images_or_error(lambda: orbit_sample(ellipse, g, 1, 5)) == refused
    assert _images_or_error(lambda: orbit_sample(ellipse, per_trial(g), 1, 5)) == refused
    assert _images_or_error(lambda: orbit_sample(ellipse, old_actions(g), 1, 5)) == refused


TANGENCY_BAD = {"asymmetric": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
                "nan": [[np.nan] * 3] * 3,
                "zero": [[0.0] * 3] * 3}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", sorted(TANGENCY_BAD))
def test_tangency_errors_in_trial_order(bad):
    """Circle pairs whose second conic Quadric refuses, for about one seed
    in four: each raises at its trial on both paths."""
    tangency = builtin_property("tangency", 2)

    def draw(rng):
        circles = np.array(tangency.sample_config.draw(rng)[2])
        if rng.random() < 0.25:
            circles[1] = TANGENCY_BAD[bad]
        return np.empty((0, 3)), np.empty((0, 3)), circles

    sampler = Sampler(2, draw)
    for name in ("euclidean_isometries", "moebius", "inversive_pentaspherical"):
        g = builtin_group(name)
        for seed in range(6):
            blocked = _outcome_of(lambda: invariance_test(tangency.evaluate, g, sampler, seed, 20))
            assert blocked == _outcome_of(lambda: invariance_test(
                tangency.evaluate, per_trial(g), sampler, seed, 20))
            assert blocked[0] is GeometryError


def test_a_hyperplane_under_a_moebius_map_raises_at_its_trial():
    """Configurations of two conics and a line: where both conics are
    circles the trial maps the line, which a Moebius map refuses; where one
    is a line conic, tangency is undefined and the trial is skipped."""
    tangency = builtin_property("tangency", 2)

    def draw(rng):
        circles = np.array(tangency.sample_config.draw(rng)[2])
        if rng.random() < 0.8:
            circles[1, :2, :2] = 0.0  # a line: A = 0
        return np.empty((0, 3)), np.ones((1, 3)), circles

    sampler = Sampler(2, draw)
    g = builtin_group("moebius")
    seed = 1
    first = next(i for i in range(100)
                 if not isinstance(_value(tangency.evaluate, sampler(mix_seed(seed, 3 * i))), str))
    # the first trial with two circles lies inside the block of trials 3-6
    assert first == 5
    refused = (GeometryError, "moebius transformation not applicable to Hyperplane")
    for trials, expected in ((first, (GeometryError, f"property undefined on {first}/{first} "
                                                     "samples (sampler mismatch)")),
                             (first + 1, refused), (first + 40, refused)):
        blocked = _outcome_of(lambda: invariance_test(tangency.evaluate, g, sampler, seed,
                                                      trials))
        assert blocked == _outcome_of(lambda: invariance_test(
            tangency.evaluate, per_trial(g), sampler, seed, trials)) == expected


def test_every_builtin_cell_takes_the_stacked_path(monkeypatch):
    taken = []
    block_outcomes = groups._block_outcomes

    def recording(*args):
        taken.append(args[1].name)
        return block_outcomes(*args)

    monkeypatch.setattr(groups, "_block_outcomes", recording)
    for name in BUILTIN_GROUP_NAMES:
        for prop_name in PROPERTY_NAMES:
            metric = "klein-disk" if prop_name == "ck-distance" else None
            prop = builtin_property(prop_name, 2, metric)
            del taken[:]
            _outcome_of(lambda: invariance_test(prop.evaluate, builtin_group(name),
                                                prop.sample_config, 1, 3))
            assert taken == [name]
    # one mechanism: the kind's action, looked up in one table
    source = inspect.getsource(block_outcomes)
    assert "_KINDS[g.identity.kind]" in source
    assert not any(word in source for word in ('"projective"', '"moebius"',
                                               '"pentaspherical"', ".kind =="))


@pytest.mark.parametrize("name,config", [
    ("moebius", Configuration([circle_quadric(0.3 + 0.1j, 0.8)])),
    ("moebius", Configuration([ProjPoint([0.2, -0.4, 1.0]), ProjPoint([-0.5, 0.1, 1.0])])),
    ("inversive_pentaspherical", Configuration([circle_quadric(-0.2 + 0.5j, 0.6),
                                                circle_quadric(0.1, 1.5)])),
])
def test_circle_orbit_images_match_bytewise(name, config):
    """The block path maps the configuration with the stacked action; the
    per-trial loop with the scalar apply and with the old scalar bodies."""
    g = builtin_group(name)
    for seed in SEEDS:
        # a point sent to infinity raises PropertyUndefined
        blocked = _images_or_error(lambda: orbit_sample(config, g, seed, 3))
        serial = _images_or_error(lambda: orbit_sample(config, per_trial(g), seed, 3))
        assert blocked == serial == _images_or_error(
            lambda: orbit_sample(config, old_actions(g), seed, 3))
    assert _image_bytes(orbit_sample(config, g, 1, 70)) == \
        _image_bytes(orbit_sample(config, per_trial(g), 1, 70)) == \
        _image_bytes(orbit_sample(config, old_actions(g), 1, 70))


@pytest.mark.parametrize("name", ["moebius", "inversive_pentaspherical"])
def test_circle_block_sizes(name):
    g, requested = _counting(builtin_group(name))
    prop = builtin_property("tangency", 2)
    invariance_test(prop.evaluate, g, prop.sample_config, seed=1, trials=70)
    assert requested == [1, 64, 5]
    del requested[:]
    check_group_axioms(g, seed=1, trials=66)
    assert requested == [128, 4]
    del requested[:]
    orbit_sample(Configuration([circle_quadric(0.1, 0.5)]), g, seed=1, count=65)
    assert requested == [64, 1]


# bad samples of the circle groups: Moebius coefficient matrices the
# constructor refuses, and pentaspherical matrices that are not finite or
# that np.linalg.inv cannot invert
CIRCLE_BAD = {
    "moebius": {key: MOEBIUS_BAD[key] for key in ("singular", "nan", "nan-b", "nan-d",
                                                  "huge-d")},
    "inversive_pentaspherical": {"singular": np.diag([1.0, 1.0, 0.0, 1.0]),
                                 "nan": np.full((4, 4), np.nan),
                                 "zero": np.zeros((4, 4))},
}


CIRCLE_BAD_CASES = [(name, kind) for name in CIRCLE_BAD for kind in sorted(CIRCLE_BAD[name])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name,kind", CIRCLE_BAD_CASES)
def test_circle_errors_in_trial_order(name, kind):
    bad = np.asarray(CIRCLE_BAD[name][kind], dtype=complex)
    # axioms: both elements of trial 5 are bad, and so is trial 9's second
    g = faulty_group({mix_seed(4, 10): bad, mix_seed(4, 11): bad, mix_seed(4, 19): bad}, name)
    axioms = _both(lambda h: check_group_axioms(h, 4, 12, ULP_TOL), g)
    assert axioms[0] == axioms[1]
    # orbits and invariance: the elements of trials 7 and 9 are bad
    g = faulty_group({mix_seed(4, 7): bad, mix_seed(4, 9): bad}, name)
    config = Configuration([circle_quadric(0.2 - 0.1j, 0.7)])
    orbits = _both(lambda h: _image_bytes(orbit_sample(config, h, 4, 12)), g)
    assert orbits[0] == orbits[1]
    g = faulty_group({mix_seed(4, 3 * 7 + 1): bad, mix_seed(4, 3 * 9 + 1): bad}, name)
    tangency = builtin_property("tangency", 2)
    invariance = _both(lambda h: serialize_report(
        invariance_test(tangency.evaluate, h, tangency.sample_config, 4, 12)), g)
    assert invariance[0] == invariance[1]
    # each bad matrix is refused by its constructor or its inversion, so it
    # raises in every loop
    assert all(isinstance(outcome, tuple) for outcome in (axioms[0], orbits[0], invariance[0]))


# 1e100 I and its adjugate pass MoebiusMap's checks; the determinant of their
# product 1e200 I overflows, and the singularity check refuses it
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_unit_raises_only_where_the_inverse_is_a_member():
    """t1 t1^-1 is formed only when t1^-1 passes contains: trial 5's t1,
    whose product with its inverse fails the kind's checks, raises in both
    loops where every map is a member, and is a closure and inverse failure
    in both where the group refuses it."""
    g = faulty_group({mix_seed(4, 10): 1e100 * np.eye(2)}, "moebius")
    raised = _both(lambda h: check_group_axioms(h, 4, 12), g)
    assert raised[0] == raised[1] == (GeometryError, "MoebiusMap is singular (ad - bc ~ 0)")

    def small(stack, tol):
        return np.abs(stack).max(axis=(1, 2)) < 1e50

    g = dataclasses.replace(g, contains=lambda t, tol=1e-8: bool(small(t.forward[None], tol)[0]),
                            contains_matrices=small)
    reports = _both(lambda h: check_group_axioms(h, 4, 12), g)
    lists = [(r.closure_failures, r.inverse_failures, r.identity_failures) for r in reports]
    assert lists[0] == lists[1]
    assert [[i for i, _, _ in failures] for failures in lists[0]] == [[5], [5], []]


# -- the record against the tagged union it replaced ----------------------------

def old_sample(g, seed):
    """g.sample(seed) as the tagged union made it: the sampled matrix
    wrapped by the old constructors, which compute the inverse."""
    sampled = g.sample_matrices([seed])
    forward, antilinear = sampled if isinstance(sampled, tuple) else (sampled, [False])
    kind = g.identity.kind
    return OldTransformation(kind, old_map(kind, forward[0], antilinear[0]), check=False)


def _applied(t, e):
    """The bytes of the image of e under t, or the error applying t raises."""
    try:
        image = t.apply(e)
    except GeometryError as exc:
        return type(exc), str(exc)
    data = getattr(image, groups._ELEMENT_TYPES[groups._slot(e)][1])
    return np.ascontiguousarray(data).tobytes()


def _plane_elements(rng):
    """Points (one at infinity), lines, circles and a conic that is not a
    circle, of the real and of the complex plane."""
    def vec():
        return rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3) * (rng.random() < 0.5)
    return [ProjPoint(vec()), ProjPoint([rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0]),
            ProjPoint([1.0, rng.uniform(-1, 1), 0.0]), Hyperplane(vec()),
            circle_quadric(complex(*rng.uniform(-1, 1, 2)), rng.uniform(0.3, 1.2)),
            Quadric(np.diag([1.0, 2.0, -rng.uniform(0.5, 2)]).astype(complex))]


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_records_match_the_tagged_union(name):
    """compose, invert, approx_equal, is_identity and apply of the record
    against the tagged union, bitwise and error for error, on 40 pairs of
    samples, at a tolerance where the verdicts hinge on the last bits."""
    g = builtin_group(name)
    old_identity = old_element(g.identity)
    rng = np.random.default_rng(19)
    applied = set()
    for k in range(40):
        s1, s2 = mix_seed(19, 2 * k), mix_seed(19, 2 * k + 1)
        t1, t2, o1, o2 = g.sample(s1), g.sample(s2), old_sample(g, s1), old_sample(g, s2)
        pairs = [(t1, o1), (t2, o2), (t1.compose(t2), o1.compose(o2)),
                 (t1.invert(), o1.invert()), (t1.compose(t1.invert()), o1.compose(o1.invert())),
                 (g.identity.compose(t1), old_identity.compose(o1)), (g.identity, old_identity)]
        for t, old in pairs:
            assert _element_bytes(t) == _element_bytes(old)
            for tol in (1e-8, ULP_TOL):
                assert t.is_identity(tol) == old.is_identity(tol)
                assert [t.approx_equal(u, tol) for u, _ in pairs] == \
                    [old.approx_equal(p, tol) for _, p in pairs]
        for e in _plane_elements(rng):
            image = _applied(t1, e)
            assert image == _applied(o1, e)
            applied.add(image if isinstance(image, tuple) else bytes)
    # Lie sphere maps act on no element of the plane
    assert (bytes in applied) == (name != "lie_sphere_extended")
    assert (GeometryError, "conic is not a circle or line") in applied or name not in (
        "moebius", "inversive_pentaspherical")


CONSTRUCTOR_BAD = {"projective": BAD, "moebius": CIRCLE_BAD["moebius"],
                   "pentaspherical": CIRCLE_BAD["inversive_pentaspherical"]}


# the subnormal matrix warns in the old and new checks alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind,key", [(kind, key) for kind in CONSTRUCTOR_BAD
                                      for key in sorted(CONSTRUCTOR_BAD[kind])])
def test_constructor_errors_match_the_tagged_union_and_the_block_path(kind, key):
    bad = np.asarray(CONSTRUCTOR_BAD[kind][key], dtype=complex)
    spec, faults = _KINDS[kind], []
    elements = _sampled(spec, lambda seeds: bad[None].copy(), [0], faults)
    first = groups._first_faults(faults)
    block = _outcome(lambda: groups._block_element(spec, elements, first, 0))
    assert isinstance(block, tuple)
    for check in (True, False):
        assert _outcome(lambda: Transformation(kind, bad, check=check)) == block == \
            _outcome(lambda: OldTransformation(kind, old_map(kind, bad), check=check))


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_check_is_the_inverse_check_of_the_tagged_union(name):
    g = builtin_group(name)
    t = g.sample(1)
    # a forward matrix given as its own inverse: the pair is checked only with check
    assert Transformation(t.kind, t.forward, t.forward, t.antilinear, check=False).approx_equal(t)
    refused = (GeometryError, f"inverse check failed for {t.kind} pair")
    old = old_sample(g, 1)
    assert _outcome(lambda: Transformation(t.kind, t.forward, t.forward, t.antilinear)) == \
        _outcome(lambda: OldTransformation(t.kind, old.forward, old.forward)) == refused
    assert _element_bytes(Transformation(t.kind, t.forward, antilinear=t.antilinear)) == \
        _element_bytes(t)


@pytest.mark.parametrize("flag", [False, True])
def test_the_antilinear_flag_tells_moebius_twins_apart(flag):
    """A Moebius element and the element of the same coefficients with
    the other flag: constructed, compared and inverted as in the tagged
    union."""
    g = builtin_group("moebius")
    for seed in range(10):
        m = g.sample_matrices([seed])[0][0]
        t, twin = Transformation("moebius", m, antilinear=flag), Transformation(
            "moebius", m, antilinear=not flag)
        o, old_twin = (OldTransformation("moebius", old_map("moebius", m, f))
                       for f in (flag, not flag))
        assert _element_bytes(t) == _element_bytes(o)
        assert _element_bytes(twin) == _element_bytes(old_twin)
        assert not t.approx_equal(twin) and not o.approx_equal(old_twin)
        assert t.compose(t.invert()).is_identity() and o.compose(o.invert()).is_identity()
    eye = Transformation("moebius", np.eye(2), antilinear=flag)
    assert eye.is_identity() == OldTransformation(
        "moebius", old_map("moebius", np.eye(2), flag)).is_identity() == (not flag)


# elements whose squares the checks refuse: 1e200 squares to infinity, and
# the determinant of the Moebius square, 1e400, too
HUGE = {"projective": 1e200 * np.eye(3), "moebius": 1e100 * np.eye(2),
        "pentaspherical": 1e200 * np.eye(4)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(HUGE))
def test_a_product_the_checks_refuse_raises_in_compose(kind):
    t = Transformation(kind, HUGE[kind])
    # the old Moebius check built t * t^-1 as a MoebiusMap, whose determinant
    # 1e400 it refused as singular; the record's check compares the product
    old = OldTransformation(kind, old_map(kind, HUGE[kind]), check=False)
    assert _element_bytes(t) == _element_bytes(old)
    refused = _outcome(lambda: t.compose(t))
    assert isinstance(refused, tuple) and refused == _outcome(lambda: old.compose(old))


@pytest.mark.parametrize("kind,forward,inverse", [
    ("projective", np.ones(3), None), ("projective", np.eye(3), np.eye(4)),
    ("projective", [[1.0]], None), ("moebius", np.eye(3), None),
    ("moebius", np.eye(2), np.eye(3)), ("pentaspherical", np.ones((4, 3)), None),
    ("lie", np.eye(5), None)])
def test_a_matrix_of_the_wrong_shape_or_kind_is_refused(kind, forward, inverse):
    for check in (True, False):
        with pytest.raises(GeometryError):
            Transformation(kind, forward, inverse, check=check)


def test_the_record_has_no_branch_on_its_kind():
    source = inspect.getsource(Transformation)
    assert not any(word in source for word in ('"projective"', '"moebius"', '"pentaspherical"'))
    assert groups._Kind._fields == ("name", "antilinear", "errors", "faults", "inverse",
                                    "compose", "maps", "size", "refusal")
    assert not hasattr(ProjMap, "from_checked") and not hasattr(MoebiusMap, "from_checked")
    # one action for every kind, over the maps, size and refusal each kind declares
    for name in ("_projective_act", "_moebius_act", "_pentaspherical_act", "_refused"):
        assert not hasattr(groups, name)
    source = inspect.getsource(groups._Kind.act)
    assert not any(word in source for word in ("projective", "moebius", "pentaspherical"))


def test_the_properties_are_one_table_with_no_branch_on_their_names():
    assert names.PROPERTY_NAMES == tuple(dict.fromkeys(name for name, _ in properties._PROPERTIES))
    # one map of the metric names, for the CLI's choices, its distance verb
    # and the table's keys
    assert names.METRIC_NAMES == tuple(cayley_klein.METRICS)
    assert names.METRIC_NAMES == tuple(metric for _, metric in properties._PROPERTIES if metric)
    tree = ast.parse(textwrap.dedent(inspect.getsource(properties.builtin_property)))
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not constants & set(names.PROPERTY_NAMES + names.METRIC_NAMES)
    for name in ("_DISTANCE_REASONS", "_ANGLE_REASONS", "_CROSS_RATIO_REASONS",
                 "_INCIDENCE_REASONS", "_COLLINEARITY_REASONS", "_TANGENCY_REASONS"):
        assert not hasattr(properties, name)


def test_the_groups_are_one_table_with_no_branch_on_their_names():
    assert names.BUILTIN_GROUP_NAMES == tuple(groups._GROUPS)
    tree = ast.parse(textwrap.dedent(inspect.getsource(groups.builtin_group)))
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not constants & set(names.BUILTIN_GROUP_NAMES)
    # one figure test, _fixes, instead of a membership test per group
    for name in ("_normalized_affine", "_linear_gram", "_contains_isometries",
                 "_contains_similarities", "_contains_affine", "_contains_all",
                 "_contains_form_preserving", "_MATRIX_GROUPS", "_PENTASPHERICAL",
                 "_matrix_group", "_CIRCULAR_PLUS", "_CIRCULAR_MINUS"):
        assert not hasattr(groups, name)


# -- plain callables, and ck-distance, on the block path -------------------------


def _same_as_per_trial(fn, g, sampler, seeds, trials=12):
    """The block path with ``fn`` against the per-trial loop."""
    for seed in seeds:
        blocked = _outcome_of(lambda: invariance_test(fn, g, sampler, seed, trials))
        assert blocked == _outcome_of(lambda: invariance_test(fn, per_trial(g), sampler, seed,
                                                              trials))


@pytest.mark.parametrize("name,dim,prop_name", CELLS)
def test_plain_callables_match_the_per_trial_loop(name, dim, prop_name):
    prop = builtin_property(prop_name, dim)
    old_eval, _ = OLD_PROPERTIES[prop_name]
    for fn in (old_eval, lambda c: prop.evaluate(c)):
        _same_as_per_trial(fn, builtin_group(name, dim), prop.sample_config, SEEDS)


@pytest.mark.parametrize("name,prop_name", CIRCLE_CELLS)
def test_plain_circle_callables_match_the_per_trial_loop(name, prop_name):
    prop = builtin_property(prop_name, 2)
    old_eval, _ = OLD_CIRCLE_PROPERTIES[prop_name]
    for fn in (old_eval, lambda c: prop.evaluate(c)):
        _same_as_per_trial(fn, builtin_group(name), prop.sample_config, SEEDS)


@pytest.mark.parametrize("metric", ["klein-disk", "elliptic"])
@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_ck_distance_on_stacks_matches_the_per_trial_loop(name, metric):
    prop = builtin_property("ck-distance", 2, metric)
    _same_as_per_trial(prop.evaluate, builtin_group(name), prop.sample_config, SEEDS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad_row", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                     [1e308, 1e308, 1e308]])
def test_wrapped_functional_errors_in_trial_order(bad_row):
    """As test_invariance_errors_in_trial_order, with the functional called
    per trial: a refused configuration or image raises at its trial."""
    for name, prop_name in [("euclidean_isometries", "angle"), ("projective", "angle"),
                            ("projective", "collinearity")]:
        prop = builtin_property(prop_name, 2)
        _same_as_per_trial(lambda c: prop.evaluate(c), builtin_group(name, 2),
                           _triangle_or(bad_row), range(12), 30)
