"""The block path of the trial loops against the per-trial loop.

The projective-family groups carry stacked samplers and membership tests,
so check_group_axioms, invariance_test and orbit_sample run them a block
of trials at a time.  Rebuilding the same group without those fields
gives the per-trial loop, which is the reference here: every verdict,
witness seed and output byte must be the same on both paths.
"""

import dataclasses

import numpy as np
import pytest

from erlangen.numerics import GeometryError, mix_seed, rng_from
from erlangen.projective import ProjMap, ProjPoint
from erlangen.groups import (
    Configuration,
    GroupDescriptor,
    Transformation,
    Violated,
    builtin_group,
    check_group_axioms,
    invariance_test,
    orbit_sample,
)
from erlangen.properties import builtin_property
from erlangen.reports import serialize_report

GROUP_DIMS = [("euclidean_isometries", 2), ("euclidean_isometries", 3),
              ("principal", 2), ("principal", 3),
              ("affine", 1), ("affine", 2), ("affine", 3),
              ("projective", 1), ("projective", 2), ("projective", 3)]

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
        assert np.array_equal(g.sample(seed).forward.matrix, m)


def _normalized_affine(m, tol):
    scale = float(np.max(np.abs(m)))
    d = m.shape[0] - 1
    if abs(m[d, d]) < 1e-12 * scale:
        return None
    m = m / m[d, d]
    if float(np.max(np.abs(m[d, :d]))) > tol * float(np.max(np.abs(m))):
        return None
    return m


def reference_contains(name, matrix, tol):
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


@pytest.mark.parametrize("name,dim", GROUP_DIMS)
def test_stacked_membership_matches_the_scalar_tests(name, dim):
    g = builtin_group(name, dim)
    stack = g.sample_matrices(range(8))
    tilted = stack.copy()  # moves the hyperplane at infinity
    tilted[:, dim, 0] = 0.5
    flat = stack.copy()  # a vanishing or rank-deficient linear part
    flat[:4, :dim, :dim] = 0.0
    flat[4:, :dim, 0] = 0.0
    sheared = stack.copy()
    sheared[:, 0, dim - 1] += 1e-3
    swapped = stack.copy()  # the corner entry vanishes
    swapped[:, dim, dim] = 0.0
    swapped[:, dim, 0] = 1.0
    for candidates in (stack, stack @ stack[::-1], 2.5j * stack, tilted, flat, sheared,
                       swapped):
        for tol in (1e-8, 4e-16):
            verdicts = g.contains_matrices(candidates, tol)
            assert list(verdicts) == [reference_contains(name, m, tol) for m in candidates]
            # contains reads only the forward matrix, which may be singular here
            wrapped = [Transformation("projective", ProjMap.from_checked(m),
                                      ProjMap.from_checked(m), check=False)
                       for m in candidates]
            assert list(verdicts) == [g.contains(t, tol) for t in wrapped]
    assert all(g.contains_matrices(stack, 1e-8))
    assert not any(g.contains_matrices(tilted, 1e-8)) or name == "projective"


def test_only_the_projective_family_takes_the_block_path():
    for name, dim in GROUP_DIMS:
        assert builtin_group(name, dim).blocked
        assert not per_trial(builtin_group(name, dim)).blocked
    for name in ("moebius", "inversive_pentaspherical", "lie_sphere_extended"):
        assert not builtin_group(name).blocked


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
        assert np.array_equal(blocked.transformation.forward.matrix,
                              serial.transformation.forward.matrix)
    return blocked


@pytest.mark.parametrize("name,dim", GROUP_DIMS)
def test_invariance_reports_match(name, dim):
    g = builtin_group(name, dim)
    prop = builtin_property(INVARIANT_PROPERTY[name], dim)
    for seed in SEEDS:
        # 9 trials span blocks of 1, 2, 4 and 2 trials
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
    return b"".join(np.ascontiguousarray(e.coords).tobytes() for img in images for e in img)


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
    assert requested == [1, 2, 4, 8, 16, 32, 64, 64, 9]
    del requested[:]
    check_group_axioms(g, seed=1, trials=130)
    assert requested == [64, 64, 64, 64, 2, 2]
    del requested[:]
    orbit_sample(Configuration([ProjPoint([0.1, 0.2, 1.0])]), g, seed=1, count=65)
    assert requested == [64, 1]


# -- errors in trial order ---------------------------------------------------

BAD = {"nan": np.full((3, 3), np.nan),
       "zero": np.zeros((3, 3)),
       "singular": np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]),
       # passes every check, but its inverse overflows
       "tiny": 1e-310 * np.eye(3)}


def faulty_group(bad_seeds):
    """The plane projective group, with the given matrix at each seed of
    ``bad_seeds``."""
    base = builtin_group("projective", 2)

    def sample_matrices(seeds):
        stack = base.sample_matrices(seeds)
        for b, seed in enumerate(seeds):
            if seed in bad_seeds:
                stack[b] = bad_seeds[seed]
        return stack

    def sample(seed):
        return Transformation("projective", ProjMap(sample_matrices([seed])[0]), check=False)

    return GroupDescriptor("faulty", 2, base.identity, sample, base.contains,
                           sample_matrices, base.contains_matrices)


def _outcome(fn):
    try:
        return fn()
    except (GeometryError, ValueError) as exc:
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
