import numpy as np
import pytest

from erlangen.numerics import GeometryError, mix_seed, rng_from
from erlangen.projective import ProjPoint, Quadric
from erlangen.moebius import MoebiusMap, circle_quadric
from erlangen.groups import (
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
    sample_quadric_preserving_map,
    stabilizes,
    transform_configuration,
)
from erlangen.cayley_klein import klein_disk_metric
from erlangen.properties import builtin_property


def rotation_about_origin(theta, dim=2):
    m = np.eye(dim + 1)
    m[0, 0] = m[1, 1] = np.cos(theta)
    m[0, 1] = -np.sin(theta)
    m[1, 0] = np.sin(theta)
    return Transformation("projective", m)


def rotations_about_origin_group():
    identity = Transformation("projective", np.eye(3))

    def sample(seed):
        rng = rng_from(seed)
        return rotation_about_origin(rng.uniform(0, 2 * np.pi))

    def contains(t, tol=1e-8):
        if t.kind != "projective":
            return False
        m = t.forward / t.forward[2, 2]
        lin = m[:2, :2].real
        return bool(np.max(np.abs(m[2, :2])) < tol
                    and np.max(np.abs(m[:2, 2])) < tol
                    and np.max(np.abs(lin.T @ lin - np.eye(2))) < tol
                    and np.linalg.det(lin) > 0)

    return GroupDescriptor("rotations_about_origin", 2, identity, sample, contains)


def positive_x_translations_non_group():
    """Translations by positive x only: closed under composition but not
    under inversion (the classical caveat that closure alone does not
    make an infinite family a group)."""
    identity = Transformation("projective", np.eye(3))

    def sample(seed):
        rng = rng_from(seed)
        m = np.eye(3)
        m[0, 2] = rng.uniform(0.1, 1.0)
        return Transformation("projective", m)

    def contains(t, tol=1e-8):
        if t.kind != "projective":
            return False
        m = t.forward / t.forward[2, 2]
        shift = m[0, 2].real
        looks_translation = (np.max(np.abs(m[:2, :2] - np.eye(2))) < tol
                             and abs(m[1, 2]) < tol
                             and np.max(np.abs(m[2, :2])) < tol)
        return bool(looks_translation and shift > -tol)

    return GroupDescriptor("positive_x_translations", 2, identity, sample, contains)


class TestBuiltinGroups:
    @pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
    def test_axioms_pass(self, name):
        g = builtin_group(name, 2)
        report = check_group_axioms(g, seed=2024, trials=200, tol=1e-8)
        assert report.ok, (name, report)

    def test_axioms_dimension_three(self):
        for name in ("euclidean_isometries", "principal", "affine", "projective"):
            report = check_group_axioms(builtin_group(name, 3), seed=11, trials=60)
            assert report.ok, name

    def test_unknown_name_rejected(self):
        with pytest.raises(GeometryError):
            builtin_group("galilean", 2)

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(GeometryError):
            builtin_group("principal", 5)
        with pytest.raises(GeometryError):
            builtin_group("moebius", 3)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            check_group_axioms(builtin_group("principal", 2), seed=1, trials=0)

    def test_principal_fixes_circular_point_pair(self):
        g = builtin_group("principal", 2)
        plus = np.array([1.0, 1.0j, 0.0])
        minus = np.array([1.0, -1.0j, 0.0])
        for i in range(50):
            t = g.sample(mix_seed(99, i))
            imgs = [t.forward @ plus, t.forward @ minus]
            from erlangen.numerics import equal_up_to_scale
            keeps = (equal_up_to_scale(imgs[0], plus, 1e-9)
                     and equal_up_to_scale(imgs[1], minus, 1e-9))
            swaps = (equal_up_to_scale(imgs[0], minus, 1e-9)
                     and equal_up_to_scale(imgs[1], plus, 1e-9))
            assert keeps or swaps

    def test_isometries_preserve_distance(self):
        g = builtin_group("euclidean_isometries", 2)
        rng = rng_from(5)
        for i in range(50):
            t = g.sample(mix_seed(7, i))
            a = rng.uniform(-1, 1, 2)
            b = rng.uniform(-1, 1, 2)
            pa = t.apply(ProjPoint([*a, 1.0])).normalized()
            pb = t.apply(ProjPoint([*b, 1.0])).normalized()
            da = (pa / pa[2])[:2].real
            db = (pb / pb[2])[:2].real
            assert abs(np.linalg.norm(da - db) - np.linalg.norm(a - b)) < 1e-10

    def test_lie_samples_preserve_identity_form(self):
        g = builtin_group("lie_sphere_extended", 2)
        from erlangen.numerics import proportionality
        for i in range(30):
            t = g.sample(mix_seed(3, i))
            _, resid = proportionality(t.forward.T @ t.forward,
                                       np.eye(5, dtype=complex))
            assert resid < 1e-9

    def test_non_group_counterexample(self):
        report = check_group_axioms(positive_x_translations_non_group(),
                                    seed=4, trials=50)
        assert len(report.inverse_failures) > 0


class TestHierarchy:
    def test_forward_containments(self):
        iso = builtin_group("euclidean_isometries", 2)
        pri = builtin_group("principal", 2)
        aff = builtin_group("affine", 2)
        pro = builtin_group("projective", 2)
        for i in range(200):
            s = mix_seed(12, i)
            assert pri.contains(iso.sample(s))
            assert aff.contains(pri.sample(s))
            assert pro.contains(aff.sample(s))

    def test_reverse_containments_falsified(self):
        iso = builtin_group("euclidean_isometries", 2)
        pri = builtin_group("principal", 2)
        aff = builtin_group("affine", 2)
        pro = builtin_group("projective", 2)

        def witness(big, small):
            for i in range(50):
                t = big.sample(mix_seed(77, i))
                if not small.contains(t):
                    return True
            return False

        assert witness(pri, iso)
        assert witness(aff, pri)
        assert witness(pro, aff)


class TestStabilizers:
    def test_rotation_stabilizes_origin(self):
        cfg = Configuration([ProjPoint([0.0, 0.0, 1.0])])
        assert stabilizes(rotation_about_origin(0.7), cfg)

    def test_similarity_stabilizes_circular_pair(self):
        cfg = Configuration([ProjPoint([1.0, 1.0j, 0.0]), ProjPoint([1.0, -1.0j, 0.0])])
        g = builtin_group("principal", 2)
        # a reflection swaps the two points, so pointwise stabilization can
        # fail while the pair is preserved; test with rotations only
        theta = 1.1
        rot = rotation_about_origin(theta)
        assert stabilizes(rot, cfg)

    def test_shear_moves_circular_points(self):
        shear = Transformation("projective",
                               np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        cfg = Configuration([ProjPoint([1.0, 1.0j, 0.0])])
        assert not stabilizes(shear, cfg)

    def test_stabilizer_closure(self):
        cfg = Configuration([ProjPoint([0.0, 0.0, 1.0])])
        g = rotations_about_origin_group()
        for i in range(20):
            t1 = g.sample(mix_seed(1, 2 * i))
            t2 = g.sample(mix_seed(1, 2 * i + 1))
            assert stabilizes(t1, cfg) and stabilizes(t2, cfg)
            assert stabilizes(t1.compose(t2), cfg)

    def test_inapplicable_kind(self):
        t = Transformation("moebius", np.eye(2))
        cfg = Configuration([Quadric(np.diag([1.0, 1, 1, -1.0]).astype(complex))])
        with pytest.raises(GeometryError):
            stabilizes(t, cfg)


@pytest.mark.parametrize("elements", [[], [np.array([1.0, 0.0, 1.0])],
                                      [ProjPoint([0.0, 0.0, 1.0]), "line"]])
def test_configuration_takes_points_hyperplanes_and_quadrics_only(elements):
    with pytest.raises(GeometryError, match="nonempty|unsupported configuration element"):
        Configuration(elements)


@pytest.mark.parametrize("kind", ["contact", "affine", ""])
def test_unknown_transformation_kind(kind):
    with pytest.raises(GeometryError, match="unknown transformation kind"):
        Transformation(kind, np.eye(5), np.eye(5), check=False)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("kind, n", [("projective", 3), ("pentaspherical", 4)])
def test_only_moebius_elements_are_antilinear(kind, n, check):
    with pytest.raises(GeometryError, match=f"a {kind} transformation cannot be antilinear"):
        Transformation(kind, np.eye(n), antilinear=True, check=check)
    assert Transformation(kind, np.eye(n), check=check).is_identity()


@pytest.mark.parametrize("check", [True, False])
def test_antilinear_moebius_elements_construct(check):
    conj = Transformation("moebius", np.eye(2), antilinear=True, check=check)
    assert conj.antilinear and not conj.is_identity()
    assert conj.compose(conj).is_identity()


def distance_to_origin(c):
    v = c[0].normalized()
    if abs(v[2]) < 1e-12:
        raise PropertyUndefined("point at infinity")
    a = (v / v[2])[:2]
    return complex(np.sqrt(complex(a @ a)))


def sample_single_point(seed):
    rng = rng_from(seed)
    return Configuration([ProjPoint([*rng.uniform(-1, 1, 2), 1.0])])


def sample_point_with_origin(seed):
    rng = rng_from(seed)
    return Configuration([ProjPoint([*rng.uniform(-1, 1, 2), 1.0]),
                          ProjPoint([0.0, 0.0, 1.0])])


def distance_between_pair(c):
    va = c[0].normalized()
    vb = c[1].normalized()
    if abs(va[2]) < 1e-12 or abs(vb[2]) < 1e-12:
        raise PropertyUndefined("point at infinity")
    a = (va / va[2])[:2]
    b = (vb / vb[2])[:2]
    return complex(np.sqrt(complex((a - b) @ (a - b))))


class TestInvarianceTest:
    def test_distance_invariant_under_isometries(self):
        prop = builtin_property("euclidean-distance")
        g = builtin_group("euclidean_isometries", 2)
        verdict = invariance_test(prop.evaluate, g, prop.sample_config,
                                  seed=3, trials=200, tol=1e-9)
        assert isinstance(verdict, Invariant)
        assert verdict.trials_executed == 200

    def test_distance_violated_under_projective(self):
        prop = builtin_property("euclidean-distance")
        g = builtin_group("projective", 2)
        verdict = invariance_test(prop.evaluate, g, prop.sample_config,
                                  seed=3, trials=100, tol=1e-9)
        assert isinstance(verdict, Violated)
        # the witness is reproducible from its seeds
        config = prop.sample_config(verdict.config_seed)
        t = g.sample(verdict.transform_seed)
        before = prop.evaluate(config)
        after = prop.evaluate(transform_configuration(t, config))
        assert abs(before - verdict.before) < 1e-12
        assert abs(after - verdict.after) < 1e-12

    def test_cross_ratio_invariant_under_projective(self):
        prop = builtin_property("cross-ratio")
        g = builtin_group("projective", 2)
        verdict = invariance_test(prop.evaluate, g, prop.sample_config,
                                  seed=8, trials=300, tol=1e-9)
        assert isinstance(verdict, Invariant)

    def test_angle_invariant_under_principal_violated_under_affine(self):
        prop = builtin_property("angle")
        principal = builtin_group("principal", 2)
        affine = builtin_group("affine", 2)
        assert isinstance(invariance_test(prop.evaluate, principal,
                                          prop.sample_config, 5, 150), Invariant)
        assert isinstance(invariance_test(prop.evaluate, affine,
                                          prop.sample_config, 5, 100), Violated)

    def test_boolean_properties(self):
        inc = builtin_property("incidence")
        g = builtin_group("projective", 2)
        assert isinstance(invariance_test(inc.evaluate, g, inc.sample_config,
                                          9, 150), Invariant)
        tan = builtin_property("tangency")
        moe = builtin_group("moebius", 2)
        assert isinstance(invariance_test(tan.evaluate, moe, tan.sample_config,
                                          9, 150), Invariant)
        col = builtin_property("collinearity")
        assert isinstance(invariance_test(col.evaluate, g, col.sample_config,
                                          9, 150), Invariant)

    @pytest.mark.parametrize("seed", range(5))
    def test_ck_distance_invariant_under_disk_preserving_maps(self, seed):
        # the distance is defined up to sign; compared signed, these seeds
        # each reported after = -before
        absolute = klein_disk_metric().absolute
        identity = Transformation("projective", np.eye(3), check=False)
        g = GroupDescriptor(
            "disk_preserving", 2, identity,
            lambda s: Transformation(
                "projective", sample_quadric_preserving_map(absolute, s).matrix, check=False),
            lambda t, tol=1e-8: True)
        prop = builtin_property("ck-distance", metric="klein-disk")
        verdict = invariance_test(prop.evaluate, g, prop.sample_config, seed, 20)
        assert isinstance(verdict, Invariant)

    def test_undefined_sampler_mismatch(self):
        def always_undefined(c):
            raise PropertyUndefined("nope")
        g = builtin_group("projective", 2)
        with pytest.raises(GeometryError):
            invariance_test(always_undefined, g, sample_single_point, 1, 20)

    def test_zero_trials_rejected(self):
        g = builtin_group("projective", 2)
        with pytest.raises(ValueError):
            invariance_test(distance_to_origin, g, sample_single_point, 1, 0)

    def test_adjunction_principle(self):
        # fixing the origin and restricting to its stabilizer is the same
        # investigation as adjoining the origin under the full group
        restricted = invariance_test(distance_to_origin,
                                     rotations_about_origin_group(),
                                     sample_single_point, seed=21, trials=150)
        extended = invariance_test(distance_between_pair,
                                   builtin_group("euclidean_isometries", 2),
                                   sample_point_with_origin, seed=21, trials=150)
        assert isinstance(restricted, Invariant) and isinstance(extended, Invariant)
        # without the adjunction the property is not invariant at all
        plain = invariance_test(distance_to_origin,
                                builtin_group("euclidean_isometries", 2),
                                sample_single_point, seed=21, trials=100)
        assert isinstance(plain, Violated)


class TestSimilarityCriterion:
    def test_agreement_with_direct_criterion(self):
        rng = rng_from(2)
        checked = 0
        while checked < 1000:
            m = rng.uniform(-1, 1, (3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            via_points = is_similarity_via_circular_points(m)
            mm = m / m[2, 2] if abs(m[2, 2]) > 1e-12 else m
            lin = mm[:2, :2]
            gram = lin.T @ lin
            mu = np.trace(gram) / 2.0
            direct = (abs(m[2, 0]) < 1e-10 * np.max(np.abs(m))
                      and abs(m[2, 1]) < 1e-10 * np.max(np.abs(m))
                      and abs(mu) > 1e-12
                      and np.max(np.abs(gram - mu * np.eye(2))) < 1e-10 * mu)
            assert via_points == direct
            checked += 1

    def test_rotation_translation(self):
        th = np.pi / 6
        m = np.array([[np.cos(th), -np.sin(th), 0.4],
                      [np.sin(th), np.cos(th), -1.2],
                      [0.0, 0.0, 1.0]])
        assert is_similarity_via_circular_points(m)

    def test_anisotropic_scaling_fails(self):
        assert not is_similarity_via_circular_points(np.diag([2.0, 3.0, 1.0]))

    def test_reflection_swaps_pair(self):
        refl = np.diag([1.0, -1.0, 1.0])
        assert is_similarity_via_circular_points(refl)

    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            is_similarity_via_circular_points(np.zeros((3, 3)))


class TestOrbit:
    def test_fixed_point_orbit(self):
        cfg = Configuration([ProjPoint([0.0, 0.0, 1.0])])
        g = rotations_about_origin_group()
        for img in orbit_sample(cfg, g, seed=1, count=20):
            assert img[0].equals(cfg[0], 1e-9)

    def test_orbit_spans_plane(self):
        cfg = Configuration([ProjPoint([0.3, 0.1, 1.0])])
        g = builtin_group("principal", 2)
        pts = []
        for img in orbit_sample(cfg, g, seed=6, count=60):
            v = img[0].normalized()
            pts.append((v / v[2])[:2].real)
        pts = np.array(pts)
        spread = pts.max(axis=0) - pts.min(axis=0)
        assert spread[0] > 0.5 and spread[1] > 0.5

    def test_circle_orbit_under_moebius(self):
        from erlangen.transfers import stereographic_circle_fit
        from erlangen.moebius import circle_from_quadric
        center, radius = 0.4 - 0.1j, 0.7
        cfg = Configuration([circle_quadric(center, radius)])
        g = builtin_group("moebius", 2)
        images = orbit_sample(cfg, g, seed=14, count=25)
        for i, img in enumerate(images):
            # oracle: map sampled points of the original circle and fit
            t = g.sample(mix_seed(14, i))
            m = MoebiusMap(*t.forward.ravel(), t.antilinear)
            pts = [m.apply(center + radius * np.exp(1j * th))
                   for th in np.linspace(0, 2 * np.pi, 13)[:-1]]
            params, resid = stereographic_circle_fit(pts)
            assert resid < 1e-8
            # and the image quadric describes the same circle/line
            aa, a, b, cc = circle_from_quadric(img[0])
            from erlangen.numerics import proportionality
            _, match = proportionality(np.array([aa, a, b, cc], dtype=complex),
                                       np.array(params, dtype=complex)
                                       * np.array([1.0, 1.0, 1.0, 1.0]))
            assert match < 1e-7

    def test_deterministic(self):
        cfg = Configuration([ProjPoint([0.3, 0.1, 1.0])])
        g = builtin_group("affine", 2)
        o1 = orbit_sample(cfg, g, seed=5, count=5)
        o2 = orbit_sample(cfg, g, seed=5, count=5)
        for a, b in zip(o1, o2):
            assert a[0].equals(b[0], 1e-15)

    def test_count_validated(self):
        cfg = Configuration([ProjPoint([0.3, 0.1, 1.0])])
        with pytest.raises(ValueError):
            orbit_sample(cfg, builtin_group("affine", 2), seed=5, count=0)
