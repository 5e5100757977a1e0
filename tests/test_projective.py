import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erlangen.numerics import rng_from
from erlangen.projective import (
    DimensionMismatch,
    GeometryError,
    GeneratorChord,
    Hyperplane,
    ProjMap,
    ProjPoint,
    Quadric,
    cross_ratio,
    incident,
    line_quadric_intersections,
    meet_point,
    on_quadric,
)

from conftest import random_point, random_proj_map

UNIT_CIRCLE = Quadric(np.diag([1.0, 1.0, -1.0]).astype(complex))


def collinear_points(params, base=None, direction=None):
    base = np.array([0.2, -0.4, 1.0]) if base is None else np.asarray(base)
    direction = np.array([1.0, 0.7, 0.1]) if direction is None else np.asarray(direction)
    pts = []
    for t in params:
        if t is None:  # parameter at infinity
            pts.append(ProjPoint(direction))
        else:
            pts.append(ProjPoint(base + t * direction))
    return pts


class TestTypes:
    def test_point_rejects_zero(self):
        with pytest.raises(GeometryError):
            ProjPoint([0, 0, 0])

    def test_point_rejects_nonfinite(self):
        with pytest.raises(GeometryError):
            ProjPoint([1.0, np.inf, 0.0])

    def test_quadric_requires_exact_symmetry(self):
        m = np.array([[1.0, 0.1], [0.2, 1.0]])
        with pytest.raises(GeometryError):
            Quadric(m)
        Quadric((m + m.T) / 2)  # its symmetrization is accepted

    def test_projmap_rejects_singular(self):
        with pytest.raises(GeometryError):
            ProjMap([[1.0, 0.0], [2.0, 0.0]])

    def test_equality_up_to_scale(self):
        p = ProjPoint([1, 2, 3])
        q = ProjPoint([2 + 1j, 4 + 2j, 6 + 3j])
        assert p.equals(q)
        assert not p.equals(ProjPoint([1, 2, 4]))


class TestApply:
    def test_identity(self):
        p = ProjPoint([1, 2, 3])
        m = ProjMap(np.eye(3))
        assert m.apply(p).equals(p)

    def test_scale_equivalence(self):
        p = ProjPoint([1, 2, 3])
        m = ProjMap(2.0 * np.eye(3))
        assert m.apply(p).equals(p)

    def test_round_trip_oracle(self, rng):
        for _ in range(50):
            m = random_proj_map(rng, 2, complex_entries=True)
            p = random_point(rng, 2, complex_entries=True)
            back = m.inverse().apply(m.apply(p))
            assert back.equals(p, 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ProjMap(np.eye(3)).apply(ProjPoint([1, 2, 3, 4]))


class TestCrossRatio:
    def test_harmonic(self):
        # affine parameters 0, infinity, 1, -1
        pts = collinear_points([0.0, None, 1.0, -1.0])
        assert abs(cross_ratio(*pts) - (-1.0)) < 1e-12

    def test_coincidence_gives_zero(self):
        pts = collinear_points([0.5, 2.0, 0.5, -1.0])
        assert abs(cross_ratio(*pts)) < 1e-12

    def test_non_collinear_rejected(self):
        pts = [ProjPoint([1, 0, 1]), ProjPoint([0, 1, 1]),
               ProjPoint([1, 1, 1]), ProjPoint([1, -1, 1])]
        with pytest.raises(GeometryError):
            cross_ratio(*pts)

    def test_invariance_oracle(self, rng):
        for _ in range(100):
            ts = rng.uniform(-2, 2, 4)
            if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) < 0.05:
                continue
            pts = collinear_points(ts,
                                   base=rng.uniform(-1, 1, 3),
                                   direction=rng.uniform(-1, 1, 3))
            g = random_proj_map(rng, 2)
            before = cross_ratio(*pts)
            after = cross_ratio(*[g.apply(p) for p in pts])
            assert abs(before - after) <= 1e-9 * max(1.0, abs(before))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_permutation_law(self, seed):
        rng = rng_from(seed)
        ts = rng.uniform(-2, 2, 4)
        if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) < 0.1:
            return
        p1, p2, p3, p4 = collinear_points(ts)
        cr = cross_ratio(p1, p2, p3, p4)
        both_swapped = cross_ratio(p2, p1, p4, p3)
        assert abs(cr - both_swapped) < 1e-9 * max(1.0, abs(cr))
        last_swapped = cross_ratio(p1, p2, p4, p3)
        assert abs(last_swapped - 1.0 / cr) < 1e-9 * max(1.0, abs(1.0 / cr))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.0, max_value=6.28))
    def test_scale_invariance(self, seed, mag, arg):
        rng = rng_from(seed)
        ts = rng.uniform(-2, 2, 4)
        if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) < 0.1:
            return
        pts = collinear_points(ts)
        scale = mag * np.exp(1j * arg)
        rescaled = [ProjPoint(scale * p.coords) for p in pts]
        cr1, cr2 = cross_ratio(*pts), cross_ratio(*rescaled)
        assert abs(cr1 - cr2) <= 1e-9 * max(1.0, abs(cr1))


class TestLineQuadric:
    def test_unit_circle_axis(self):
        hit = line_quadric_intersections(ProjPoint([0, 0, 1.0]),
                                         ProjPoint([1.0, 0, 0]), UNIT_CIRCLE)
        plus = ProjPoint([1.0, 0.0, 1.0])
        minus = ProjPoint([-1.0, 0.0, 1.0])
        assert (hit.first.equals(plus) and hit.second.equals(minus)) or \
               (hit.first.equals(minus) and hit.second.equals(plus))
        assert not hit.tangent

    def test_point_on_quadric_is_returned(self):
        a = ProjPoint([1.0, 0, 1.0])   # on the circle
        b = ProjPoint([0.3, 0.1, 1.0])
        hit = line_quadric_intersections(a, b, UNIT_CIRCLE)
        assert hit.first.equals(a, 1e-9) or hit.second.equals(a, 1e-9)

    def test_substitution_oracle(self, rng):
        from conftest import random_nondegenerate_quadric
        for _ in range(60):
            q = random_nondegenerate_quadric(rng, 2)
            a = random_point(rng, 2, complex_entries=True)
            b = random_point(rng, 2, complex_entries=True)
            try:
                hit = line_quadric_intersections(a, b, q)
            except GeometryError:
                continue
            assert on_quadric(hit.first, q, 1e-10)
            assert on_quadric(hit.second, q, 1e-10)

    def test_tangent_flag(self):
        # vertical line x = 1 touches the unit circle at (1, 0)
        hit = line_quadric_intersections(ProjPoint([1.0, 0.5, 1.0]),
                                         ProjPoint([1.0, -0.5, 1.0]), UNIT_CIRCLE)
        assert hit.tangent
        assert hit.first.equals(hit.second)
        assert hit.first.equals(ProjPoint([1.0, 0.0, 1.0]), 1e-8)

    def test_generator_flagged(self):
        ruled = Quadric(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        a = ProjPoint([1.0, 0.0, 0.0, 1.0])
        b = ProjPoint([0.0, 1.0, 1.0, 0.0])
        # the segment a + t b stays on the quadric: a generator
        with pytest.raises(GeneratorChord):
            line_quadric_intersections(ProjPoint(a.coords + 0.5 * b.coords),
                                       ProjPoint(a.coords + 2.0 * b.coords), ruled)

    def test_coincident_endpoints_rejected(self):
        p = ProjPoint([1.0, 2.0, 3.0])
        with pytest.raises(GeometryError):
            line_quadric_intersections(p, ProjPoint(2 * p.coords), UNIT_CIRCLE)


class TestIncidence:
    def test_on_quadric_circular_point(self):
        assert on_quadric(ProjPoint([1.0, 1.0j, 0.0]), UNIT_CIRCLE)
        assert not on_quadric(ProjPoint([1.0, 0.0, 0.0]), UNIT_CIRCLE)

    def test_incident_plane(self):
        h = Hyperplane([0.0, 0.0, 1.0])
        assert incident(ProjPoint([1.0, 0.0, 0.0]), h)
        assert not incident(ProjPoint([0.0, 0.0, 1.0]), h)

    def test_meet_is_incident_with_both(self, rng):
        for _ in range(30):
            g = Hyperplane(rng.uniform(-1, 1, 3))
            h = Hyperplane(rng.uniform(-1, 1, 3))
            p = meet_point(g, h)
            assert incident(p, g) and incident(p, h)

    def test_scale_invariance_of_verdicts(self, rng):
        for _ in range(20):
            p = random_point(rng, 2, complex_entries=True)
            scale = complex(rng.uniform(0.2, 5), rng.uniform(-3, 3))
            q = ProjPoint(scale * p.coords)
            assert on_quadric(p, UNIT_CIRCLE) == on_quadric(q, UNIT_CIRCLE)
            h = Hyperplane(rng.uniform(-1, 1, 3))
            assert incident(p, h, 1e-8) == incident(q, h, 1e-8)
