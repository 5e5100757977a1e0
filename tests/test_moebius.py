import numpy as np
import pytest

from erlangen.numerics import equal_up_to_scale, proportionality, rng_from
from erlangen.moebius import (
    INFINITY,
    ExtendedComplex,
    GeometryError,
    MoebiusMap,
    SpherePoint,
    chordal_distance,
    circle_from_quadric,
    circle_quadric,
    inverse_stereographic,
    moebius_to_sphere,
    moebius_transform_circle,
    random_moebius,
    sphere_point_homogeneous,
    stereographic,
    unit_sphere_quadric,
)
from erlangen.projective import ProjPoint, on_quadric


class TestExtendedComplex:
    def test_infinity_distinct(self):
        assert INFINITY != ExtendedComplex(0)
        assert INFINITY == ExtendedComplex(infinite=True)

    def test_rejects_nonfinite_value(self):
        with pytest.raises(GeometryError):
            ExtendedComplex(complex(np.inf, 0))


class TestMoebiusMap:
    def test_identity(self):
        m = MoebiusMap(1, 0, 0, 1)
        for z in (0, 1 + 2j, -3j):
            assert m.apply(z).value == complex(z)

    def test_inversion(self):
        m = MoebiusMap(0, 1, 1, 0)
        assert m.apply(2).value == 0.5
        assert m.apply(INFINITY).value == 0.0
        assert m.apply(0).infinite

    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            MoebiusMap(1, 2, 2, 4)

    def test_composition_oracle(self):
        rng = rng_from(31)
        for t in range(100):
            m1 = random_moebius(2 * t)
            m2 = random_moebius(2 * t + 1)
            z = complex(rng.normal(), rng.normal())
            lhs = m1.compose(m2).apply(z)
            rhs = m1.apply(m2.apply(z))
            assert chordal_distance(lhs, rhs) < 1e-10

    def test_inverse_round_trip(self):
        rng = rng_from(7)
        for t in range(50):
            m = random_moebius(t)
            z = complex(rng.normal(), rng.normal())
            back = m.inverse().apply(m.apply(z))
            assert chordal_distance(back, ExtendedComplex(z)) < 1e-9

    def test_conjugating_flag_composes(self):
        def flagged(t, conjugating):
            m = random_moebius(t)
            return MoebiusMap(m.a, m.b, m.c, m.d, conjugating)

        m1, m2 = flagged(5, True), flagged(6, True)
        assert not m1.compose(m2).conjugating
        assert m1.compose(flagged(7, False)).conjugating


class TestStereographic:
    def test_north_pole_to_infinity(self):
        assert stereographic(SpherePoint(0, 0, 1)).infinite

    def test_equator_to_unit_circle(self):
        for theta in np.linspace(0, 2 * np.pi, 7):
            z = stereographic(SpherePoint(np.cos(theta), np.sin(theta), 0))
            assert abs(z.value - np.exp(1j * theta)) < 1e-12

    def test_round_trip(self):
        rng = rng_from(3)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0.1, 10)
            p = inverse_stereographic(z)
            back = stereographic(p)
            assert abs(back.value - z) < 1e-12 * max(1.0, abs(z))
        assert inverse_stereographic(INFINITY).z == 1.0

    def test_circle_section_maps_to_circle(self):
        # a circle on the sphere is a plane section; sampled images must
        # fit a circle or line
        from erlangen.transfers import stereographic_circle_fit
        rng = rng_from(11)
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            d = rng.uniform(-0.8, 0.8)
            # orthonormal frame of the section plane
            u = np.cross(n, [1.0, 0.3, -0.2])
            u /= np.linalg.norm(u)
            v = np.cross(n, u)
            r = np.sqrt(1 - d * d)
            images = []
            for theta in np.linspace(0, 2 * np.pi, 21)[:-1]:
                pt = d * n + r * (np.cos(theta) * u + np.sin(theta) * v)
                images.append(stereographic(SpherePoint(*pt)))
            _, resid = stereographic_circle_fit(images)
            assert resid < 1e-9


#: the probe points of the fit that moebius_to_sphere once made
PROBES = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 1 + 1j, -2 + 0.5j, 0.3 - 1.7j, INFINITY, 2j)


def probe_fit(m):
    """The unique (up to scale) M with M . lift(z) ~ lift(m(z)) over the
    probe points, as the null vector of the 45 x 16 linear system."""
    rows = []
    for z in PROBES:
        pv = sphere_point_homogeneous(z).coords
        qv = sphere_point_homogeneous(m.apply(z)).coords
        for i in range(4):
            for j in range(i + 1, 4):
                row = np.zeros(16, dtype=complex)
                row[4 * i:4 * i + 4] = qv[j] * pv
                row[4 * j:4 * j + 4] -= qv[i] * pv
                rows.append(row)
    _, s, vh = np.linalg.svd(np.array(rows))
    assert s[-2] >= 1e-8 * s[0]
    return vh[-1].reshape(4, 4)


class TestMoebiusToSphere:
    def test_identity(self):
        m = moebius_to_sphere(MoebiusMap(1, 0, 0, 1))
        _, resid = proportionality(m.matrix, np.eye(4, dtype=complex))
        assert resid < 1e-10

    def test_conjugating_inversion_fixes_equator(self):
        # z -> 1/conj(z) is inversion in the unit circle; on the sphere it
        # reflects across the equator plane
        m = moebius_to_sphere(MoebiusMap(0, 1, 1, 0, conjugating=True))
        expect = np.diag([1.0, 1.0, -1.0, 1.0])
        _, resid = proportionality(m.matrix, expect.astype(complex))
        assert resid < 1e-9

    def test_closed_form_is_the_probe_fit(self):
        maps = [random_moebius(t) for t in range(300)]
        maps += [MoebiusMap(0, 1, 1, 0, conjugating=flag) for flag in (False, True)]
        for m in maps:
            sphere_map = moebius_to_sphere(m).matrix
            assert not sphere_map.imag.any()
            assert equal_up_to_scale(sphere_map, probe_fit(m), 1e-12)

    def test_quadric_preserved(self):
        q = unit_sphere_quadric()
        for t in range(40):
            m = moebius_to_sphere(random_moebius(t))
            prod = m.matrix.T @ q.matrix @ m.matrix
            _, resid = proportionality(prod, q.matrix)
            assert resid < 1e-9

    def test_conjugation_square(self):
        rng = rng_from(17)
        for t in range(60):
            m = random_moebius(t)
            sphere_map = moebius_to_sphere(m)
            z = complex(rng.normal(), rng.normal())
            lhs = inverse_stereographic(m.apply(z)).as_array()
            img = sphere_map.apply(sphere_point_homogeneous(z)).normalized()
            img = img / img[3]
            assert np.max(np.abs(lhs - img[:3].real)) < 1e-8
            assert np.max(np.abs(img[:3].imag)) < 1e-8


class TestCircleAction:
    def test_circle_round_trip(self):
        q = circle_quadric(1 - 2j, 1.5)
        aa, a, b, cc = circle_from_quadric(q)
        assert (aa, a, b) == (1.0, 1.0, -2.0)
        assert abs(cc - (1 + 4 - 2.25)) < 1e-12

    def test_non_circle_rejected(self):
        from erlangen.projective import Quadric
        with pytest.raises(GeometryError):
            circle_from_quadric(Quadric(np.diag([1.0, 2.0, -1.0]).astype(complex)))

    def test_images_satisfy_image_conic(self):
        rng = rng_from(23)
        for t in range(50):
            m = random_moebius(t)
            center = complex(rng.normal(), rng.normal())
            radius = rng.uniform(0.3, 2.0)
            q = circle_quadric(center, radius)
            qi = moebius_transform_circle(m, q)
            for theta in np.linspace(0, 2 * np.pi, 9)[:-1]:
                w = m.apply(center + radius * np.exp(1j * theta))
                if w.infinite:
                    continue
                pt = ProjPoint([w.value.real, w.value.imag, 1.0])
                assert on_quadric(pt, qi, 1e-9)
