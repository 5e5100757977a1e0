import cmath
import hashlib
import re

import numpy as np
import pytest

from erlangen.numerics import GeometryError, equal_up_to_scale, proportionality
from erlangen.moebius import INFINITY, MoebiusMap, random_moebius
from erlangen.projective import ProjMap, ProjPoint, Quadric, cross_ratio, incident, on_quadric
from erlangen.transfers import (
    CircleCoords,
    PlueckerLine,
    canonical_conic_point,
    circle_angle,
    circle_to_coords,
    conic_param,
    conic_param_inverse,
    coords_to_circle,
    coords_to_point,
    hesse_line,
    klein_form,
    klein_quadric,
    lie_apply,
    line_to_coords,
    lines_intersect_det,
    moebius_circle_matrix,
    pluecker_conjugate,
    pluecker_embed,
    point_circle,
    random_inversive_map,
    random_lie_map,
    stereographic_circle_fit,
    tangency_residual,
)

from conftest import random_proj_map

UNIT_CIRCLE = Quadric(np.diag([1.0, 1.0, -1.0]).astype(complex))


def random_real_conic_with_center(rng):
    """A real conic with real points: a projective image of the unit circle,
    together with the images of two real circle points (usable as centers)."""
    g = random_proj_map(rng, 2)
    conic = g.apply_quadric(UNIT_CIRCLE)
    c1 = g.apply(ProjPoint([1.0, 0.0, 1.0]))
    c2 = g.apply(ProjPoint([0.0, 1.0, 1.0]))
    return conic, c1, c2


class TestConicParam:
    def test_unit_circle_t0(self):
        p = conic_param(UNIT_CIRCLE, ProjPoint([-1.0, 0.0, 1.0]), 0.0)
        assert p.equals(ProjPoint([1.0, 0.0, 1.0]), 1e-12)

    def test_round_trip(self, rng):
        center = ProjPoint([-1.0, 0.0, 1.0])
        for _ in range(50):
            t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p = conic_param(UNIT_CIRCLE, center, t)
            back = conic_param_inverse(UNIT_CIRCLE, center, p)
            assert not back.infinite
            assert abs(back.value - t) < 1e-10 * (1 + abs(t))

    def test_infinity_parameter(self):
        center = ProjPoint([-1.0, 0.0, 1.0])
        p = conic_param(UNIT_CIRCLE, center, INFINITY)
        assert on_quadric(p, UNIT_CIRCLE, 1e-12)
        back = conic_param_inverse(UNIT_CIRCLE, center, p)
        assert back.infinite

    def test_center_must_lie_on_conic(self):
        with pytest.raises(GeometryError):
            conic_param(UNIT_CIRCLE, ProjPoint([0.0, 0.0, 1.0]), 0.0)

    def test_cross_ratio_transport(self, rng):
        # the binary-form picture and the conic picture agree on quadruples
        for _ in range(200):
            conic, c1, c2 = random_real_conic_with_center(rng)
            ts = rng.normal(size=4) + 1j * rng.normal(size=4)
            if min(abs(ts[i] - ts[j]) for i in range(4)
                   for j in range(i + 1, 4)) < 0.05:
                continue
            pts = [conic_param(conic, c1, t) for t in ts]
            params2 = [conic_param_inverse(conic, c2, p) for p in pts]
            if any(p.infinite for p in params2):
                continue
            cr_line = cross_ratio(*[ProjPoint([t, 1.0]) for t in ts])
            cr_conic = cross_ratio(*[ProjPoint([p.value, 1.0]) for p in params2])
            assert abs(cr_line - cr_conic) <= 1e-9 * max(1.0, abs(cr_line))


class TestHesseLine:
    def test_symmetric_parameters_give_perpendicular_chord(self):
        base = canonical_conic_point(UNIT_CIRCLE)
        # the base point is real; the chord of parameters +-t is then
        # perpendicular to the symmetry axis through it
        h = hesse_line(UNIT_CIRCLE, 0.7, -0.7)
        p1 = conic_param(UNIT_CIRCLE, base, 0.7)
        p2 = conic_param(UNIT_CIRCLE, base, -0.7)
        assert incident(p1, h) and incident(p2, h)
        # mirrored points share the chord, so it is axis-perpendicular
        mirror = np.abs(p1.normalized()) - np.abs(p2.normalized())
        assert np.max(np.abs(mirror)) < 1e-9

    def test_tangent_case(self):
        h = hesse_line(UNIT_CIRCLE, 0.7, 0.7)
        base = canonical_conic_point(UNIT_CIRCLE)
        p = conic_param(UNIT_CIRCLE, base, 0.7)
        assert incident(p, h)
        # the tangent at p is the polar line of p
        _, resid = proportionality(h.coeffs, UNIT_CIRCLE.matrix @ p.coords)
        assert resid < 1e-9

    def test_symmetry_in_parameters(self, rng):
        for _ in range(20):
            t1 = complex(rng.normal(), rng.normal())
            t2 = complex(rng.normal(), rng.normal())
            h12 = hesse_line(UNIT_CIRCLE, t1, t2)
            h21 = hesse_line(UNIT_CIRCLE, t2, t1)
            _, resid = proportionality(h12.coeffs, h21.coeffs)
            assert resid < 1e-10

    def test_conjugation(self, rng):
        # transporting parameters through a conic-preserving map commutes
        # with forming the chord
        from erlangen.numerics import sample_form_preserving
        for t in range(20):
            m = sample_form_preserving(UNIT_CIRCLE.matrix, 900 + t)
            g = ProjMap(m)
            base = canonical_conic_point(UNIT_CIRCLE)
            t1 = complex(rng.normal(), rng.normal())
            t2 = complex(rng.normal(), rng.normal())
            p1 = conic_param(UNIT_CIRCLE, base, t1)
            p2 = conic_param(UNIT_CIRCLE, base, t2)
            s1 = conic_param_inverse(UNIT_CIRCLE, base, g.apply(p1))
            s2 = conic_param_inverse(UNIT_CIRCLE, base, g.apply(p2))
            if s1.infinite or s2.infinite:
                continue
            lhs = hesse_line(UNIT_CIRCLE, s1.value, s2.value)
            rhs = g.apply_hyperplane(hesse_line(UNIT_CIRCLE, t1, t2))
            _, resid = proportionality(lhs.coeffs, rhs.coeffs)
            assert resid < 1e-9


class TestPluecker:
    def test_axis_line(self):
        line = pluecker_embed(ProjPoint([1.0, 0, 0, 0]), ProjPoint([0, 1.0, 0, 0]))
        _, resid = proportionality(line.p, np.array([1, 0, 0, 0, 0, 0], dtype=complex))
        assert resid < 1e-12

    def test_spanning_pair_independence(self):
        a = ProjPoint([1.0, 2.0, -1.0, 0.5])
        b = ProjPoint([0.0, 1.0, 1.0, -2.0])
        l1 = pluecker_embed(a, b)
        l2 = pluecker_embed(ProjPoint(a.coords + b.coords), b)
        assert l1.equals(l2, 1e-10)

    def test_klein_relation_exact(self, rng):
        for _ in range(100):
            a = ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4))
            b = ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4))
            p = pluecker_embed(a, b).p
            val = abs(p[0] * p[3] + p[1] * p[4] + p[2] * p[5])
            assert val <= 1e-12 * float(np.max(np.abs(p))) ** 2

    def test_intersection_iff_form_vanishes(self, rng):
        hits = misses = 0
        for _ in range(100):
            make_intersecting = rng.random() < 0.5
            a1 = ProjPoint(rng.normal(size=4))
            b1 = ProjPoint(rng.normal(size=4))
            if make_intersecting:
                # share the point a1
                a2, b2 = a1, ProjPoint(rng.normal(size=4))
            else:
                a2 = ProjPoint(rng.normal(size=4))
                b2 = ProjPoint(rng.normal(size=4))
            l1, l2 = pluecker_embed(a1, b1), pluecker_embed(a2, b2)
            om = klein_form(l1.p / np.linalg.norm(l1.p), l2.p / np.linalg.norm(l2.p))
            det = lines_intersect_det(a1, b1, a2, b2)
            det /= (np.linalg.norm(a1.coords) * np.linalg.norm(b1.coords)
                    * np.linalg.norm(a2.coords) * np.linalg.norm(b2.coords))
            if make_intersecting:
                assert abs(om) < 1e-10 and abs(det) < 1e-10
                hits += 1
            else:
                if abs(det) > 1e-6:
                    assert abs(om) > 1e-8
                    misses += 1
        assert hits > 10 and misses > 10

    def test_conjugate_identity(self):
        g6 = pluecker_conjugate(ProjMap(np.eye(4)))
        _, resid = proportionality(g6.matrix, np.eye(6, dtype=complex))
        assert resid < 1e-12

    def test_conjugate_diagonal(self):
        g6 = pluecker_conjugate(ProjMap(np.diag([1.0, 1.0, 1.0, 2.0])))
        _, resid = proportionality(g6.matrix,
                                   np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 1.0]).astype(complex))
        assert resid < 1e-12

    def test_conjugate_commutes_and_preserves_form(self, rng):
        k = klein_quadric().matrix
        for _ in range(100):
            g = random_proj_map(rng, 3)
            g6 = pluecker_conjugate(g)
            a = ProjPoint(rng.normal(size=4))
            b = ProjPoint(rng.normal(size=4))
            lhs = pluecker_embed(g.apply(a), g.apply(b)).p
            rhs = g6.matrix @ pluecker_embed(a, b).p
            _, resid = proportionality(lhs, rhs)
            assert resid < 1e-9
            _, form_resid = proportionality(g6.matrix.T @ k @ g6.matrix, k)
            assert form_resid < 1e-9


class TestCircleCoords:
    def test_unit_circle_coordinates(self):
        c = circle_to_coords(0, 1.0, +1)
        _, resid = proportionality(c.u, np.array([0, 0, 1j, 0, 1.0]))
        assert resid < 1e-12

    def test_point_circle_has_zero_fifth(self):
        c = circle_to_coords(0.3 - 0.4j, 0.0)
        assert c.is_point

    def test_orientation_flips_fifth_only(self):
        cp = circle_to_coords(1 + 1j, 2.0, +1)
        cm = circle_to_coords(1 + 1j, 2.0, -1)
        assert np.allclose(cp.u[:4], cm.u[:4])
        assert abs(cp.u[4] + cm.u[4]) < 1e-12

    def test_round_trip(self, rng):
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            r = rng.uniform(0.05, 3.0)
            o = 1 if rng.random() < 0.5 else -1
            d = coords_to_circle(circle_to_coords(z, r, o))
            assert d.kind == "circle"
            assert abs(d.center - z) < 1e-10 * (1 + abs(z))
            assert abs(d.radius - r) < 1e-10 * (1 + r)
            assert d.orientation == o

    def test_line_encoding_flagged(self):
        n = cmath.exp(0.3j)
        d = coords_to_circle(line_to_coords(n, -0.7))
        assert d.kind == "line"
        assert abs(d.normal - n) < 1e-10
        assert abs(d.offset - (-0.7)) < 1e-10

    def test_reversed_line_decodes_to_the_opposite_normal(self):
        # a decoded line carries its orientation in the sign of its normal
        n, offset = 0.6 + 0.8j, -0.7
        d = coords_to_circle(line_to_coords(n, offset, -1))
        assert (d.kind, d.orientation) == ("line", +1)
        assert abs(d.normal - (-n)) < 1e-12
        assert abs(d.offset - (-offset)) < 1e-12

    def test_point_round_trip_including_infinity(self):
        z = coords_to_point(point_circle(2 - 1j))
        assert abs(z.value - (2 - 1j)) < 1e-10
        assert coords_to_point(point_circle(INFINITY)).infinite

    def test_null_condition_enforced(self):
        with pytest.raises(GeometryError):
            CircleCoords([1.0, 0, 0, 0, 0])


class TestCircleAngle:
    def test_orthogonal(self):
        c1 = circle_to_coords(0, 1.0, +1)
        c2 = circle_to_coords(complex(np.sqrt(2.0), 0), 1.0, +1)
        assert abs(circle_angle(c1, c2) - np.pi / 2) < 1e-10

    def test_external_tangency_zero_with_matching_orientation(self):
        c1 = circle_to_coords(0, 1.0, +1)
        c2 = circle_to_coords(2.0, 1.0, -1)
        assert abs(circle_angle(c1, c2)) < 1e-10
        assert tangency_residual(c1, c2) < 1e-12

    def test_concentric_signals_imaginary(self):
        angle = circle_angle(circle_to_coords(0, 1.0, +1), circle_to_coords(0, 2.0, +1))
        assert abs(angle.imag) > 0.1

    def test_elementary_formula_oracle(self, rng):
        for _ in range(100):
            z1 = complex(rng.normal(), rng.normal())
            z2 = complex(rng.normal(), rng.normal())
            r1, r2 = rng.uniform(0.2, 2.0, 2)
            o1 = 1 if rng.random() < 0.5 else -1
            o2 = 1 if rng.random() < 0.5 else -1
            got = circle_angle(circle_to_coords(z1, r1, o1), circle_to_coords(z2, r2, o2))
            rho1, rho2 = o1 * r1, o2 * r2
            d2 = abs(z1 - z2) ** 2
            expect = cmath.acos((rho1**2 + rho2**2 - d2) / (2 * rho1 * rho2))
            if expect.imag < 0:
                expect = expect.conjugate()
            assert abs(got - expect) < 1e-9 * (1 + abs(expect))

    def test_point_circle_rejected(self):
        with pytest.raises(GeometryError):
            circle_angle(point_circle(0), circle_to_coords(0, 1.0))


def random_tangent_pair(rng):
    z = complex(rng.normal(), rng.normal())
    r1, r2 = rng.uniform(0.2, 1.5, 2)
    theta = rng.uniform(0, 2 * np.pi)
    c1 = circle_to_coords(z, r1, +1)
    c2 = circle_to_coords(z + (r1 + r2) * np.exp(1j * theta), r2, -1)
    return c1, c2


class TestLieMaps:
    def test_identity(self):
        c = circle_to_coords(1 + 1j, 0.5, +1)
        assert lie_apply(np.eye(5), c).equals(c)

    def test_form_violation_rejected(self):
        with pytest.raises(GeometryError):
            lie_apply(np.diag([1.0, 1, 1, 1, 2.0]), circle_to_coords(0, 1.0))

    def test_sampled_maps_preserve_form(self):
        for t in range(50):
            m5 = random_lie_map(t)
            _, resid = proportionality(m5.T @ m5, np.eye(5, dtype=complex))
            assert resid < 1e-9
            m4 = random_inversive_map(t)
            _, resid4 = proportionality(m4.T @ m4, np.eye(4, dtype=complex))
            assert resid4 < 1e-9

    def test_tangency_preserved(self, rng):
        for t in range(50):
            m = random_lie_map(t)
            c1, c2 = random_tangent_pair(rng)
            assert tangency_residual(c1, c2) < 1e-12
            i1 = lie_apply(m, c1)
            i2 = lie_apply(m, c2)
            assert tangency_residual(i1, i2) < 1e-8

    def test_inversive_subgroup_matches_moebius_on_circles(self, rng):
        # a 4x4 inversive matrix extended by the identity on the fifth
        # coordinate acts on unoriented circles exactly as the matching
        # Moebius map acts on sampled circle points
        from erlangen.transfers import stereographic_circle_fit
        for t in range(20):
            m = random_moebius(t)
            m4 = moebius_circle_matrix(m)
            m5 = np.eye(5, dtype=complex)
            m5[:4, :4] = m4
            z = complex(rng.normal(), rng.normal())
            r = rng.uniform(0.3, 1.5)
            c = circle_to_coords(z, r, +1)
            image = lie_apply(m5, c)
            pts = [m.apply(z + r * np.exp(1j * th))
                   for th in np.linspace(0, 2 * np.pi, 9)[:-1]]
            params, resid = stereographic_circle_fit(pts)
            assert resid < 1e-8
            aa, a, b, cc = params
            expected4 = np.array([1j * a, 1j * b, 1j * (aa - cc) / 2.0,
                                  (aa + cc) / 2.0])
            _, match = proportionality(image.u[:4], expected4)
            assert match < 1e-7

    def test_circle_matrix_bytes(self):
        # sha256 (first 16 hex digits) of the matrices of 22 plain and 20
        # conjugating maps, an inversion among each
        maps = [random_moebius(t) for t in range(40)] + [MoebiusMap(0, 1, 1, 0),
                                                          MoebiusMap(0, 1, 1, 0, True)]
        data = b"".join(moebius_circle_matrix(m).tobytes() for m in maps)
        assert hashlib.sha256(data).hexdigest()[:16] == "cb97b64187519702"

    def test_point_circles_reproduce_moebius_action(self, rng):
        for t in range(50):
            m = random_moebius(t)
            m4 = moebius_circle_matrix(m)
            _, resid = proportionality(m4.T @ m4, np.eye(4, dtype=complex))
            assert resid < 1e-9
            for _ in range(4):
                z = complex(rng.normal(), rng.normal())
                w = m.apply(z)
                if w.infinite:
                    continue
                img = m4 @ point_circle(z).u[:4]
                _, match = proportionality(img, point_circle(w).u[:4])
                assert match < 1e-8


@pytest.mark.parametrize("call,message", [
    (lambda: PlueckerLine([1.0, 2.0, 3.0]), "PlueckerLine needs 6 coordinates"),
    (lambda: PlueckerLine(np.zeros(6)), "PlueckerLine must be nonzero"),
    (lambda: PlueckerLine([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
     "coordinates violate the quadric of lines"),
    (lambda: pluecker_embed(ProjPoint([1.0, 0.0, 1.0]), ProjPoint([0.0, 1.0, 1.0])),
     "pluecker_embed expects points of P^3"),
    (lambda: pluecker_embed(ProjPoint([1.0, 0.0, 0.0, 1.0]), ProjPoint([2.0, 0.0, 0.0, 2.0])),
     "coincident points span no line"),
    (lambda: pluecker_conjugate(ProjMap(np.eye(3))), "pluecker_conjugate expects a map of P^3"),
    (lambda: conic_param(Quadric(np.diag([1.0, 1.0, 1.0, -1.0])), ProjPoint([1.0, 0.0, 0.0, 1.0]),
                         0.0), "conic_param works in P^2"),
    (lambda: conic_param(Quadric(np.diag([1.0, 1.0, 0.0])), ProjPoint([0.0, 0.0, 1.0]), 0.0),
     "conic is degenerate"),
    (lambda: CircleCoords([1.0, 2.0, 3.0]), "CircleCoords needs 5 components"),
    (lambda: CircleCoords(np.zeros(5)), "CircleCoords must be nonzero"),
    (lambda: circle_to_coords(0.0, -1.0), "radius must be a finite nonnegative real"),
    (lambda: line_to_coords(2.0, 0.0), "line normal must be a unit vector"),
    (lambda: coords_to_point(circle_to_coords(0.0, 1.0)), "coordinates are not a point circle"),
    (lambda: lie_apply(np.eye(4), point_circle(0.0)), "lie_apply expects a 5x5 matrix"),
], ids=["PlueckerLine-size", "PlueckerLine-zero", "PlueckerLine-off-quadric",
        "pluecker_embed-dim", "pluecker_embed-coincident", "pluecker_conjugate",
        "conic_param-dim", "conic_param-degenerate", "CircleCoords-size", "CircleCoords-zero",
        "circle_to_coords", "line_to_coords", "coords_to_point", "lie_apply"])
def test_transfer_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,message", [
    # x^2 - y^2 + 1e-9 z^2 passes the determinant test, and from (0:0:1)
    # the line to (1:1:0) meets it to second order
    (lambda: conic_param(Quadric(np.diag([1.0, -1.0, 1e-9])), ProjPoint([0.0, 0.0, 1.0]), 1.0),
     "parametrizing line degenerates on this conic"),
    (lambda: conic_param_inverse(UNIT_CIRCLE, ProjPoint([1.0, 0.0, 1.0]),
                                 ProjPoint([0.0, 0.0, 1.0])), "point must lie on the conic"),
    # the line pair xy = 0 holds two coordinate axes, which give no base point
    (lambda: hesse_line(Quadric(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])),
                        0.0, 1.0), "conic is degenerate"),
    (lambda: hesse_line(Quadric(np.eye(4)), 0.0, 1.0), "could not find a base point on the conic"),
], ids=["conic_param-line-in-conic", "conic_param_inverse-off-conic", "hesse_line-line-pair",
        "hesse_line-dim"])
def test_conic_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()


def test_a_circular_point_on_the_parametrizing_line_is_its_own_image():
    """From (0:1:1) the parameter i points at (1:i:0), which lies on every
    circle, so the line meets the circle there a second time."""
    assert conic_param(UNIT_CIRCLE, ProjPoint([0.0, 1.0, 1.0]), 1j).coords.tolist() == [1, 1j, 0]


def test_the_center_has_the_parameter_of_its_tangent():
    center = ProjPoint([0.6, 0.8, 1.0])
    t = conic_param_inverse(UNIT_CIRCLE, center, center)
    # the tangent at (0.6, 0.8) runs along (-0.8, 0.6), slope -3/4
    assert abs(t.value + 0.75) < 1e-15
    assert conic_param(UNIT_CIRCLE, center, t).equals(center)


def test_the_point_at_parameter_infinity_round_trips():
    """From (0.6, 0.8) the parameter infinity is the vertical line, which
    meets the circle again at (0.6, -0.8)."""
    center = ProjPoint([0.6, 0.8, 1.0])
    p = conic_param(UNIT_CIRCLE, center, INFINITY)
    assert p.equals(ProjPoint([0.6, -0.8, 1.0]))
    assert conic_param_inverse(UNIT_CIRCLE, center, p).infinite


def test_hesse_line_takes_infinity_on_either_side():
    one, other = hesse_line(UNIT_CIRCLE, INFINITY, 0.0), hesse_line(UNIT_CIRCLE, 0.0, INFINITY)
    assert equal_up_to_scale(one.coeffs, other.coeffs)
    assert equal_up_to_scale(one.coeffs, [1.0, 0.0, 0.0])


def test_a_circle_fit_through_infinity_is_a_line():
    """0, 1, -2 and infinity lie on the real axis, y = 0: A = a = C = 0."""
    params, resid = stereographic_circle_fit([0.0, 1.0, -2.0, INFINITY])
    assert equal_up_to_scale(params, [0.0, 0.0, 1.0, 0.0]) and resid < 1e-15
