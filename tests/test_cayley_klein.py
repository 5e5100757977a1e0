import hashlib
import math
import re

import numpy as np
import pytest

from erlangen.numerics import DimensionMismatch, GeometryError, proportionality, rng_from
from erlangen.projective import (
    GeneratorChord,
    Hyperplane,
    ProjPoint,
    Quadric,
)
from erlangen.cayley_klein import (
    CKMetric,
    DegeneracyVerdict,
    LinearComplex,
    OnAbsolute,
    ck_angle,
    ck_distance,
    ck_distance_stack,
    elliptic_metric,
    induced_surface_distance,
    klein_disk_metric,
    line_invariant,
    on_quadric_degeneracy,
)
from erlangen.transfers import klein_quadric, pluecker_embed
from erlangen.groups import sample_quadric_preserving_map

from conftest import quadric_point, random_nondegenerate_quadric

SPHERE = Quadric(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))
RULED = Quadric(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def disk_point(rng, rmax=0.9):
    while True:
        p = rng.uniform(-1, 1, 2)
        if np.linalg.norm(p) < rmax:
            return p


def artanh_chord_distance(p, q):
    """Closed-form hyperbolic distance between affine points of the disk."""
    cross = p[0] * q[1] - p[1] * q[0]
    num = math.sqrt(max(np.dot(p - q, p - q) - cross * cross, 0.0))
    return math.atanh(num / (1.0 - np.dot(p, q)))


class TestCKDistance:
    def test_coincident_points(self):
        m = klein_disk_metric()
        p = ProjPoint([0.2, 0.3, 1.0])
        assert ck_distance(p, p, m) == 0

    def test_klein_disk_axis(self):
        m = klein_disk_metric()
        origin = ProjPoint([0.0, 0.0, 1.0])
        for t in (0.1, 0.5, 0.77, 0.99):
            d = ck_distance(origin, ProjPoint([t, 0.0, 1.0]), m)
            assert abs(abs(d) - math.atanh(t)) < 1e-12

    def test_klein_disk_closed_form(self, rng):
        m = klein_disk_metric()
        for _ in range(500):
            p = disk_point(rng)
            q = disk_point(rng)
            if np.linalg.norm(p - q) < 1e-3:
                continue
            d = ck_distance(ProjPoint([*p, 1.0]), ProjPoint([*q, 1.0]), m)
            assert abs(abs(d) - artanh_chord_distance(p, q)) < 1e-9

    def test_additivity_along_geodesics(self, rng):
        m = klein_disk_metric()
        for _ in range(200):
            base = disk_point(rng, 0.5)
            direction = rng.uniform(-1, 1, 2)
            direction /= np.linalg.norm(direction)
            t1, t2 = sorted(rng.uniform(0.02, 0.25, 2))
            a, b, c = base, base + t1 * direction, base + (t1 + t2) * direction
            if max(np.linalg.norm(x) for x in (a, b, c)) > 0.92:
                continue
            pa, pb, pc = (ProjPoint([*x, 1.0]) for x in (a, b, c))
            total = abs(ck_distance(pa, pc, m))
            parts = abs(ck_distance(pa, pb, m)) + abs(ck_distance(pb, pc, m))
            assert abs(total - parts) < 1e-9

    def test_point_on_absolute_signaled(self):
        m = klein_disk_metric()
        with pytest.raises(OnAbsolute):
            ck_distance(ProjPoint([1.0, 0.0, 1.0]), ProjPoint([0.0, 0.0, 1.0]), m)

    def test_generator_chord_signaled(self):
        m = CKMetric(RULED, 0.5)
        a = np.array([1.0, 0, 0, 1.0])
        d = np.array([0, 1.0, 1.0, 0])
        with pytest.raises(GeneratorChord):
            ck_distance(ProjPoint(a + 0.2 * d), ProjPoint(a + 0.9 * d), m)

    def test_invariance_under_absolute_preserving_maps(self, rng):
        m = klein_disk_metric()
        p = ProjPoint([0.3, -0.2, 1.0])
        q = ProjPoint([-0.5, 0.1, 1.0])
        d0 = ck_distance(p, q, m)
        for t in range(25):
            g = sample_quadric_preserving_map(m.absolute, 300 + t)
            prod = g.matrix.T @ m.absolute.matrix @ g.matrix
            _, resid = proportionality(prod, m.absolute.matrix)
            assert resid < 1e-10
            d1 = ck_distance(g.apply(p), g.apply(q), m)
            assert min(abs(d1 - d0), abs(d1 + d0)) < 1e-9 * max(1.0, abs(d0))

    def test_elliptic_closed_form(self, rng):
        # the elliptic distance of real points is the angle of their lines
        # through the origin, in [0, pi/2]
        m = elliptic_metric()
        for _ in range(500):
            p, q = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            d = ck_distance(ProjPoint(p), ProjPoint(q), m)
            assert d.imag == 0 and 0 <= d.real <= math.pi / 2
            closed = math.acos(min(abs(p @ q) / (np.linalg.norm(p) * np.linalg.norm(q)), 1.0))
            assert abs(d.real - closed) < 1e-12

    def test_degenerate_absolute_rejected(self):
        with pytest.raises(GeometryError):
            CKMetric(Quadric(np.diag([1.0, 1.0, 0.0]).astype(complex)), 0.5)


def _cube_pairs():
    """3000 pairs of real points uniform in [-1, 1]^3."""
    return rng_from(2008).uniform(-1, 1, (2, 3000, 3))


class TestRepresentative:
    """ck_distance_stack returns one representative of the values
    +-c L + k P (P = 2 pi i c) for every constant c."""

    CONSTANTS = [1 + 1j, 1 - 1j, -1 + 0.5j, 2j, -0.5j, -2 - 1j, 0.5]

    def test_the_builtin_metrics_keep_their_bits(self):
        # the one rule leaves the values and codes of both metrics as they were
        p, q = _cube_pairs()
        digest = hashlib.sha256()
        for m in (klein_disk_metric(), elliptic_metric()):
            values, codes = ck_distance_stack(p, q, m.absolute.matrix, m.c)
            digest.update(values.tobytes() + codes.tobytes())
        assert digest.hexdigest()[:16] == "27db232686e39a0e"

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_every_constant_gets_the_canonical_representative(self, c):
        p, q = _cube_pairs()
        disk = klein_disk_metric().absolute.matrix
        values, codes = ck_distance_stack(p, q, disk, c)
        ok = codes == 0
        values, half = values[ok], ck_distance_stack(p, q, disk, 0.5)[0][ok]
        period = 2j * np.pi * c
        assert ok.sum() > 2000 and (values.real >= 0).all()
        # a value of the class: exp(value / c) is the cross-ratio or its inverse
        cr = np.exp(2 * half)
        assert np.minimum(np.abs(np.exp(values / c) - cr),
                          np.abs(np.exp(values / c) - 1 / cr)).max() <= 1e-9 * np.abs(cr).max()
        # the least component along P, on the +|P|/2 edge when that edge
        # has a representative with Re >= 0
        along = (values * np.conj(period)).real / abs(period)
        assert (np.abs(along) <= abs(period) / 2 * (1 + 1e-12)).all()
        lower = along < -abs(period) / 2 * (1 - 1e-12)
        assert ((-values[lower]).real < 0).all() and ((values[lower] + period).real < 0).all()
        if c == 1 + 1j:
            assert lower.sum() > 100
        # swapped, negated and rescaled points give the same value
        for pp, qq in ((q, p), (-p, q), (p, -2.5 * q)):
            other = ck_distance_stack(pp, qq, disk, c)[0][ok]
            assert np.abs(other - values).max() <= 1e-12 * max(1.0, np.abs(values).max())


class TestCKAngle:
    def test_equal_hyperplanes(self):
        m = elliptic_metric()
        h = Hyperplane([1.0, 2.0, 3.0])
        assert ck_angle(h, h, m) == 0

    def test_elliptic_right_angle(self):
        m = elliptic_metric()
        angle = ck_angle(Hyperplane([1.0, 0.0, 0.0]), Hyperplane([0.0, 1.0, 0.0]), m)
        assert abs(abs(angle) - math.pi / 2) < 1e-12

    def test_elliptic_known_angle(self):
        # lines through the origin at a Euclidean angle theta meet at theta
        m = elliptic_metric()
        for theta in (0.2, 0.7, 1.3):
            h1 = Hyperplane([0.0, 1.0, 0.0])                      # the x-axis
            h2 = Hyperplane([math.sin(theta), -math.cos(theta), 0.0])
            angle = ck_angle(h1, h2, m)
            assert min(abs(abs(angle) - theta), abs(abs(angle) - (math.pi - theta))) < 1e-9

    def test_invariance_under_absolute_preserving_maps(self, rng):
        m = elliptic_metric()
        h1 = Hyperplane([1.0, 0.3, -0.2])
        h2 = Hyperplane([-0.4, 1.0, 0.6])
        a0 = ck_angle(h1, h2, m)
        for t in range(20):
            g = sample_quadric_preserving_map(m.absolute, 500 + t)
            a1 = ck_angle(g.apply_hyperplane(h1), g.apply_hyperplane(h2), m)
            assert min(abs(a1 - a0), abs(a1 + a0)) < 1e-9 * max(1.0, abs(a0))

    def test_tangent_pencil_degeneracy(self):
        m = elliptic_metric()
        # a pencil through a point of the absolute: h1 tangent-like
        with pytest.raises(GeometryError):
            ck_angle(Hyperplane([1.0, 1.0j, 0.0]), Hyperplane([1.0, 1.0j, 1.0]), m)

    def test_lines_meeting_on_the_absolute_make_angle_zero(self):
        # y = 0 and x + 2y = 1 meet at (1, 0), on the unit circle:
        # asymptotically parallel hyperbolic lines
        m = klein_disk_metric()
        assert ck_angle(Hyperplane([0.0, 1.0, 0.0]), Hyperplane([1.0, 2.0, -1.0]), m) == 0

    def test_a_negative_cross_ratio_gives_one_value(self):
        # the cross-ratio is a negative real, and the value is the
        # representative with real part > 0 and imaginary part pi/2, however
        # the inputs are ordered and scaled
        m = klein_disk_metric()
        h1, h2 = np.array([0.1, -0.1, -0.6]), np.array([0.5, -0.8, -0.5])
        forward = ck_angle(Hyperplane(h1), Hyperplane(h2), m)
        assert forward == ck_angle(Hyperplane(h2), Hyperplane(h1), m)
        scaled = ck_angle(Hyperplane(-2.5 * h1), Hyperplane(0.3 * h2), m)
        assert abs(scaled - forward) <= 1e-12 * abs(forward)
        for value in (forward, scaled):
            assert value.real > 0 and value.imag == math.pi / 2

    def test_swapped_and_rescaled_lines_agree(self, rng):
        m = klein_disk_metric()
        for _ in range(3000):
            h1, h2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            s1, s2 = rng.choice([-1, 1], 2) * rng.uniform(0.1, 10, 2)
            try:
                angle = ck_angle(Hyperplane(h1), Hyperplane(h2), m)
            except OnAbsolute:
                continue
            for other in (ck_angle(Hyperplane(h2), Hyperplane(h1), m),
                          ck_angle(Hyperplane(s1 * h1), Hyperplane(s2 * h2), m)):
                assert abs(other - angle) <= 1e-9 * max(1.0, abs(angle))

    def test_line_tangent_to_the_absolute_raises(self):
        # x = 1 touches the unit circle; the error is worded in the dual space
        m = klein_disk_metric()
        with pytest.raises(OnAbsolute, match="point lies on the absolute"):
            ck_angle(Hyperplane([1.0, 0.0, -1.0]), Hyperplane([0.0, 1.0, 0.0]), m)


class TestDegeneracy:
    def test_generic_sphere_points_zero(self):
        assert on_quadric_degeneracy(ProjPoint([1.0, 0, 0, 1.0]),
                                     ProjPoint([0, 1.0, 0, 1.0]),
                                     SPHERE) is DegeneracyVerdict.ZERO

    def test_ruling_line_indeterminate(self):
        assert on_quadric_degeneracy(ProjPoint([1.0, 0, 0, 1.0]),
                                     ProjPoint([0, 1.0, 1.0, 0]),
                                     RULED) is DegeneracyVerdict.INDETERMINATE

    def test_coincident_points_rejected(self):
        p = ProjPoint([1.0, 0, 0, 1.0])
        with pytest.raises(GeometryError):
            on_quadric_degeneracy(p, ProjPoint(2.0 * p.coords), SPHERE)

    def test_off_quadric_rejected(self):
        with pytest.raises(GeometryError):
            on_quadric_degeneracy(ProjPoint([1.0, 0, 0, 2.0]),
                                  ProjPoint([0, 1.0, 0, 1.0]), SPHERE)

    def test_random_non_generator_pairs(self, rng):
        q = random_nondegenerate_quadric(rng, 3)
        zeros = 0
        for _ in range(500):
            p1 = quadric_point(rng, q)
            p2 = quadric_point(rng, q)
            if p1.equals(p2, 1e-8):
                continue
            verdict = on_quadric_degeneracy(p1, p2, q)
            if verdict is DegeneracyVerdict.ZERO:
                zeros += 1
        assert zeros >= 499  # random chords are generators with probability 0


class TestInducedDistance:
    def test_coincident_points(self):
        p = ProjPoint([1.0, 0, 0, 1.0])
        center = ProjPoint([0.0, 0, 0, 1.0])
        assert induced_surface_distance(p, p, SPHERE, center, 0.5) == 0

    def test_symmetry(self, rng):
        center = ProjPoint([0.0, 0, 0, 1.0])
        for _ in range(30):
            p = quadric_point(rng, SPHERE)
            q = quadric_point(rng, SPHERE)
            if p.equals(q, 1e-8):
                continue
            try:
                d1 = induced_surface_distance(p, q, SPHERE, center, 0.5)
                d2 = induced_surface_distance(q, p, SPHERE, center, 0.5)
            except (GeometryError, OnAbsolute):
                continue
            assert abs(d1 - d2) < 1e-10 * max(1.0, abs(d1))

    def test_generator_zero_center_off(self):
        center = ProjPoint([0.0, 0, 0, 1.0])
        a = np.array([1.0, 0, 0, 1.0])
        d = np.array([0, 1.0, 1.0, 0])
        p = ProjPoint(a + 0.3 * d)
        q = ProjPoint(a + 1.1 * d)
        assert abs(induced_surface_distance(p, q, RULED, center, 1.0)) < 1e-9

    def test_generator_zero_center_on(self):
        center = ProjPoint([0.0, 0.0, 1.0, 1.0])
        a = np.array([1.0, 0, 0, 1.0])
        d = np.array([0, 1.0, 1.0j, 0])       # complex generator of the sphere
        p = ProjPoint(a + 0.4 * d)
        q = ProjPoint(a + 0.9 * d)
        assert abs(induced_surface_distance(p, q, SPHERE, center, 1.0)) < 1e-9

    @pytest.mark.parametrize("c,unit", [(0.5, 1), (-0.5, 1), (0.5j, 1j), (-0.5j, 1j)])
    def test_chart_distance_center_on(self, c, unit):
        # seen from the north pole, (0.6, 0, 0.8) and (0, 0.6, -0.8) project
        # stereographically to (3, 0) and (0, 1/3) of the plane z = 0, at
        # distance sqrt(82)/3; the value is c times it, signed to real part >= 0
        north = ProjPoint([0.0, 0.0, 1.0, 1.0])
        p, q = ProjPoint([0.6, 0.0, 0.8, 1.0]), ProjPoint([0.0, 0.6, -0.8, 1.0])
        for a, b in ((p, q), (q, p)):
            d = induced_surface_distance(a, b, SPHERE, north, c)
            assert abs(d - unit * 0.5 * math.sqrt(82) / 3) < 1e-12

    def test_center_coinciding_with_point_rejected(self):
        p = ProjPoint([1.0, 0, 0, 1.0])
        q = ProjPoint([0, 1.0, 0, 1.0])
        with pytest.raises(GeometryError):
            induced_surface_distance(p, q, SPHERE, p, 1.0)


class TestLineInvariant:
    def setup_method(self):
        self.l1 = LinearComplex(pluecker_embed(ProjPoint([1.0, 0, 0, 1]),
                                               ProjPoint([0, 1.0, 0, 1])).p)
        self.l2 = LinearComplex(pluecker_embed(ProjPoint([1.0, 1, 0, 1]),
                                               ProjPoint([0, 0, 1.0, 1])).p)
        self.a = LinearComplex([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_special_flag(self):
        assert self.l1.is_special()
        assert not self.a.is_special()

    def test_same_line_gives_zero(self):
        assert abs(line_invariant(self.l1, self.l1, self.a)) < 1e-12

    def test_intersecting_lines_give_zero(self):
        l3 = LinearComplex(pluecker_embed(ProjPoint([1.0, 0, 0, 1]),
                                          ProjPoint([0, 0, 1.0, 1])).p)
        # shares the point (1:0:0:1) with l1
        assert abs(line_invariant(self.l1, l3, self.a)) < 1e-12

    def test_skew_lines_nonzero(self):
        assert abs(line_invariant(self.l1, self.l2, self.a)) > 1e-6

    def test_special_complex_rejected(self):
        with pytest.raises(GeometryError):
            line_invariant(self.l1, self.l2, self.l1)

    def test_line_in_complex_rejected(self):
        # build a line with Om(l, a) = 0: solve for a chord in the kernel
        k = klein_quadric().matrix
        rng = rng_from(10)
        for _ in range(200):
            p1 = ProjPoint(rng.normal(size=4))
            # pick the second point to kill the pairing with a
            u = k @ self.a.coeffs
            # line coords are bilinear in the points: search numerically
            p2 = ProjPoint(rng.normal(size=4))
            line = pluecker_embed(p1, p2).p
            val = line @ u
            # adjust: blend p2 toward a zero of the pairing along a segment
            p3 = ProjPoint(rng.normal(size=4))
            line2 = pluecker_embed(p1, p3).p
            val2 = line2 @ u
            if abs(val - val2) < 1e-12:
                continue
            t = val / (val - val2)
            mix = ProjPoint((1 - t) * p2.coords + t * p3.coords)
            lmix = pluecker_embed(p1, mix).p
            if abs(lmix @ u) < 1e-9 * np.linalg.norm(lmix) * np.linalg.norm(u):
                with pytest.raises(GeometryError):
                    line_invariant(LinearComplex(lmix), self.l2, self.a)
                return
        pytest.fail("could not construct a line inside the complex")

    def test_invariance_under_stabilizer(self):
        from erlangen.numerics import sample_form_preserving
        k = klein_quadric()
        base = line_invariant(self.l1, self.l2, self.a)
        for t in range(10):
            m = sample_form_preserving(k.matrix, 800 + t, fixing=self.a.coeffs)
            i1 = LinearComplex(m @ self.l1.coeffs)
            i2 = LinearComplex(m @ self.l2.coeffs)
            val = line_invariant(i1, i2, self.a)
            assert abs(val - base) < 1e-9 * max(1.0, abs(base))

    def test_zero_iff_form_vanishes_independent_of_complex(self, rng):
        k = klein_quadric().matrix
        for t in range(30):
            p = [ProjPoint(rng.normal(size=4)) for _ in range(4)]
            l1 = LinearComplex(pluecker_embed(p[0], p[1]).p)
            l2 = LinearComplex(pluecker_embed(p[2], p[3]).p)
            om = (l1.coeffs / np.linalg.norm(l1.coeffs)) @ k @ \
                 (l2.coeffs / np.linalg.norm(l2.coeffs))
            a = LinearComplex(rng.normal(size=6))
            if a.is_special(1e-6):
                continue
            try:
                val = line_invariant(l1, l2, a)
            except GeometryError:
                continue
            assert (abs(val) < 1e-8) == (abs(om) < 1e-10)


# x0 x1 + x2 x3 = 0, which holds the four basis points; seen from e0, the
# images of e2 and e3 in the chart have no nonzero coordinate in common
BASIS_QUADRIC = Quadric(np.array([[0.0, 0.5, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.5, 0.0]]))
NOT_A_LINE = LinearComplex([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("call,error,message", [
    (lambda: ck_distance(ProjPoint([0.0, 1.0]), ProjPoint([0.0, 1.0]), klein_disk_metric()),
     DimensionMismatch, "line/quadric dimension mismatch"),
    (lambda: ck_angle(Hyperplane([1.0, 0.0]), Hyperplane([0.0, 1.0]), klein_disk_metric()),
     GeometryError, "angle operands do not match the metric"),
    (lambda: on_quadric_degeneracy(ProjPoint([1.0, 0.0, 0.0, 1.0]),
                                   ProjPoint([1.0, 1.0, 0.0, 1.0]), SPHERE),
     GeometryError, "second point is not on the quadric"),
    (lambda: induced_surface_distance(ProjPoint([1.0, 0.0, 1.0]), ProjPoint([1.0, 0.0, 0.0, 1.0]),
                                      SPHERE, ProjPoint([0.0, 1.0, 0.0, 1.0]), 1.0),
     GeometryError, "dimension mismatch"),
    (lambda: induced_surface_distance(ProjPoint([1.0, 0.0, 0.0, 1.0]),
                                      ProjPoint([1.0, 1.0, 0.0, 1.0]),
                                      SPHERE, ProjPoint([0.0, 1.0, 0.0, 1.0]), 1.0),
     GeometryError, "both points must lie on the quadric"),
    (lambda: induced_surface_distance(*(ProjPoint(row) for row in np.eye(4)[[2, 3]]),
                                      BASIS_QUADRIC, ProjPoint(np.eye(4)[0]), 1.0),
     GeometryError, "projection degenerate (chart divisor vanishes)"),
    (lambda: LinearComplex([1.0, 2.0, 3.0]), GeometryError, "LinearComplex needs 6 coordinates"),
    (lambda: LinearComplex(np.zeros(6)), GeometryError, "LinearComplex must be nonzero"),
    (lambda: line_invariant(NOT_A_LINE, LinearComplex([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), NOT_A_LINE),
     GeometryError, "l1 and l2 must be lines (special complexes)"),
], ids=["ck_distance", "ck_angle", "on_quadric_degeneracy", "induced-dimension",
        "induced-off-quadric", "induced-chart-divisor", "LinearComplex-size",
        "LinearComplex-zero", "line_invariant"])
def test_cayley_klein_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
