import cmath
import re
import warnings

import numpy as np
import pytest

from erlangen.numerics import GeometryError, proportionality
from erlangen.binary_forms import (
    BinaryForm,
    SphericalRootSet,
    cubic_hessian_cube_lambda,
    cubic_invariant_R,
    cubic_pencil_member,
    form_product,
    hessian,
    jacobian_covariant,
    perfect_square_root,
    projective_roots,
    quartic_discriminant,
    quartic_invariants,
    quartic_pencil_member,
    quartic_square_pencil,
    roots_on_sphere,
    substitute,
)

EQUATOR_CUBIC = BinaryForm([1.0, 0.0, 0.0, -1.0])        # roots at cube roots of 1
CANONICAL_QUARTIC = BinaryForm([1.0, 0.0, 1.0, 0.0, 1.0])

# Klein's pencil parameters for the canonical forms: the member of the
# cubic's sextic pencil proportional to the Hessian cube, and the three
# perfect squares of the quartic pencil
LAMBDA_CUBE = 432.0
LAMBDA_SQUARES = (-78.0 / 7.0, -156.0 / 35.0, 78.0 / 5.0)


def random_form(rng, degree, complex_entries=True):
    c = rng.normal(size=degree + 1)
    if complex_entries:
        c = c + 1j * rng.normal(size=degree + 1)
    return BinaryForm(c)


def random_unimodular(rng):
    while True:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        if abs(det) > 0.1:
            return g / np.sqrt(det)


def longitude_degrees(p):
    return np.degrees(cmath.phase(complex(p.x, p.y))) % 360.0


class TestHessian:
    def test_perfect_cube_degenerates_to_zero(self):
        h = hessian(BinaryForm([1.0, 0.0, 0.0, 0.0]))
        assert np.max(np.abs(h.coeffs)) == 0.0

    def test_double_root_square(self):
        # x^2 y has the repeated factor squared as its Hessian
        h = hessian(BinaryForm([0.0, 1.0, 0.0, 0.0]))
        _, resid = proportionality(h.coeffs, np.array([1.0, 0, 0], dtype=complex))
        assert resid < 1e-12

    def test_sum_of_cubes(self):
        h = hessian(BinaryForm([1.0, 0.0, 0.0, 1.0]))
        _, resid = proportionality(h.coeffs, np.array([0.0, 1.0, 0.0], dtype=complex))
        assert resid < 1e-12

    def test_degree(self):
        assert hessian(BinaryForm([1.0, 2.0, 3.0, 4.0, 5.0])).degree == 4

    def test_covariants_of_low_degree_are_constants(self):
        # the Hessian of a x^2 + b xy + c y^2 is the constant 4ac - b^2
        a, b, c = 2.0, 3.0 - 1.0j, 5.0
        assert hessian(BinaryForm([a, b, c])).coeffs.tolist() == [4 * a * c - b * b]
        assert hessian(BinaryForm([1.0, 0.0, 0.0])).coeffs.tolist() == [0.0]
        assert BinaryForm([1.0, 2.0]).dx().coeffs.tolist() == [1.0]
        linear = BinaryForm([1.0, 2.0]), BinaryForm([3.0, 5.0])
        assert jacobian_covariant(*linear).coeffs.tolist() == [-1.0]
        # a constant stays a degree-0 form, and its derivatives are the zero constant
        const = hessian(BinaryForm([a, b, c]))
        assert const.scaled(2).coeffs.tolist() == [2 * (4 * a * c - b * b)]
        assert substitute(const, [[1, 2], [3, 4]]).coeffs.tolist() == [4 * a * c - b * b]
        assert const.dx().coeffs.tolist() == const.dy().coeffs.tolist() == [0.0]
        assert form_product(const, const).coeffs.tolist() == [(4 * a * c - b * b) ** 2]

    def test_covariance(self, rng):
        for _ in range(100):
            g = random_unimodular(rng)
            f = random_form(rng, 3)
            lhs = hessian(substitute(f, g)).coeffs
            rhs = substitute(hessian(f), g).coeffs      # det = 1: no factor
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(lhs))

    def test_covariance_weight(self, rng):
        # non-unimodular: the Hessian picks up det^2
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            if abs(det) < 0.1:
                continue
            f = random_form(rng, 4)
            lhs = hessian(substitute(f, g)).coeffs
            rhs = det**2 * substitute(hessian(f), g).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(lhs))


class TestJacobian:
    def test_self_jacobian_vanishes(self, rng):
        f = random_form(rng, 3)
        assert np.max(np.abs(jacobian_covariant(f, f).coeffs)) < 1e-12

    def test_equator_cubic_sextic_picture(self):
        # roots of f at longitudes 0/120/240 put the roots of Q at 60/180/300
        q = jacobian_covariant(EQUATOR_CUBIC, hessian(EQUATOR_CUBIC))
        _, resid = proportionality(q.coeffs, np.array([1.0, 0, 0, 1.0], dtype=complex))
        assert resid < 1e-12
        longs = sorted(longitude_degrees(p) for p in roots_on_sphere(q))
        assert np.max(np.abs(np.array(longs) - [60.0, 180.0, 300.0])) < 1e-6

    def test_covariance(self, rng):
        for _ in range(100):
            g = random_unimodular(rng)
            f1, f2 = random_form(rng, 4), random_form(rng, 3)
            lhs = jacobian_covariant(substitute(f1, g), substitute(f2, g)).coeffs
            rhs = substitute(jacobian_covariant(f1, f2), g).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(lhs))


def test_all_covariant_ops_commute_with_substitution(rng):
    # one sweep over every covariant/invariant at unimodular substitutions
    for _ in range(100):
        g = random_unimodular(rng)
        f3 = random_form(rng, 3)
        f4 = random_form(rng, 4)
        h_lhs = hessian(substitute(f4, g)).coeffs
        h_rhs = substitute(hessian(f4), g).coeffs
        assert np.max(np.abs(h_lhs - h_rhs)) < 1e-8 * np.max(np.abs(h_lhs))
        j_lhs = jacobian_covariant(substitute(f4, g), substitute(f3, g)).coeffs
        j_rhs = substitute(jacobian_covariant(f4, f3), g).coeffs
        assert np.max(np.abs(j_lhs - j_rhs)) < 1e-8 * np.max(np.abs(j_lhs))
        r1 = cubic_invariant_R(substitute(f3, g))
        r0 = cubic_invariant_R(f3)
        assert abs(r1 - r0) < 1e-8 * max(1.0, abs(r0))
        i1, jj1 = quartic_invariants(substitute(f4, g))
        i0, jj0 = quartic_invariants(f4)
        assert abs(i1 - i0) < 1e-8 * max(1.0, abs(i0))
        assert abs(jj1 - jj0) < 1e-8 * max(1.0, abs(jj0))


class TestCubicInvariant:
    def test_repeated_root_vanishes(self):
        assert abs(cubic_invariant_R(BinaryForm([0.0, 1.0, 0.0, 0.0]))) == 0.0

    def test_distinct_roots_nonzero(self):
        # resultant oracle: disc = Res(f, f') / lead up to sign
        f = EQUATOR_CUBIC
        r = cubic_invariant_R(f)
        assert abs(r) > 1.0
        fx = np.array([3.0, 0.0, 0.0])
        res = np.linalg.det(np.array([
            [1.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, -1.0],
            [3.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, 0.0, 0.0],
        ]))
        # disc = -Res(f, f')/a for cubics with this sign convention
        assert abs(abs(r) - abs(res)) < 1e-9

    def test_scaling_degree_four(self, rng):
        f = random_form(rng, 3)
        lam = 0.7 - 1.1j
        r1 = cubic_invariant_R(BinaryForm(lam * f.coeffs))
        assert abs(r1 - lam**4 * cubic_invariant_R(f)) < 1e-10 * abs(r1)

    def test_wrong_degree(self):
        with pytest.raises(GeometryError):
            cubic_invariant_R(BinaryForm([1.0, 0.0, 1.0]))


class TestQuarticInvariants:
    def test_x4_plus_y4_harmonic(self):
        _, j = quartic_invariants(BinaryForm([1.0, 0, 0, 0, 1.0]))
        assert abs(j) == 0.0

    def test_square_on_unit_circle_harmonic(self):
        # roots i^k * e^{i 0.3}: a square inscribed in the unit circle
        w = cmath.exp(0.3j)
        roots = [w, 1j * w, -w, -1j * w]
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, [1.0, -r])
        _, j = quartic_invariants(BinaryForm(coeffs))
        assert abs(j) < 1e-12

    def test_equianharmonic(self):
        # x^4 + x y^3: i = 0 (equianharmonic quadruple)
        i, _ = quartic_invariants(BinaryForm([1.0, 0, 0, 1.0, 0]))
        assert abs(i) == 0.0

    def test_substitution_invariance(self, rng):
        for _ in range(100):
            g = random_unimodular(rng)
            f = random_form(rng, 4)
            i0, j0 = quartic_invariants(f)
            i1, j1 = quartic_invariants(substitute(f, g))
            assert abs(i1 - i0) < 1e-9 * max(1.0, abs(i0))
            assert abs(j1 - j0) < 1e-9 * max(1.0, abs(j0))


class TestRootsOnSphere:
    def test_xy_roots_at_poles(self):
        pts = roots_on_sphere(BinaryForm([0.0, 1.0, 0.0]))
        zs = sorted(p.z for p in pts)
        assert abs(zs[0] + 1.0) < 1e-12 and abs(zs[1] - 1.0) < 1e-12

    def test_equator_cubic_equidistant(self):
        pts = roots_on_sphere(EQUATOR_CUBIC)
        longs = sorted(longitude_degrees(p) for p in pts)
        assert np.max(np.abs(np.array(longs) - [0.0, 120.0, 240.0])) < 1e-6
        assert all(abs(p.z) < 1e-12 for p in pts)

    def test_hessian_at_poles(self):
        pts = roots_on_sphere(hessian(EQUATOR_CUBIC))
        assert sorted(abs(p.z) for p in pts) == [1.0, 1.0]

    def test_residuals_on_random_forms(self, rng):
        for _ in range(100):
            f = random_form(rng, int(rng.choice([3, 4])))
            pts = roots_on_sphere(f)
            assert len(pts) == f.degree

    def test_count_includes_infinity(self):
        # x^2 y^2 has roots 0, 0, inf, inf
        pts = roots_on_sphere(BinaryForm([0.0, 0.0, 1.0, 0.0, 0.0]))
        assert len(pts) == 4
        assert sum(1 for p in pts if p.z > 0.99) == 2


class TestCubicPencil:
    def test_lambda_zero_gives_q_squared(self, rng):
        f = random_form(rng, 3)
        q = jacobian_covariant(f, hessian(f))
        member = cubic_pencil_member(f, 0.0)
        assert member.proportional_to(form_product(q, q), 1e-10)

    def test_hessian_cube_at_fixture_lambda(self, rng):
        for f in (EQUATOR_CUBIC, random_form(rng, 3), random_form(rng, 3)):
            member = cubic_pencil_member(f, LAMBDA_CUBE)
            h = hessian(f)
            h3 = form_product(form_product(h, h), h)
            assert member.proportional_to(h3, 1e-8)

    def test_oracle_solves_for_the_cube_lambda(self):
        assert abs(cubic_hessian_cube_lambda() - LAMBDA_CUBE) < 1e-8

    def test_degenerate_cubic_rejected(self):
        with pytest.raises(GeometryError):
            cubic_pencil_member(BinaryForm([0.0, 1.0, 0.0, 0.0]), 1.0)

    def test_note_table_pattern(self, rng):
        # members of the equator-cubic pencil sit at latitudes +-alpha with
        # longitudes beta + {0, 120, 240} and -beta + {0, 120, 240}: the root
        # set is closed under the 120-degree rotation about the poles and
        # under the half-turn (x, y, z) -> (x, -y, -z)
        for _ in range(10):
            lam = complex(rng.normal(), rng.normal()) * 100
            member = cubic_pencil_member(EQUATOR_CUBIC, lam)
            pts = roots_on_sphere(member).as_array()

            c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            half_turn = np.diag([1.0, -1.0, -1.0])
            for sym in (rot, half_turn):
                images = pts @ sym.T
                for img in images:
                    assert np.min(np.linalg.norm(pts - img, axis=1)) < 1e-6


class TestQuarticPencil:
    def test_lambda_zero(self):
        f = CANONICAL_QUARTIC
        i, _ = quartic_invariants(f)
        member = quartic_pencil_member(f, 0.0)
        assert member.proportional_to(BinaryForm(i * hessian(f).coeffs), 1e-12)

    def test_double_zero_invariants_rejected(self):
        # x^4 + x y^3 has i = 0 but j != 0: fine; build i = j = 0 instead
        # (a quartic with a triple root)
        f = BinaryForm([0.0, 1.0, 0.0, 0.0, 0.0])
        i, j = quartic_invariants(f)
        assert abs(i) < 1e-12 and abs(j) < 1e-12
        with pytest.raises(GeometryError):
            quartic_pencil_member(f, 1.0)

    def test_fixture_lambdas_give_squares(self):
        t = jacobian_covariant(CANONICAL_QUARTIC, hessian(CANONICAL_QUARTIC))
        acc = np.array([1.0 + 0j])
        for lam in LAMBDA_SQUARES:
            member = quartic_pencil_member(CANONICAL_QUARTIC, lam)
            quad = perfect_square_root(member)
            acc = np.convolve(acc, quad.coeffs)
            # resultant check: the discriminant vanishes at a square
            d = quartic_discriminant(member.coeffs)
            scale = float(np.max(np.abs(member.coeffs))) ** 6
            assert abs(d) < 1e-10 * scale
        assert BinaryForm(acc).proportional_to(t, 1e-8)

    def test_oracle_finds_the_square_lambdas(self):
        lambdas = [lam.real for lam, _ in quartic_square_pencil()]
        assert len(lambdas) == len(LAMBDA_SQUARES)
        for got, want in zip(lambdas, LAMBDA_SQUARES):
            assert abs(got - want) < 1e-8

    def test_oracle_regenerates_lambdas_for_random_quartic(self, rng):
        f = random_form(rng, 4)
        found = quartic_square_pencil(f)
        assert len(found) == 3
        t = jacobian_covariant(f, hessian(f))
        acc = np.array([1.0 + 0j])
        for lam, quad in found:
            member = quartic_pencil_member(f, lam)
            assert form_product(quad, quad).proportional_to(member, 1e-7)
            acc = np.convolve(acc, quad.coeffs)
        assert BinaryForm(acc).proportional_to(t, 1e-7)

    def test_resolvent_cubic_gives_the_squares_of_random_quartics(self):
        # mu = lambda j / i solves mu^3 - 432 i mu - 1728 j = 0, and each
        # member of the pencil there is the square of its quadratic
        rng = np.random.default_rng(24)
        for _ in range(200):
            f = random_form(rng, 4)
            i, j = quartic_invariants(f)
            found = quartic_square_pencil(f)
            assert len(found) == 3
            for lam, quad in found:
                assert form_product(quad, quad).proportional_to(quartic_pencil_member(f, lam), 1e-8)
                mu = lam * j / i
                terms = (mu**3, 432 * i * mu, 1728 * j)
                assert abs(terms[0] - terms[1] - terms[2]) <= 1e-8 * sum(map(abs, terms))

    @pytest.mark.parametrize("coeffs", [[0.0, 0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0],
                                        [0.0, 1.0, 0.0, 0.0, 0.0]],
                             ids=["x2y2", "x4", "x3y"])
    def test_repeated_root_quartics_are_refused(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=r"^degenerate quartic \(discriminant ~ 0\)$"):
                quartic_square_pencil(BinaryForm(coeffs))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_harmonic_quartic_has_its_hessian_as_the_one_square(self, sign):
        f = BinaryForm([1.0, 0.0, 0.0, 0.0, sign])       # x^4 +- y^4: j = 0
        i, _ = quartic_invariants(f)
        [(lam, quad)] = quartic_square_pencil(f)
        assert lam == 0j
        assert form_product(quad, quad).proportional_to(hessian(f).scaled(i), 1e-12)

    def test_equianharmonic_quartic_has_no_square(self):
        assert quartic_square_pencil(BinaryForm([1.0, 0.0, 0.0, -1.0, 0.0])) == []   # i = 0

    def test_sign_flip_involutions(self, rng):
        # the canonical quartic's pencil members have root quadruples closed
        # under the three half-turns about the coordinate axes
        flips = [np.diag(d) for d in ([1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1])]
        for _ in range(10):
            lam = complex(rng.normal(), rng.normal()) * 10
            member = quartic_pencil_member(CANONICAL_QUARTIC, lam)
            pts = roots_on_sphere(member).as_array()
            for flip in flips:
                images = pts @ flip.T
                for img in images:
                    assert np.min(np.linalg.norm(pts - img, axis=1)) < 1e-8

    def test_canonical_sextic_is_axis_product(self):
        t = jacobian_covariant(CANONICAL_QUARTIC, hessian(CANONICAL_QUARTIC))
        axes = np.convolve(np.convolve([0.0, 1.0, 0.0], [1.0, 0.0, -1.0]),
                           [1.0, 0.0, 1.0])   # xy (x^2 - y^2)(x^2 + y^2)
        _, resid = proportionality(t.coeffs, np.array(axes, dtype=complex))
        assert resid < 1e-12


class TestPencilDegeneration:
    def test_sextic_pencil_contains_f_squared_q_squared_delta_cubed(self):
        # as the parameter traverses the pencil it passes f^2 (twice each
        # root), Q^2, and the Hessian cube (three times each root)
        f = EQUATOR_CUBIC
        r = cubic_invariant_R(f)
        q = jacobian_covariant(f, hessian(f))
        f2 = form_product(f, f)
        q2 = form_product(q, q)
        h = hessian(f)
        h3 = form_product(form_product(h, h), h)
        # lambda = 0 is Q^2
        assert cubic_pencil_member(f, 0.0).proportional_to(q2, 1e-12)
        # the fixture lambda is the Hessian cube
        assert cubic_pencil_member(f, LAMBDA_CUBE).proportional_to(h3, 1e-8)
        # f^2 appears in the limit of large lambda: Q^2/lam + R f^2 -> R f^2
        big = cubic_pencil_member(f, 1e9)
        _, resid = proportionality(big.coeffs / 1e9, r * f2.coeffs)
        assert resid < 1e-6


def _square_roots(rng):
    """Quadratics q, by family, whose squares (times the listed factors)
    perfect_square_root must take apart: near xy, where the roots cluster
    at 0 and infinity; coefficients of sizes 1e-6 to 1e6; a root at
    infinity or at 0; a double root; and the monomials."""
    near_xy = [(np.array([eps, 1.0, eps]), s)
               for eps in 10.0 ** -np.arange(1, 13) for s in (1, 1j, -2)]
    wide = [((rng.normal(size=3) + 1j * rng.normal(size=3)) * 10 ** rng.uniform(-6, 6, 3),
             0.3 + 1.1j) for _ in range(500)]
    ab = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    at_infinity = [(np.array(q), 0.3 + 1.1j) for a, b in ab for q in ([0, a, b], [a, b, 0])]
    double = [(np.convolve([a, b], [a, b]), 0.3 + 1.1j) for a, b in ab]
    monomials = [(np.array(q, dtype=float), s)
                 for q in ([1, 0, 0], [0, 1, 0], [0, 0, 1]) for s in (1, 1j, -2)]
    return {"near-xy": near_xy, "wide-scale": wide, "root-at-infinity": at_infinity,
            "double-root": double, "monomial": monomials}


@pytest.mark.parametrize("family", ["near-xy", "wide-scale", "root-at-infinity",
                                    "double-root", "monomial"])
def test_perfect_square_root_takes_every_square_apart(family):
    for q, s in _square_roots(np.random.default_rng(22))[family]:
        f = BinaryForm(s * np.convolve(q, q))
        root = perfect_square_root(f)
        _, resid = proportionality(form_product(root, root).coeffs, f.coeffs)
        assert resid <= 1e-12, (q, s, resid)


def test_perfect_square_root_refuses_every_other_quartic():
    rng = np.random.default_rng(23)
    quartics = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(500)]
    quartics += [[0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0, 0.0]]   # x^3 y, x^3 y + x y^3
    # near x^3 y: the root from the front overflows, the one from the back
    # has a square of subnormal size
    quartics += [[1e-320, 1.0, 0.0, 0.0, 1e-320]]
    for coeffs in quartics:
        with pytest.raises(GeometryError,
                           match="^form is not a perfect square within tolerance$"):
            perfect_square_root(BinaryForm(coeffs))


def test_a_subnormal_form_is_proportional_only_to_its_multiples():
    tiny = BinaryForm([0.0, 0.0, 0.0, 0.0, 1e-320])
    assert not tiny.proportional_to(BinaryForm([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert tiny.proportional_to(BinaryForm([0.0, 0.0, 0.0, 0.0, 5.0]))


@pytest.mark.parametrize("call,message", [
    (lambda: BinaryForm([1.0]), "BinaryForm needs at least two coefficients"),
    (lambda: BinaryForm([[1.0, 2.0], [3.0, 4.0]]), "BinaryForm needs at least two coefficients"),
    (lambda: hessian(BinaryForm([1.0, 2.0])), "hessian needs degree >= 2"),
    # the derivative of y by x is the zero constant, of degree 0
    (lambda: jacobian_covariant(BinaryForm([0.0, 1.0]).dx(), BinaryForm([1.0, 2.0])),
     "jacobian needs degrees >= 1"),
    (lambda: cubic_invariant_R(CANONICAL_QUARTIC), "cubic invariant needs degree 3"),
    (lambda: quartic_invariants(EQUATOR_CUBIC), "quartic invariants need degree 4"),
    (lambda: cubic_pencil_member(CANONICAL_QUARTIC, 1.0), "cubic pencil needs a degree-3 form"),
    (lambda: quartic_pencil_member(EQUATOR_CUBIC, 1.0), "quartic pencil needs a degree-4 form"),
    (lambda: perfect_square_root(EQUATOR_CUBIC), "perfect_square_root expects a quartic"),
    (lambda: BinaryForm([0.0, 0.0]), "BinaryForm must be nonzero"),
    (lambda: substitute(EQUATOR_CUBIC, np.eye(3)), "substitution needs a 2x2 matrix"),
    (lambda: SphericalRootSet([1j]), "SphericalRootSet holds SpherePoints"),
], ids=["BinaryForm-size", "BinaryForm-ndim", "hessian", "jacobian_covariant",
        "cubic_invariant_R", "quartic_invariants", "cubic_pencil_member",
        "quartic_pencil_member", "perfect_square_root", "BinaryForm-zero", "substitute",
        "SphericalRootSet"])
def test_degree_and_shape_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()


def test_forms_of_different_degree_are_not_proportional():
    assert not BinaryForm([1.0, 0.0]).proportional_to(BinaryForm([1.0, 0.0, 0.0]))


def test_a_form_with_every_root_at_infinity_has_them_at_the_north_pole():
    # y^2: the leading coefficient and the next vanish
    assert roots_on_sphere(BinaryForm([0.0, 0.0, 1.0])).as_array().tolist() == [[0.0, 0.0, 1.0]] * 2


def test_cube_lambda_closes_the_pencil():
    """The member at the computed parameter is the Hessian cube within 1e-10."""
    f = EQUATOR_CUBIC
    h = hessian(f)
    member = cubic_pencil_member(f, cubic_hessian_cube_lambda())
    assert member.proportional_to(form_product(form_product(h, h), h), 1e-10)


def test_a_vanishing_quartic_pencil_member_is_refused():
    # x^2 y^2 has i = 1, j = -2 and Hessian -12 x^2 y^2, so i H - 6 j f = 0
    with pytest.raises(GeometryError, match="^pencil member vanishes identically$"):
        quartic_pencil_member(BinaryForm([0.0, 0.0, 1.0, 0.0, 0.0]), -6.0)


def test_a_double_root_keeps_its_eigenvalue_where_the_newton_step_moves_it_away():
    """x^4 (x - 3y)^2: the eigenvalue solve finds the double root 3 to
    within 2e-15, where f and f' are rounding noise, and the Newton step
    would move it to about 2.75; the step is not taken."""
    finite, at_infinity = projective_roots(BinaryForm([1.0, -6.0, 9.0, 0.0, 0.0, 0.0, 0.0]))
    assert at_infinity == 0
    assert sorted(abs(z) for z in finite)[-2:] == pytest.approx([3.0, 3.0], abs=1e-7)


@pytest.mark.parametrize("m", range(19))
def test_every_root_of_a_double_root_times_a_power_of_x_is_found(m):
    """(x - 3y)^2 x^m: 13 of these 19 forms were once refused; each root
    now leaves a residual of the normalized polynomial below 1e-16."""
    form = BinaryForm([1.0, -6.0, 9.0] + [0.0] * m)
    finite, at_infinity = projective_roots(form)
    poly = form.coeffs / 9.0
    assert (len(finite), at_infinity) == (m + 2, 0)
    assert sorted(abs(z) for z in finite) == pytest.approx([0.0] * m + [3.0, 3.0], abs=1e-7)
    assert max(abs(np.polyval(poly, z)) / (1 + abs(z)) ** (m + 2) for z in finite) < 1e-16
    assert roots_on_sphere(form).as_array().shape == (m + 2, 3)


def test_a_root_the_eigenvalue_solve_gets_wrong_is_refused(monkeypatch):
    """(x - 3y)^2 with the eigenvalue solve replaced by one that returns 2
    for a root: the Newton step lowers its residual only to 2e-3."""
    monkeypatch.setattr(np, "roots", lambda poly: np.array([3.0, 2.0]))
    with pytest.raises(GeometryError,
                       match=r"^root refinement did not converge \(residual \d\.\d{3}e-\d\d\)$"):
        roots_on_sphere(BinaryForm([1.0, -6.0, 9.0]))
