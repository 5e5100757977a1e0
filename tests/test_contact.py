import hashlib
import re

import numpy as np
import pytest

from erlangen import contact
from erlangen.numerics import GeometryError
from erlangen.contact import (
    FiveMap,
    LineElement2D,
    SurfaceElement,
    element_family_of_point,
    element_family_of_surface,
    family_base_rank,
    fit_plane,
    is_contact_transformation,
    legendre_map,
    line_element_check,
    pfaffian_residual,
    prolong_plane_map,
    prolong_point_map,
    swap_zp_map,
)
from erlangen.reports import serialize_report


def random_affine_space_map(rng):
    while True:
        a = rng.normal(size=(3, 3))
        if abs(np.linalg.det(a)) > 0.05:
            break
    b = rng.normal(size=3)
    return prolong_point_map(lambda w, a=a, b=b: a @ w + b, lambda w, a=a: a)


NONLINEAR_F = lambda w: np.array([w[0] + 0.2 * np.sin(w[1]),
                                  w[1] + 0.1 * w[0] ** 2,
                                  w[2] + 0.15 * w[0] * w[1]])
NONLINEAR_J = lambda w: np.array([[1.0, 0.2 * np.cos(w[1]), 0.0],
                                  [0.2 * w[0], 1.0, 0.0],
                                  [0.15 * w[1], 0.15 * w[0], 1.0]])


class TestPfaffian:
    def test_tangent_displacement_second_order(self):
        # elements of z = x^2 + y^2; a graph displacement leaves a residual
        # of second order in the step
        for h in (1e-2, 5e-3):
            e = SurfaceElement(0.3, -0.2, 0.3**2 + 0.2**2, 0.6, -0.4)
            de = np.array([h, h, (0.3 + h)**2 + (-0.2 + h)**2 - (0.3**2 + 0.2**2),
                           0.0, 0.0])
            r = abs(pfaffian_residual(e, de))
            assert r < 4.0 * h * h

    def test_pure_z_displacement(self):
        e = SurfaceElement(0, 0, 0, 0.7, -0.3)
        assert pfaffian_residual(e, (0, 0, 1.0, 0, 0)) == 1.0

    def test_constructed_united_displacement(self, rng):
        for _ in range(50):
            x, y, z, p, q = rng.uniform(-1, 1, 5)
            e = SurfaceElement(x, y, z, p, q)
            dx, dy, dp, dq = rng.uniform(-1, 1, 4)
            de = np.array([dx, dy, p * dx + q * dy, dp, dq])
            assert abs(pfaffian_residual(e, de)) < 1e-14

    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            SurfaceElement(0, 0, np.nan, 0, 0)


class TestIsContact:
    def test_legendre(self):
        v = is_contact_transformation(legendre_map(), seed=1, samples=40, tol=1e-9)
        assert v.is_contact
        # the total polarity reverses the form: rho = -1 everywhere
        assert all(abs(rho + 1.0) < 1e-9 for rho in v.factors)

    def test_prolonged_point_maps(self, rng):
        for t in range(100):
            pm = random_affine_space_map(rng)
            v = is_contact_transformation(pm, seed=t, samples=12, tol=1e-5)
            assert v.is_contact, t

    def test_swap_zp_fails_with_witness(self):
        v = is_contact_transformation(swap_zp_map(), seed=3, samples=40, tol=1e-6)
        assert not v.is_contact
        assert v.witness_point is not None and v.witness_residual > 1e-3

    def test_composition_stays_contact(self):
        pm = prolong_point_map(NONLINEAR_F, NONLINEAR_J, fd_step=1e-5)
        comp = legendre_map().compose(pm)
        v = is_contact_transformation(comp, seed=9, samples=20, tol=1e-4)
        assert v.is_contact

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            is_contact_transformation(legendre_map(), seed=1, samples=5)

    def test_residual_scales_quadratically(self):
        # with finite-difference Jacobians the alignment residual tracks the
        # truncation error of the central difference
        res = {}
        for h in (1e-3, 5e-4):
            pm = prolong_point_map(NONLINEAR_F, NONLINEAR_J, fd_step=h)
            v = is_contact_transformation(pm, seed=5, samples=25, tol=1.0)
            res[h] = v.max_residual
        ratio = res[1e-3] / res[5e-4]
        assert 2.5 < ratio < 6.0

    def test_singular_map_failures_counted(self):
        def sometimes(v):
            if v[0] > -0.5:
                raise ValueError("singular here")
            return v
        with pytest.raises(GeometryError):
            is_contact_transformation(FiveMap(sometimes, dim=5), seed=1, samples=40)


class TestElementFamilies:
    def test_point_family_shares_base(self):
        fam = element_family_of_point((0.1, 0.2, 0.3), 4)
        assert len(fam) == 16
        assert all((e.x, e.y, e.z) == (0.1, 0.2, 0.3) for e in fam)

    def test_neighbors_united_exactly(self):
        fam = element_family_of_point((0.1, 0.2, 0.3), 3)
        for e1, e2 in zip(fam, fam[1:]):
            de = e2.as_array() - e1.as_array()
            assert pfaffian_residual(e1, de) == 0.0

    def test_point_family_to_plane_under_legendre(self):
        fam = element_family_of_point((0.3, -0.2, 0.5), 5)
        leg = legendre_map()
        imgs = [leg(e.as_array()) for e in fam]
        coef, resid = fit_plane([im[:3] for im in imgs])
        assert resid < 1e-9
        assert np.allclose(coef, (0.3, -0.2, -0.5), atol=1e-9)
        # images carry constant (p', q') equal to the base point
        for im in imgs:
            assert abs(im[3] - 0.3) < 1e-12 and abs(im[4] + 0.2) < 1e-12

    def test_plane_family_collapses_to_point(self):
        fam = element_family_of_surface(lambda x, y: 0.4 * x - 0.7 * y + 0.2, 5,
                                        fx=lambda x, y: 0.4, fy=lambda x, y: -0.7)
        assert all((e.p, e.q) == (0.4, -0.7) for e in fam)
        leg = legendre_map()
        imgs = [SurfaceElement(*leg(e.as_array())) for e in fam]
        assert family_base_rank(imgs) == 0

    def test_point_family_rank_two_under_legendre(self):
        fam = element_family_of_point((0.3, -0.2, 0.5), 5)
        leg = legendre_map()
        imgs = [SurfaceElement(*leg(e.as_array())) for e in fam]
        assert family_base_rank(imgs) == 2

    def test_paraboloid_derivatives(self):
        fam = element_family_of_surface(lambda x, y: x * x + y * y, 3,
                                        fx=lambda x, y: 2 * x, fy=lambda x, y: 2 * y)
        for e in fam:
            assert abs(e.p - 2 * e.x) < 1e-12 and abs(e.q - 2 * e.y) < 1e-12

    def test_finite_difference_derivatives(self):
        fam = element_family_of_surface(lambda x, y: np.sin(x) * np.cos(y), 4)
        for e in fam:
            assert abs(e.p - np.cos(e.x) * np.cos(e.y)) < 1e-9
            assert abs(e.q + np.sin(e.x) * np.sin(e.y)) < 1e-9

    def test_united_residual_taylor_order(self):
        # neighbor residual drops by 4 when the grid step halves
        results = []
        for n in (5, 9):
            fam = element_family_of_surface(lambda x, y: x * x + y * y, n,
                                            fx=lambda x, y: 2 * x,
                                            fy=lambda x, y: 2 * y)
            res = []
            for i in range(len(fam) - n):
                e1, e2 = fam[i], fam[i + n]
                de = e2.as_array() - e1.as_array()
                res.append(abs(pfaffian_residual(e1, de)))
            results.append(max(res))
        assert 3.5 < results[0] / results[1] < 4.5

    def test_empty_grid_rejected(self):
        with pytest.raises(GeometryError):
            element_family_of_point((0, 0, 0), [])

    def test_nonfinite_surface_rejected(self):
        with pytest.raises(GeometryError):
            element_family_of_surface(lambda x, y: float("inf"), 3)


class TestLineElements:
    def test_extended_slope_flag(self):
        e = LineElement2D(0.0, 0.0, vertical=True)
        assert e.vertical and e.p == 0.0

    def test_prolonged_rotation_passes(self):
        rot = lambda w: np.array([0.8 * w[0] - 0.6 * w[1], 0.6 * w[0] + 0.8 * w[1]])
        jac = lambda w: np.array([[0.8, -0.6], [0.6, 0.8]])
        v = line_element_check(prolong_plane_map(rot, jac), seed=2, samples=30)
        assert v.is_contact

    def test_prolonged_shear_passes(self):
        shear = lambda w: np.array([w[0] + w[1], w[1]])
        jac = lambda w: np.array([[1.0, 1.0], [0.0, 1.0]])
        v = line_element_check(prolong_plane_map(shear, jac), seed=2, samples=30)
        assert v.is_contact

    def test_slope_mixing_map_fails(self):
        bad = FiveMap(lambda v: np.array([v[0] + v[2], v[1], v[2]]), dim=3)
        v = line_element_check(bad, seed=2, samples=30)
        assert not v.is_contact and v.witness_point is not None

    def test_dimension_guard(self):
        with pytest.raises(GeometryError):
            line_element_check(legendre_map(), seed=1, samples=20)
        with pytest.raises(GeometryError):
            is_contact_transformation(
                FiveMap(lambda v: v, dim=3), seed=1, samples=20)


ROT = lambda w: np.array([0.8 * w[0] - 0.6 * w[1], 0.6 * w[0] + 0.8 * w[1]])
ROT_J = lambda w: np.array([[0.8, -0.6], [0.6, 0.8]])

CHECKS = {
    "legendre": lambda seed, n: is_contact_transformation(legendre_map(), seed, n),
    "swap-zp": lambda seed, n: is_contact_transformation(swap_zp_map(), seed, n),
    "prolonged-point": lambda seed, n: is_contact_transformation(
        prolong_point_map(NONLINEAR_F, NONLINEAR_J), seed, n),
    "prolonged-rotation": lambda seed, n: line_element_check(
        prolong_plane_map(ROT, ROT_J), seed, n),
}

# sha256 (first 16 hex digits) of each report's bytes and its factors, over
# seeds 1-3 and 10, 64, 65 and 200 samples: one block of generators, one
# full block, one past it, and several
REPORT_DIGESTS = {
    "legendre": "80ccc43c3bc65a99",
    "swap-zp": "6636b4cf3ced49f3",
    "prolonged-point": "01124cbcb39e74e8",
    "prolonged-rotation": "2f18ce633ff1a539",
}


class TestSampleBlocks:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_reports_keep_their_bytes(self, name):
        data = b""
        for seed in (1, 2, 3):
            for n in (10, 64, 65, 200):
                v = CHECKS[name](seed, n)
                data += serialize_report(v).encode() + np.array(v.factors).tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == REPORT_DIGESTS[name]

    def test_generators_are_built_a_block_at_a_time(self, monkeypatch):
        sizes = []
        original = contact.rng_stack

        def counted(seeds):
            seeds = list(seeds)
            sizes.append(len(seeds))
            return original(seeds)

        monkeypatch.setattr(contact, "rng_stack", counted)
        v = is_contact_transformation(legendre_map(), seed=1, samples=200)
        assert v.samples_used == 200
        assert sum(sizes) == 200 and max(sizes) <= 64


SWAP_XY = (lambda b: b[::-1], lambda b: np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("call,message", [
    (lambda: LineElement2D(float("nan"), 0.0), "LineElement2D entries must be finite"),
    (lambda: FiveMap(lambda v: v[:2])(np.zeros(5)), "map must return 5-vectors"),
    (lambda: FiveMap(lambda v: v, lambda v: np.eye(3)).jacobian_at(np.zeros(5)),
     "analytic jacobian has wrong shape"),
    (lambda: FiveMap(lambda v: v).compose(FiveMap(lambda v: v, dim=3)),
     "composition dimension mismatch"),
    (lambda: pfaffian_residual(SurfaceElement(0.0, 0.0, 0.0, 0.0, 0.0), [1.0, 2.0]),
     "displacement must have five components"),
    (lambda: element_family_of_surface(lambda x, y: x * y, 0), "grid must be nonempty"),
    # the swap of x and y sends the horizontal direction p = 0 to a vertical one
    (lambda: prolong_plane_map(*SWAP_XY)(np.zeros(3)),
     "image direction is vertical (extended slope)"),
    # a map whose image is never finite fails on every sample
    (lambda: is_contact_transformation(FiveMap(lambda v: np.full(5, np.nan)), 1, 10),
     "map evaluation failed on more than half the samples"),
], ids=["LineElement2D", "FiveMap-shape", "FiveMap-jacobian", "FiveMap-compose",
        "pfaffian_residual", "grid-size", "prolong_plane_map", "non-finite-image"])
def test_contact_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()


def test_a_constant_map_pulls_the_contact_form_back_to_zero():
    """Its Jacobian is zero, so the pullback has no direction to align:
    every sample counts with the largest residual, 1."""
    v = is_contact_transformation(FiveMap(lambda v: np.zeros(5)), seed=1, samples=10)
    assert (v.is_contact, v.samples_used, v.max_residual, v.witness_residual) == \
        (False, 10, 1.0, 1.0)


def test_a_grid_of_pairs_gives_one_element_per_pair():
    """The slopes (p, q) of z = xy at (0.5, 0.25) are (y, x), by central
    differences."""
    (e,) = element_family_of_surface(lambda x, y: x * y, [(0.5, 0.25)])
    assert (e.x, e.y, e.z) == (0.5, 0.25, 0.125)
    assert abs(e.p - 0.25) < 1e-9 and abs(e.q - 0.5) < 1e-9
