"""Acceptance suite: one check per criterion, each printing a PASS/FAIL
line with its stated tolerance.  Runnable under pytest, or directly via
``python tests/test_acceptance.py`` for the plain-text summary.
"""

import cmath
import math

import numpy as np

from erlangen.numerics import mix_seed, proportionality, rng_from
from erlangen.projective import ProjPoint, Quadric, cross_ratio
from erlangen.moebius import (
    inverse_stereographic,
    moebius_to_sphere,
    random_moebius,
    sphere_point_homogeneous,
    unit_sphere_quadric,
)
from erlangen.transfers import (
    circle_angle,
    circle_to_coords,
    conic_param,
    conic_param_inverse,
    klein_form,
    klein_quadric,
    lie_apply,
    lines_intersect_det,
    moebius_circle_matrix,
    pluecker_conjugate,
    pluecker_embed,
    point_circle,
    random_lie_map,
    tangency_residual,
)
from erlangen.groups import (
    BUILTIN_GROUP_NAMES,
    builtin_group,
    check_group_axioms,
    is_similarity_via_circular_points,
)
from erlangen.cayley_klein import (
    DegeneracyVerdict,
    induced_surface_distance,
    klein_disk_metric,
    ck_distance,
    on_quadric_degeneracy,
)
from erlangen.binary_forms import (
    BinaryForm,
    form_product,
    hessian,
    jacobian_covariant,
    perfect_square_root,
    quartic_pencil_member,
    cubic_pencil_member,
    roots_on_sphere,
)
from erlangen.contact import (
    is_contact_transformation,
    legendre_map,
    prolong_point_map,
    swap_zp_map,
)
from erlangen.cli import main as cli_main
from erlangen.reports import parse_report_trailer

from conftest import quadric_point, random_nondegenerate_quadric, random_proj_map


def report(number, ok, description):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_group_axioms():
    ok = True
    for name in BUILTIN_GROUP_NAMES:
        rep = check_group_axioms(builtin_group(name, 2), seed=20240, trials=500,
                                 tol=1e-8)
        ok &= rep.ok
    report(1, ok, "group axioms: 0 failures over 500 trials for all 7 groups, tol 1e-8")


def test_criterion_02_hierarchy():
    iso = builtin_group("euclidean_isometries", 2)
    pri = builtin_group("principal", 2)
    aff = builtin_group("affine", 2)
    pro = builtin_group("projective", 2)
    forward = True
    for i in range(200):
        s = mix_seed(51, i)
        forward &= pri.contains(iso.sample(s))
        forward &= aff.contains(pri.sample(s))
        forward &= pro.contains(aff.sample(s))
    reverse = True
    for big, small in ((pri, iso), (aff, pri), (pro, aff)):
        reverse &= any(not small.contains(big.sample(mix_seed(52, i)))
                       for i in range(100))
    report(2, forward and reverse,
           "hierarchy: isometries < principal < affine < projective on 200 "
           "samples per link, each reverse inclusion falsified")


def test_criterion_03_circular_points():
    rng = rng_from(77)
    agree = 0
    total = 0
    while total < 1000:
        m = rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        total += 1
        via = is_similarity_via_circular_points(m)
        mm = m / m[2, 2] if abs(m[2, 2]) > 1e-12 else m
        lin = mm[:2, :2]
        gram = lin.T @ lin
        mu = np.trace(gram) / 2.0
        direct = (abs(m[2, 0]) < 1e-10 * np.max(np.abs(m))
                  and abs(m[2, 1]) < 1e-10 * np.max(np.abs(m))
                  and abs(mu) > 1e-12
                  and np.max(np.abs(gram - mu * np.eye(2))) < 1e-10 * mu)
        agree += int(via == direct)
    report(3, agree == total,
           f"circular-points similarity criterion agrees with the orthogonal "
           f"criterion on {agree}/{total} random real 3x3 maps")


def test_criterion_04_cross_ratio_invariance():
    rng = rng_from(4)
    worst = 0.0
    done = 0
    while done < 1000:
        ts = rng.uniform(-2, 2, 4)
        if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) < 0.05:
            continue
        base = rng.uniform(-1, 1, 3)
        direction = rng.uniform(-1, 1, 3)
        pts = [ProjPoint(base + t * direction) for t in ts]
        g = random_proj_map(rng, 2)
        before = cross_ratio(*pts)
        after = cross_ratio(*[g.apply(p) for p in pts])
        worst = max(worst, abs(before - after) / max(1.0, abs(before)))
        done += 1
    report(4, worst < 1e-9,
           f"cross-ratio invariance over 1000 projective maps, worst relative "
           f"error {worst:.2e} < 1e-9")


def test_criterion_05_sphere_conjugation():
    rng = rng_from(5)
    q = unit_sphere_quadric()
    worst_pt = 0.0
    worst_form = 0.0
    for t in range(200):
        m = random_moebius(t)
        sphere_map = moebius_to_sphere(m)
        prod = sphere_map.matrix.T @ q.matrix @ sphere_map.matrix
        _, form_resid = proportionality(prod, q.matrix)
        worst_form = max(worst_form, form_resid)
        z = complex(rng.normal(), rng.normal())
        lhs = inverse_stereographic(m.apply(z)).as_array()
        img = sphere_map.apply(sphere_point_homogeneous(z)).normalized()
        img = img / img[3]
        worst_pt = max(worst_pt, float(np.max(np.abs(lhs - img[:3].real))),
                       float(np.max(np.abs(img[:3].imag))))
    report(5, worst_pt < 1e-8 and worst_form < 1e-9,
           f"Moebius/sphere commuting square over 200 samples, worst point "
           f"error {worst_pt:.2e} < 1e-8, quadric preservation {worst_form:.2e} < 1e-9")


def test_criterion_06_conic_transfer():
    rng = rng_from(6)
    unit = Quadric(np.diag([1.0, 1.0, -1.0]).astype(complex))
    worst = 0.0
    done = 0
    while done < 200:
        g = random_proj_map(rng, 2)
        conic = g.apply_quadric(unit)
        c1 = g.apply(ProjPoint([1.0, 0.0, 1.0]))
        c2 = g.apply(ProjPoint([0.0, 1.0, 1.0]))
        ts = rng.normal(size=4) + 1j * rng.normal(size=4)
        if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) < 0.05:
            continue
        pts = [conic_param(conic, c1, t) for t in ts]
        params2 = [conic_param_inverse(conic, c2, p) for p in pts]
        if any(p.infinite for p in params2):
            continue
        cr_line = cross_ratio(*[ProjPoint([t, 1.0]) for t in ts])
        cr_conic = cross_ratio(*[ProjPoint([p.value, 1.0]) for p in params2])
        worst = max(worst, abs(cr_line - cr_conic) / max(1.0, abs(cr_line)))
        done += 1
    report(6, worst < 1e-9,
           f"line/conic transfer: parameter cross-ratio equals conic "
           f"cross-ratio on 200 quadruples, worst {worst:.2e} < 1e-9")


def test_criterion_07_line_geometry():
    rng = rng_from(7)
    worst_rel = 0.0
    k = klein_quadric().matrix
    worst_form = 0.0
    for _ in range(100):
        a = ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4))
        b = ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4))
        p = pluecker_embed(a, b).p
        worst_rel = max(worst_rel,
                        abs(p[0] * p[3] + p[1] * p[4] + p[2] * p[5])
                        / float(np.max(np.abs(p))) ** 2)
        g = random_proj_map(rng, 3)
        g6 = pluecker_conjugate(g)
        _, resid = proportionality(g6.matrix.T @ k @ g6.matrix, k)
        worst_form = max(worst_form, resid)
    intersect_ok = True
    for i in range(100):
        share = i % 2 == 0
        a1 = ProjPoint(rng.normal(size=4))
        b1 = ProjPoint(rng.normal(size=4))
        a2 = a1 if share else ProjPoint(rng.normal(size=4))
        b2 = ProjPoint(rng.normal(size=4))
        l1 = pluecker_embed(a1, b1)
        l2 = pluecker_embed(a2, b2)
        om = klein_form(l1.p / np.linalg.norm(l1.p), l2.p / np.linalg.norm(l2.p))
        det = lines_intersect_det(a1, b1, a2, b2) / (
            np.linalg.norm(a1.coords) * np.linalg.norm(b1.coords)
            * np.linalg.norm(a2.coords) * np.linalg.norm(b2.coords))
        if share:
            intersect_ok &= abs(om) < 1e-10
        elif abs(det) > 1e-6:
            intersect_ok &= abs(om) > 1e-9
    report(7, worst_rel < 1e-12 and worst_form < 1e-9 and intersect_ok,
           f"line coordinates: quadric relation {worst_rel:.2e} < 1e-12, "
           f"induced maps preserve the form {worst_form:.2e} < 1e-9, "
           f"pairing vanishes iff lines meet (100 pairs)")


def test_criterion_08_surface_degeneracy():
    rng = rng_from(8)
    q = random_nondegenerate_quadric(rng, 3)
    zeros = 0
    trials = 0
    while trials < 500:
        p1 = quadric_point(rng, q)
        p2 = quadric_point(rng, q)
        if p1.equals(p2, 1e-8):
            continue
        trials += 1
        if on_quadric_degeneracy(p1, p2, q) is DegeneracyVerdict.ZERO:
            zeros += 1
    ruled = Quadric(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    gen_ok = on_quadric_degeneracy(
        ProjPoint([1.0, 0, 0, 1.0]), ProjPoint([0, 1.0, 1.0, 0]),
        ruled) is DegeneracyVerdict.INDETERMINATE
    a = np.array([1.0, 0, 0, 1.0])
    d = np.array([0, 1.0, 1.0, 0])
    center = ProjPoint([0.0, 0, 0, 1.0])
    induced = abs(induced_surface_distance(ProjPoint(a + 0.3 * d),
                                           ProjPoint(a + 1.1 * d),
                                           ruled, center, 1.0))
    sphere = Quadric(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))
    dgen = np.array([0, 1.0, 1.0j, 0])
    on_center = ProjPoint([0.0, 0.0, 1.0, 1.0])
    induced_on = abs(induced_surface_distance(ProjPoint(a + 0.4 * dgen),
                                              ProjPoint(a + 0.9 * dgen),
                                              sphere, on_center, 1.0))
    report(8, zeros == 500 and gen_ok and induced < 1e-9 and induced_on < 1e-9,
           f"surface measurement degeneracy: {zeros}/500 chordal verdicts "
           f"zero, generators indeterminate, induced distance on generators "
           f"{max(induced, induced_on):.2e} < 1e-9")


def test_criterion_09_klein_disk():
    rng = rng_from(9)
    m = klein_disk_metric()
    worst = 0.0
    done = 0
    while done < 500:
        p = rng.uniform(-1, 1, 2)
        q = rng.uniform(-1, 1, 2)
        if np.linalg.norm(p) > 0.9 or np.linalg.norm(q) > 0.9:
            continue
        if np.linalg.norm(p - q) < 1e-3:
            continue
        d = abs(ck_distance(ProjPoint([*p, 1.0]), ProjPoint([*q, 1.0]), m))
        cross = p[0] * q[1] - p[1] * q[0]
        closed = math.atanh(math.sqrt(max(np.dot(p - q, p - q) - cross**2, 0.0))
                            / (1.0 - np.dot(p, q)))
        worst = max(worst, abs(d - closed))
        done += 1
    additive_worst = 0.0
    done = 0
    while done < 200:
        base = rng.uniform(-0.5, 0.5, 2)
        direction = rng.uniform(-1, 1, 2)
        direction /= np.linalg.norm(direction)
        t1, t2 = sorted(rng.uniform(0.02, 0.25, 2))
        pts = [base, base + t1 * direction, base + (t1 + t2) * direction]
        if max(np.linalg.norm(x) for x in pts) > 0.92:
            continue
        pa, pb, pc = (ProjPoint([*x, 1.0]) for x in pts)
        total = abs(ck_distance(pa, pc, m))
        parts = abs(ck_distance(pa, pb, m)) + abs(ck_distance(pb, pc, m))
        additive_worst = max(additive_worst, abs(total - parts))
        done += 1
    report(9, worst < 1e-9 and additive_worst < 1e-9,
           f"disk model: distance matches the closed form on 500 pairs "
           f"({worst:.2e} < 1e-9), geodesic additivity ({additive_worst:.2e} < 1e-9)")


def test_criterion_10_cubic_table():
    f = BinaryForm([1.0, 0.0, 0.0, -1.0])      # roots at longitudes 0/120/240
    h = hessian(f)
    q = jacobian_covariant(f, h)
    longs = sorted(np.degrees(cmath.phase(complex(p.x, p.y))) % 360.0
                   for p in roots_on_sphere(q))
    longs_ok = bool(np.max(np.abs(np.array(longs) - [60.0, 180.0, 300.0])) < 1e-6)
    poles_ok = all(abs(abs(p.z) - 1.0) < 1e-8 for p in roots_on_sphere(h))
    lam = 432.0
    member = cubic_pencil_member(f, lam)
    h3 = form_product(form_product(h, h), h)
    mu, resid = proportionality(member.coeffs, h3.coeffs)
    report(10, longs_ok and poles_ok and resid < 1e-8,
           f"cubic covariant table: sextic roots at 60/180/300 degrees, "
           f"quadratic covariant at the poles, pencil member proportional to "
           f"the Hessian cube (residual {resid:.2e} < 1e-8) at the derived "
           f"parameter {lam}")


def test_criterion_11_quartic_table():
    f = BinaryForm([1.0, 0.0, 1.0, 0.0, 1.0])
    rng = rng_from(11)
    flips = [np.diag(d) for d in ([1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1])]
    closed = True
    for _ in range(10):
        lam = complex(rng.normal(), rng.normal()) * 10
        pts = roots_on_sphere(quartic_pencil_member(f, lam)).as_array()
        for flip in flips:
            for img in pts @ flip.T:
                closed &= bool(np.min(np.linalg.norm(pts - img, axis=1)) < 1e-8)
    lambdas = (-78.0 / 7.0, -156.0 / 35.0, 78.0 / 5.0)
    t_cov = jacobian_covariant(f, hessian(f))
    acc = np.array([1.0 + 0j])
    squares_ok = True
    for lam in lambdas:
        member = quartic_pencil_member(f, lam)
        quad = perfect_square_root(member)
        squares_ok &= form_product(quad, quad).proportional_to(member, 1e-8)
        acc = np.convolve(acc, quad.coeffs)
    _, t_resid = proportionality(acc, t_cov.coeffs)
    report(11, closed and squares_ok and t_resid < 1e-8,
           f"quartic table: pencil root sets closed under the three sign-flip "
           f"half-turns (< 1e-8), three perfect-square parameters found and "
           f"their quadratics multiply to the sextic covariant "
           f"(residual {t_resid:.2e} < 1e-8)")


def test_criterion_12_lie_circles():
    rng = rng_from(12)
    tangency_ok = True
    for t in range(50):
        m5 = random_lie_map(t)
        z = complex(rng.normal(), rng.normal())
        r1, r2 = rng.uniform(0.2, 1.5, 2)
        theta = rng.uniform(0, 2 * np.pi)
        c1 = circle_to_coords(z, r1, +1)
        c2 = circle_to_coords(z + (r1 + r2) * np.exp(1j * theta), r2, -1)
        tangency_ok &= tangency_residual(lie_apply(m5, c1), lie_apply(m5, c2)) < 1e-8
    moebius_ok = True
    for t in range(50):
        m = random_moebius(t)
        m4 = moebius_circle_matrix(m)
        for _ in range(3):
            z = complex(rng.normal(), rng.normal())
            w = m.apply(z)
            if w.infinite:
                continue
            _, resid = proportionality(m4 @ point_circle(z).u[:4],
                                       point_circle(w).u[:4])
            moebius_ok &= resid < 1e-8
    right = abs(circle_angle(circle_to_coords(0, 1.0, +1),
                             circle_to_coords(complex(np.sqrt(2.0), 0.0), 1.0, +1))
                - np.pi / 2) < 1e-10
    tangent_zero = abs(circle_angle(circle_to_coords(0, 1.0, +1),
                                    circle_to_coords(2.0, 1.0, -1))) < 1e-10
    report(12, tangency_ok and moebius_ok and right and tangent_zero,
           "circle geometry: 50 form-preserving maps keep oriented tangency "
           "(< 1e-8), the four-variable subgroup reproduces the plane action "
           "on point circles (< 1e-8), right-angle and tangency oracles pass")


def test_criterion_13_contact():
    legendre_ok = is_contact_transformation(legendre_map(), seed=13,
                                            samples=40, tol=1e-9).is_contact
    rng = rng_from(13)
    prolonged_ok = True
    for t in range(100):
        while True:
            a = rng.normal(size=(3, 3))
            if abs(np.linalg.det(a)) > 0.05:
                break
        b = rng.normal(size=3)
        pm = prolong_point_map(lambda w, a=a, b=b: a @ w + b, lambda w, a=a: a)
        prolonged_ok &= is_contact_transformation(pm, seed=t, samples=12,
                                                  tol=1e-5).is_contact
    bad = is_contact_transformation(swap_zp_map(), seed=13, samples=40, tol=1e-6)
    witness_ok = (not bad.is_contact) and bad.witness_point is not None
    nonlinear_f = lambda w: np.array([w[0] + 0.2 * np.sin(w[1]),
                                      w[1] + 0.1 * w[0] ** 2,
                                      w[2] + 0.15 * w[0] * w[1]])
    nonlinear_j = lambda w: np.array([[1.0, 0.2 * np.cos(w[1]), 0.0],
                                      [0.2 * w[0], 1.0, 0.0],
                                      [0.15 * w[1], 0.15 * w[0], 1.0]])
    res = {}
    for h in (1e-3, 5e-4):
        pm = prolong_point_map(nonlinear_f, nonlinear_j, fd_step=h)
        res[h] = is_contact_transformation(pm, seed=5, samples=25,
                                           tol=1.0).max_residual
    ratio = res[1e-3] / res[5e-4]
    scaling_ok = 2.5 < ratio < 6.0
    report(13, legendre_ok and prolonged_ok and witness_ok and scaling_ok,
           f"contact checks: total polarity and 100 prolonged point maps "
           f"pass, the z/p swap fails with a witness, residual drops by "
           f"{ratio:.2f}x (consistent with quadratic order) under step halving")


def _run_cli(argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_criterion_14_cli():
    matrix = [
        (("check-invariance", "--group", "projective", "--property",
          "cross-ratio", "--trials", "100", "--seed", "7"), 0, "invariant"),
        (("check-invariance", "--group", "projective", "--property",
          "euclidean-distance", "--trials", "50", "--seed", "7"), 1, "violated"),
        (("axioms", "--group", "lie_sphere_extended", "--trials", "60",
          "--seed", "3"), 0, "axioms-ok"),
        (("distance", "--metric", "klein-disk", "--p", "0,0", "--q", "0.5,0"),
         0, "distance"),
        (("transfer", "--kind", "inverse-stereographic", "--z", "1,0"),
         0, "transfer"),
        (("covariants", "--coeffs", "1,0,0,-1"), 0, "covariants"),
        (("contact-check", "--map", "legendre", "--samples", "20",
          "--seed", "2"), 0, "contact"),
        (("contact-check", "--map", "swap-zp", "--samples", "20",
          "--seed", "2"), 1, "not-contact"),
        (("orbit", "--group", "principal", "--point", "0.2,0.4",
          "--count", "5", "--seed", "11"), 0, "orbit"),
        (("check-invariance", "--group", "projective"), 2, None),
        (("no-such-verb",), 2, None),
    ]
    ok = True
    for argv, want_code, want_verdict in matrix:
        code, out = _run_cli(argv)
        ok &= code == want_code
        if want_verdict is not None:
            ok &= parse_report_trailer(out)["verdict"] == want_verdict
    # byte determinism across reruns
    for argv, _, _ in matrix[:9]:
        _, first = _run_cli(argv)
        _, second = _run_cli(argv)
        ok &= first.encode() == second.encode()
    # the documented distance value appears verbatim
    _, out = _run_cli(["distance", "--metric", "klein-disk",
                       "--p", "0,0", "--q", "0.5,0"])
    ok &= "0.5493061443" in out
    report(14, ok, "CLI exit-code matrix and byte determinism across all verbs")


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(exc)
    sys.exit(1 if failures else 0)
