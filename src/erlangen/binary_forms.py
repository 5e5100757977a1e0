"""Covariants and invariants of binary cubics and quartics, with root
sets represented on the unit sphere through inverse stereographic
projection.

Normalization conventions (everything downstream checks proportionality
only, so the constants merely have to be fixed once):

* coefficients are plain monomial coefficients, c0 x^d + c1 x^(d-1) y +
  ... + cd y^d, with no binomial weights;
* hessian(f) = fxx*fyy - fxy^2 with no further constant;
* jacobian_covariant(f, g) = fx*gy - fy*gx;
* the cubic invariant is the standard discriminant
  18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2;
* the quartic invariants are the classical degree-2 and degree-3
  invariants (apolar and catalecticant) in the monomial basis.

Covariance weights under substitution by g (det g = D): the Hessian
picks up D^2, the Jacobian covariant D, the cubic discriminant D^6, the
quartic invariants D^4 and D^6.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from .numerics import GeometryError, as_complex_array, proportionality
from .moebius import SpherePoint, inverse_stereographic

__all__ = [
    "BinaryForm",
    "substitute",
    "hessian",
    "jacobian_covariant",
    "cubic_invariant_R",
    "quartic_invariants",
    "SphericalRootSet",
    "roots_on_sphere",
    "projective_roots",
    "cubic_pencil_member",
    "quartic_pencil_member",
    "cubic_hessian_cube_lambda",
    "quartic_square_pencil",
    "form_product",
    "perfect_square_root",
    "quartic_discriminant",
]


class BinaryForm:
    """Homogeneous binary form by its monomial coefficient vector."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = as_complex_array(coeffs, "BinaryForm")
        if arr.ndim != 1 or arr.size < 2:
            raise GeometryError("BinaryForm needs at least two coefficients")
        if float(np.max(np.abs(arr))) == 0.0:
            raise GeometryError("BinaryForm must be nonzero")
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def evaluate(self, x, y) -> complex:
        d = self.degree
        return complex(sum(c * x ** (d - i) * y ** i
                           for i, c in enumerate(self.coeffs)))

    def dx(self) -> "BinaryForm":
        d = self.degree
        return _form_or_zero([self.coeffs[i] * (d - i) for i in range(d)])

    def dy(self) -> "BinaryForm":
        d = self.degree
        return _form_or_zero([self.coeffs[i + 1] * (i + 1) for i in range(d)])

    def scaled(self, factor) -> "BinaryForm":
        return BinaryForm(self.coeffs * complex(factor))

    def proportional_to(self, other: "BinaryForm", tol: float = 1e-8) -> bool:
        if self.degree != other.degree:
            return False
        _, resid = proportionality(self.coeffs, other.coeffs)
        return resid <= tol

    def __repr__(self):
        return f"BinaryForm({self.coeffs.tolist()!r})"


def form_product(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    return BinaryForm(np.convolve(f.coeffs, g.coeffs))


def substitute(f: BinaryForm, g) -> BinaryForm:
    """Coefficients of f(a x + b y, c x + d y) for g = [[a, b], [c, d]]."""
    g = as_complex_array(g, "substitution")
    if g.shape != (2, 2):
        raise GeometryError("substitution needs a 2x2 matrix")
    d = f.degree
    lin1 = np.array([g[0, 0], g[0, 1]])     # a x + b y
    lin2 = np.array([g[1, 0], g[1, 1]])     # c x + d y
    powers1 = [np.array([1.0 + 0j])]
    powers2 = [np.array([1.0 + 0j])]
    for _ in range(d):
        powers1.append(np.convolve(powers1[-1], lin1))
        powers2.append(np.convolve(powers2[-1], lin2))
    out = np.zeros(d + 1, dtype=complex)
    for i, c in enumerate(f.coeffs):
        term = c * np.convolve(powers1[d - i], powers2[i])
        out += term
    return BinaryForm(out)


def hessian(f: BinaryForm) -> BinaryForm:
    """Hessian covariant fxx*fyy - fxy^2 (degree 2d - 4).

    Identically zero exactly when f is a perfect d-th power of a linear
    form; the zero covariant is returned as such, not raised.
    """
    if f.degree < 2:
        raise GeometryError("hessian needs degree >= 2")
    fxx = f.dx().dx()
    fyy = f.dy().dy()
    fxy = f.dx().dy()
    val = np.convolve(fxx.coeffs, fyy.coeffs) - np.convolve(fxy.coeffs, fxy.coeffs)
    return _form_or_zero(val)


def jacobian_covariant(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Functional determinant fx*gy - fy*gx."""
    if f.degree < 1 or g.degree < 1:
        raise GeometryError("jacobian needs degrees >= 1")
    val = (np.convolve(f.dx().coeffs, g.dy().coeffs)
           - np.convolve(f.dy().coeffs, g.dx().coeffs))
    # the jacobian of proportional forms is identically zero
    return _form_or_zero(val)


class _ZeroForm(BinaryForm):
    """Identically zero covariant (a legitimate derivative/jacobian value)."""

    def __init__(self, degree: int):
        self.coeffs = np.zeros(degree + 1, dtype=complex)


def _form_or_zero(coeffs) -> BinaryForm:
    arr = np.array(coeffs, dtype=complex)
    if float(np.max(np.abs(arr))) == 0.0:
        return _ZeroForm(arr.size - 1)
    return BinaryForm(arr)


def cubic_invariant_R(f: BinaryForm) -> complex:
    """Discriminant of a binary cubic; zero exactly at repeated roots."""
    if f.degree != 3:
        raise GeometryError("cubic invariant needs degree 3")
    a, b, c, d = f.coeffs
    return complex(18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2
                   - 4 * a * c**3 - 27 * a**2 * d**2)


def quartic_invariants(f: BinaryForm) -> tuple:
    """The degree-2 and degree-3 invariants (i, j) of a binary quartic.

    Equianharmonic quartics have i = 0, harmonic ones j = 0.
    """
    if f.degree != 4:
        raise GeometryError("quartic invariants need degree 4")
    a, b, c, d, e = f.coeffs
    inv_i = complex(12 * a * e - 3 * b * d + c * c)
    inv_j = complex(72 * a * c * e + 9 * b * c * d - 27 * a * d**2
                    - 27 * e * b**2 - 2 * c**3)
    return inv_i, inv_j


class SphericalRootSet:
    """Projective roots of a form placed on the unit sphere (roots at
    infinity sit at the north pole); multiplicity is by repetition."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = list(points)
        for p in self.points:
            if not isinstance(p, SpherePoint):
                raise GeometryError("SphericalRootSet holds SpherePoints")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def as_array(self) -> np.ndarray:
        return np.array([p.as_array() for p in self.points])

    def __repr__(self):
        return f"SphericalRootSet({self.points!r})"


def projective_roots(f: BinaryForm, residual_tol: float = 1e-8):
    """All d projective roots as a (finite roots list, infinity count)
    pair, via companion-matrix eigenvalues plus one Newton step.

    Roots at infinity are counted by vanishing leading coefficients
    (relative threshold 1e-12).  A root whose refined residual exceeds
    ``residual_tol`` raises, reporting the residual.
    """
    coeffs = f.coeffs.copy()
    scale = float(np.max(np.abs(coeffs)))
    coeffs = coeffs / scale
    lead_zero = 0
    while lead_zero <= f.degree and abs(coeffs[lead_zero]) < 1e-12:
        lead_zero += 1
    poly = coeffs[lead_zero:]
    if poly.size <= 1:
        return [], lead_zero
    roots = np.roots(poly)
    # one Newton refinement step
    dpoly = np.polyder(poly)
    refined = []
    for z in roots:
        fz = np.polyval(poly, z)
        dz = np.polyval(dpoly, z)
        if abs(dz) > 1e-14:
            z = z - fz / dz
        resid = abs(np.polyval(poly, z)) / (1.0 + abs(z)) ** (poly.size - 1)
        if resid > residual_tol:
            raise GeometryError(
                f"root refinement did not converge (residual {resid:.3e})")
        refined.append(complex(z))
    return refined, lead_zero


def roots_on_sphere(f: BinaryForm) -> SphericalRootSet:
    finite, at_infinity = projective_roots(f)
    pts = [inverse_stereographic(z) for z in finite]
    pts.extend(SpherePoint(0.0, 0.0, 1.0) for _ in range(at_infinity))
    return SphericalRootSet(pts)


def cubic_pencil_member(f: BinaryForm, lam) -> BinaryForm:
    """Member Q^2 + lambda*R*f^2 of the sextic pencil attached to a cubic
    (Q the jacobian of f with its Hessian, R the discriminant)."""
    if f.degree != 3:
        raise GeometryError("cubic pencil needs a degree-3 form")
    r = cubic_invariant_R(f)
    scale = float(np.max(np.abs(f.coeffs)))
    if abs(r) < 1e-12 * scale**4:
        raise GeometryError("degenerate cubic (discriminant ~ 0)")
    q = jacobian_covariant(f, hessian(f))
    f2 = form_product(f, f)
    member = np.convolve(q.coeffs, q.coeffs) + complex(lam) * r * f2.coeffs
    return BinaryForm(member)


def quartic_pencil_member(f: BinaryForm, lam) -> BinaryForm:
    """Member i*H + lambda*j*f of the quartic pencil (H the Hessian,
    i and j the invariants); all members share the same sextic covariant."""
    if f.degree != 4:
        raise GeometryError("quartic pencil needs a degree-4 form")
    inv_i, inv_j = quartic_invariants(f)
    scale = float(np.max(np.abs(f.coeffs)))
    if abs(inv_i) < 1e-12 * scale**2 and abs(inv_j) < 1e-12 * scale**3:
        raise GeometryError("both invariants vanish; pencil undefined")
    h = hessian(f)
    member = inv_i * h.coeffs + complex(lam) * inv_j * f.coeffs
    if float(np.max(np.abs(member))) == 0.0:
        raise GeometryError("pencil member vanishes identically")
    return BinaryForm(member)


def cubic_hessian_cube_lambda() -> float:
    """Linear-solve oracle: the pencil parameter at which the sextic
    Q^2 + lambda*R*f^2 of the canonical cubic x^3 - y^3 becomes
    proportional to the cube of the Hessian."""
    f = BinaryForm([1.0, 0.0, 0.0, -1.0])
    h = hessian(f)
    q = jacobian_covariant(f, h)
    r = cubic_invariant_R(f)
    q2 = np.convolve(q.coeffs, q.coeffs)
    f2 = np.convolve(f.coeffs, f.coeffs)
    h3 = np.convolve(np.convolve(h.coeffs, h.coeffs), h.coeffs)
    design = np.column_stack([r * f2, -h3])
    sol, *_ = np.linalg.lstsq(design, -q2, rcond=None)
    resid = np.linalg.norm(design @ sol + q2) / np.linalg.norm(q2)
    if resid > 1e-10:
        raise GeometryError("cubic pencil solve did not close")
    return float(sol[0].real)


def quartic_square_pencil(f: Optional[BinaryForm] = None):
    """Pairing oracle for the quartic pencil i*H + lambda*j*f: the sextic
    covariant's six roots are paired into quadratics, and a pair is kept
    when the square of its quadratic lies in the pencil span.  Returns
    the (lambda, quadratic) list sorted by real part."""
    if f is None:
        f = BinaryForm([1.0, 0.0, 1.0, 0.0, 1.0])
    inv_i, inv_j = quartic_invariants(f)
    h = hessian(f)
    t = jacobian_covariant(f, h)
    finite, ninf = projective_roots(t, 1e-7)
    roots = [(z, 1.0) for z in finite] + [(1.0, 0.0)] * ninf
    basis = np.column_stack([inv_i * h.coeffs, inv_j * f.coeffs])
    found = []
    for (a1, b1), (a2, b2) in combinations(roots, 2):
        quad = np.convolve([b1, -a1], [b2, -a2]).astype(complex)
        square = np.convolve(quad, quad)
        sol, *_ = np.linalg.lstsq(basis, square, rcond=None)
        resid = np.linalg.norm(basis @ sol - square) / np.linalg.norm(square)
        if resid < 1e-8 and abs(sol[0]) > 1e-10 * abs(sol[1]):
            lam = complex(sol[1] / sol[0])
            if not any(abs(lam - l) < 1e-7 * (1.0 + abs(lam)) for l, _ in found):
                found.append((lam, BinaryForm(quad)))
    found.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return found



def quartic_discriminant(coeffs) -> complex:
    """Discriminant of a binary quartic in monomial coefficients."""
    a, b, c, d, e = [complex(x) for x in coeffs]
    return (256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
            - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
            - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
            - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
            + 18 * a * b * c * d**3 + 16 * a * c**4 * e
            - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
            + 18 * b**3 * c * d * e - 4 * b**3 * d**3
            - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2)


def perfect_square_root(f: BinaryForm) -> BinaryForm:
    """Quadratic q with f ~ q^2, for a quartic that is a perfect square.

    With c = f / max|f| and q = (q0, q1, q2), q^2 = c reads c0 = q0^2,
    c1 = 2 q0 q1, c2 = q1^2 + 2 q0 q2, c3 = 2 q1 q2 and c4 = q2^2.  These
    give q in closed form from the front (q0 = sqrt(c0), q1 = c1 / (2 q0),
    q2 = (c2 - q1^2) / (2 q0)), from the back (the same on reversed c)
    and from the middle (q1^2 = t, the larger root of
    t^2 - c2 t + c1 c3 / 2 = 0, then q0 = c1 / (2 q1), q2 = c3 / (2 q1)).
    Of the candidates whose divisor is nonzero, the one whose square is
    nearest c is returned, scaled to largest coefficient 1; raises when
    there is none or when its square is not proportional to f within 1e-8.
    """
    if f.degree != 4:
        raise GeometryError("perfect_square_root expects a quartic")
    c = f.coeffs / np.max(np.abs(f.coeffs))

    def front(s):
        q0 = np.sqrt(s[0])
        q1 = s[1] / (2 * q0)
        return np.array([q0, q1, (s[2] - q1 * q1) / (2 * q0)])

    root = np.sqrt(c[2] * c[2] - 2 * c[1] * c[3])
    q1 = np.sqrt(max((c[2] + root) / 2, (c[2] - root) / 2, key=abs))
    with np.errstate(over="ignore", invalid="ignore"):
        candidates = ([front(c)] if c[0] else []) + ([front(c[::-1])[::-1]] if c[4] else [])
        candidates += [np.array([c[1] / (2 * q1), q1, c[3] / (2 * q1)])] if q1 else []
        misfits = [np.max(np.abs(np.convolve(q, q) - c)) for q in candidates]
    fits = [(m, k) for k, m in enumerate(misfits) if np.isfinite(m)]
    if fits:
        quad = candidates[min(fits)[1]]
        q = BinaryForm(quad / np.max(np.abs(quad)))
        if form_product(q, q).proportional_to(f):
            return q
    raise GeometryError("form is not a perfect square within tolerance")
