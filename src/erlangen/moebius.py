"""Moebius maps of the extended complex plane and the sphere model.

Both families are supported: the fractional-linear maps
z' = (a z + b)/(c z + d) and the conjugating family
z' = (a conj(z) + b)/(c conj(z) + d).  Conjugation with the unit sphere
goes through stereographic projection from the north pole (0, 0, 1).
"""

from __future__ import annotations

import numpy as np

from .numerics import GeometryError, complex_abs, complex_product, rng_stack, times_i
from .projective import ProjMap, ProjPoint, Quadric

__all__ = [
    "ExtendedComplex",
    "INFINITY",
    "MoebiusMap",
    "MOEBIUS_FAULTS",
    "moebius_faults",
    "moebius_inverses",
    "moebius_circles",
    "SpherePoint",
    "stereographic",
    "inverse_stereographic",
    "sphere_point_homogeneous",
    "moebius_to_sphere",
    "unit_sphere_quadric",
    "chordal_distance",
    "circle_matrix",
    "circle_matrices",
    "circle_quadric",
    "CIRCLE_FAULTS",
    "circle_parameters",
    "circle_from_quadric",
    "moebius_transform_circle",
    "random_moebius",
    "random_moebius_stack",
]


class ExtendedComplex:
    """A complex value or the single point at infinity."""

    __slots__ = ("value", "infinite")

    def __init__(self, value=0j, infinite=False):
        if infinite:
            self.value = None
            self.infinite = True
        else:
            z = complex(value)
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise GeometryError("finite ExtendedComplex requires finite value")
            self.value = z
            self.infinite = False

    def __repr__(self):
        return "ExtendedComplex(inf)" if self.infinite else f"ExtendedComplex({self.value!r})"

    def __eq__(self, other):
        other = as_extended(other)
        if self.infinite or other.infinite:
            return self.infinite and other.infinite
        return self.value == other.value

    def __hash__(self):
        return hash(("inf",)) if self.infinite else hash(self.value)


INFINITY = ExtendedComplex(infinite=True)


def as_extended(z) -> ExtendedComplex:
    if isinstance(z, ExtendedComplex):
        return z
    return ExtendedComplex(complex(z))


def chordal_distance(z: ExtendedComplex, w: ExtendedComplex) -> float:
    """Riemann-sphere chordal metric; infinity-safe comparison tool."""
    z, w = as_extended(z), as_extended(w)
    if z.infinite and w.infinite:
        return 0.0
    if z.infinite or w.infinite:
        finite = w if z.infinite else z
        return 2.0 / np.sqrt(1.0 + abs(finite.value) ** 2)
    num = 2.0 * abs(z.value - w.value)
    return num / np.sqrt((1.0 + abs(z.value) ** 2) * (1.0 + abs(w.value) ** 2))


#: (exception type, message) of the errors MoebiusMap raises, indexed by
#: the codes moebius_faults returns (0: no error); code 3 is the
#: OverflowError that abs() of a complex scalar raises
MOEBIUS_FAULTS = ((None, ""), (GeometryError, "MoebiusMap coefficients invalid"),
                  (GeometryError, "MoebiusMap is singular (ad - bc ~ 0)"),
                  (OverflowError, "absolute value too large"))


class MoebiusMap:
    """Coefficients (a, b, c, d) with ad - bc != 0, plus an optional
    pre-conjugation flag selecting the orientation-reversing family."""

    __slots__ = ("a", "b", "c", "d", "conjugating")

    def __init__(self, a, b, c, d, conjugating: bool = False):
        self.a, self.b, self.c, self.d = (complex(a), complex(b), complex(c), complex(d))
        self.conjugating = bool(conjugating)
        # the checks of a scalar raise, they do not warn, on sizes that overflow
        with np.errstate(over="ignore", invalid="ignore"):
            fault = moebius_faults(np.array([[[self.a, self.b], [self.c, self.d]]]))[0]
        if fault:
            etype, message = MOEBIUS_FAULTS[fault]
            raise etype(message)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def coeff_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def apply(self, z) -> ExtendedComplex:
        z = as_extended(z)
        if self.conjugating and not z.infinite:
            z = ExtendedComplex(np.conj(z.value))
        if z.infinite:
            if self.c == 0:
                return INFINITY
            return ExtendedComplex(self.a / self.c)
        denom = self.c * z.value + self.d
        if denom == 0:
            return INFINITY
        return ExtendedComplex((self.a * z.value + self.b) / denom)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other, with conjugation flags folded through."""
        g2 = other.coeff_matrix
        if self.conjugating:
            g2 = np.conj(g2)
        g = self.coeff_matrix @ g2
        return MoebiusMap(g[0, 0], g[0, 1], g[1, 0], g[1, 1],
                          conjugating=self.conjugating != other.conjugating)

    def inverse(self) -> "MoebiusMap":
        (a, b), (c, d) = moebius_inverses(self.coeff_matrix[None],
                                          np.array([self.conjugating]))[0].tolist()
        return MoebiusMap(a, b, c, d, conjugating=self.conjugating)

    def equals(self, other: "MoebiusMap", tol: float = 1e-10) -> bool:
        if self.conjugating != other.conjugating:
            return False
        from .numerics import equal_up_to_scale
        return equal_up_to_scale(self.coeff_matrix, other.coeff_matrix, tol)

    def __repr__(self):
        tag = ", conj" if self.conjugating else ""
        return f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r}{tag})"


def moebius_faults(coeffs: np.ndarray) -> np.ndarray:
    """The checks of MoebiusMap.__init__ on a (B, 2, 2) stack of
    coefficient matrices [[a, b], [c, d]] at once; MoebiusMap(a, b, c, d)
    is their batch of one.

    Entry k is the index in MOEBIUS_FAULTS of the first check coeffs[k]
    fails, or 0: the coefficients are invalid when their largest size is
    zero or not finite (a NaN in any place makes it NaN), singular when
    |ad - bc| <= 1e-12 max(|a|, |b|, |c|, |d|)^2, and a size that
    overflows is the OverflowError abs() of a complex scalar raises.  A
    stack of another shape raises GeometryError.
    """
    if coeffs.shape[1:] != (2, 2):
        raise GeometryError("MoebiusMap needs a 2 x 2 coefficient matrix")
    flat = coeffs.reshape(len(coeffs), 4)
    sizes = complex_abs(flat)
    scale = sizes.max(axis=1)
    det = complex_product(flat[:, 0], flat[:, 3]) - complex_product(flat[:, 1], flat[:, 2])
    size = complex_abs(det)
    # from the last check to the first, so that the first failed one stays
    faults = np.zeros(len(coeffs), dtype=np.int8)
    faults[size <= 1e-12 * scale * scale] = 2
    faults[_overflows(det, size)] = 3
    faults[(scale == 0.0) | ~np.isfinite(scale)] = 1
    faults[_overflows(flat, sizes).any(axis=1)] = 3
    return faults


def _overflows(z: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Where abs() of the complex scalar z raises OverflowError: both parts
    finite, the size not."""
    return np.isfinite(z) & np.isinf(size)


def moebius_inverses(coeffs: np.ndarray, conjugating: np.ndarray) -> np.ndarray:
    """The coefficient matrices of MoebiusMap.inverse for a (B, 2, 2)
    stack and its (B,) conjugating flags: the adjugates (d, -b, -c, a),
    conjugated where the flag is set."""
    inv = np.empty_like(coeffs)
    inv[:, 0, 0], inv[:, 1, 1] = coeffs[:, 1, 1], coeffs[:, 0, 0]
    inv[:, 0, 1], inv[:, 1, 0] = -coeffs[:, 0, 1], -coeffs[:, 1, 0]
    return np.where(conjugating[:, None, None], np.conj(inv), inv)


def random_moebius_stack(seeds):
    """The coefficient matrices and conjugating flags of random_moebius
    for each seed: a (B, 2, 2) complex stack and a (B,) mask."""
    rngs = rng_stack(seeds)
    re, im = np.empty((2, len(seeds), 4))
    redo = np.arange(len(seeds))
    # rejection sampling, each redraw on the trial's own generator, until
    # |ad - bc| > 0.2 max(|a|, |b|, |c|, |d|)^2
    while redo.size:
        for k in redo.tolist():
            re[k], im[k] = rngs[k].normal(size=(2, 4))
        draws = (re[redo] + 1j * im[redo]) / np.sqrt(2)
        a, b, c, d = draws.T
        scale = np.max(complex_abs(draws), axis=1)
        det = complex_product(a, d) - complex_product(b, c)
        redo = redo[~(complex_abs(det) > 0.2 * scale * scale)]
    flags = np.array([rng.random() < 0.5 for rng in rngs], dtype=bool)
    return ((re + 1j * im) / np.sqrt(2)).reshape(-1, 2, 2), flags


def random_moebius(seed: int) -> MoebiusMap:
    """Seeded draw from the full group; the conjugating family comes up
    with probability 1/2."""
    coeffs, flags = random_moebius_stack([seed])
    (a, b), (c, d) = coeffs[0].tolist()
    return MoebiusMap(a, b, c, d, conjugating=flags[0])


class SpherePoint:
    """Point of the unit sphere in R^3 (unit norm to 1e-12)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = float(x), float(y), float(z)
        n = self.x**2 + self.y**2 + self.z**2
        if not np.isfinite(n) or abs(n - 1.0) > 1e-12:
            raise GeometryError("SpherePoint must have unit norm")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def __repr__(self):
        return f"SpherePoint({self.x!r}, {self.y!r}, {self.z!r})"


def stereographic(p: SpherePoint) -> ExtendedComplex:
    """Projection from the north pole (0,0,1) to the equatorial plane."""
    if abs(1.0 - p.z) < 1e-15:
        return INFINITY
    return ExtendedComplex((p.x + 1j * p.y) / (1.0 - p.z))


def inverse_stereographic(z) -> SpherePoint:
    z = as_extended(z)
    if z.infinite:
        return SpherePoint(0.0, 0.0, 1.0)
    v = z.value
    s = abs(v) ** 2
    if s > 1e150:
        return SpherePoint(0.0, 0.0, 1.0)
    d = s + 1.0
    p = SpherePoint(2.0 * v.real / d, 2.0 * v.imag / d, (s - 1.0) / d)
    return p


def sphere_point_homogeneous(z) -> ProjPoint:
    """Riemann-sphere point as a homogeneous point of P^3 on the unit sphere."""
    p = inverse_stereographic(z)
    return ProjPoint([p.x, p.y, p.z, 1.0])


def unit_sphere_quadric() -> Quadric:
    """x^2 + y^2 + z^2 - w^2 = 0."""
    return Quadric(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))


def moebius_to_sphere(m: MoebiusMap) -> ProjMap:
    """The 4x4 projectivity of the sphere conjugate to a Moebius map.

    A Moebius map fixes the sphere quadric and acts linearly on circle
    coordinates u (transfers.moebius_circle_matrix, N).  The pole of the
    plane that cuts a circle out of the sphere, with the third axis
    reversed (R), is the circle's real coordinates D^-1 u (transfers._D
    multiplies the first three by i), and a projectivity fixing the sphere
    moves poles as points.  So the map is R D^-1 N D R, plain or
    conjugating.
    """
    from .transfers import _D, _D_INV, moebius_circle_matrix
    r = np.diag([1.0, 1.0, -1.0, 1.0])
    return ProjMap(r @ _D_INV[4] @ moebius_circle_matrix(m) @ _D[4] @ r)


# ---------------------------------------------------------------------------
# circles of the plane as P^2 quadrics, and their Moebius images
#
# A circle A(x^2+y^2) - 2 a x - 2 b y + C = 0 is simultaneously
#   * the P^2 conic [[A,0,-a],[0,A,-b],[-a,-b,C]]  (lines have A = 0), and
#   * the Hermitian 2x2 matrix [[A, -(a+ib)],[-(a-ib), C]] acting on (z, 1).
# Moebius maps act on the Hermitian form by congruence, which gives the
# exact image circle without any point fitting.
# ---------------------------------------------------------------------------


def circle_matrix(center, radius: float) -> np.ndarray:
    """The matrix of circle_quadric(center, radius)."""
    c = complex(center)
    r = float(radius)
    if r < 0 or not np.isfinite(r):
        raise GeometryError("radius must be a finite nonnegative real")
    return circle_matrices(np.array([c.real, c.imag, r]))


def circle_matrices(circles: np.ndarray) -> np.ndarray:
    """The (..., 3, 3) stack of circle_matrix(x + iy, r) for a (..., 3)
    real stack of circles (x, y, r)."""
    m = np.zeros(circles.shape[:-1] + (3, 3), dtype=complex)
    m[..., [0, 1], [0, 1]] = 1.0
    m[..., :2, 2] = m[..., 2, :2] = -circles[..., :2]
    squares = circles * circles
    m[..., 2, 2] = squares[..., 0] + squares[..., 1] - squares[..., 2]
    return m


def circle_quadric(center, radius: float) -> Quadric:
    """P^2 conic of the circle |z - center| = radius."""
    return Quadric(circle_matrix(center, radius))


#: messages of the GeometryErrors circle_from_quadric raises, indexed by
#: the codes circle_parameters returns (0: no error)
CIRCLE_FAULTS = ("", "conic is not a circle or line", "conic is not a real circle")


def circle_parameters(matrices: np.ndarray):
    """circle_from_quadric on a (..., 3, 3) stack of conic matrices: the
    parameters A, a, b and C as four (...) arrays, and the (...) indices in
    CIRCLE_FAULTS of the error each conic raises (0: none)."""
    mat = matrices / np.abs(matrices).max(axis=(-2, -1), keepdims=True)
    faults = np.where((complex_abs(mat[..., 0, 0] - mat[..., 1, 1]) > 1e-9)
                      | (complex_abs(mat[..., 0, 1]) > 1e-9), 1,
                      np.where(np.abs(mat.imag).max(axis=(-2, -1)) > 1e-6, 2, 0))
    mat = mat.real
    lead = mat[..., 0, 0]
    # genuine circles are rescaled to A = 1; dividing by 1 changes nothing
    lead = np.where(np.abs(lead) > 1e-9, lead, 1.0)
    return ((mat[..., 0, 0] / lead, -(mat[..., 0, 2] / lead), -(mat[..., 1, 2] / lead),
             mat[..., 2, 2] / lead), faults.astype(np.int8))


def circle_from_quadric(q: Quadric):
    """Extract (A, a, b, C) from a circle-shaped P^2 conic, rescaled to
    A = 1 for genuine circles (lines, A = 0, stay max-normalized).

    Raises if the conic is not a circle or line, i.e. unless the two
    leading diagonal entries agree and the xy cross term vanishes.  The
    batch of one of circle_parameters.
    """
    if q.dim != 2:
        raise GeometryError("circle quadrics live in P^2")
    params, faults = circle_parameters(q.matrix)
    if faults:
        raise GeometryError(CIRCLE_FAULTS[faults])
    return tuple(float(x) for x in params)


def moebius_circles(coeffs: np.ndarray, conjugating: np.ndarray, matrices: np.ndarray):
    """moebius_transform_circle on stacks: the image of each of the
    (B, q, 3, 3) circle conics of row b under the Moebius map with the
    coefficient matrix coeffs[b] and flag conjugating[b], as (B, q, 3, 3)
    conic matrices, and the (B, q) indices in CIRCLE_FAULTS of the error
    circle_from_quadric raises on a conic (0: none).

    A circle A(x^2 + y^2) - 2 a x - 2 b y + C = 0 is the Hermitian form
    H = [[A, -(a + ib)], [-(a - ib), C]] on (z, 1); the map acts on it by
    congruence with the inverse coefficient matrix G^-1, and pre-conjugation
    swaps H for its transpose.
    """
    (aa, a, b, cc), faults = circle_parameters(matrices)
    ib = times_i(b)
    h = np.empty(aa.shape + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = aa, cc
    h.real[..., 0, 1], h.imag[..., 0, 1] = -(a + ib.real), -(0.0 + ib.imag)
    h.real[..., 1, 0], h.imag[..., 1, 0] = -(a - ib.real), -(0.0 - ib.imag)
    h = np.where(conjugating[:, None, None, None], h.swapaxes(-1, -2), h)
    ginv = np.linalg.inv(coeffs)[:, None]
    hp = np.conj(ginv).swapaxes(-1, -2) @ h @ ginv
    hp = (hp + np.conj(hp).swapaxes(-1, -2)) / 2.0
    out = np.zeros(matrices.shape, dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = hp[..., 0, 0].real
    # the conic [[A', 0, -a'], [0, A', -b'], [-a', -b', C']] of hp = H'
    out[..., 0, 2] = out[..., 2, 0] = hp[..., 0, 1].real
    out[..., 1, 2] = out[..., 2, 1] = hp[..., 0, 1].imag
    out[..., 2, 2] = hp[..., 1, 1].real
    return out, faults


def moebius_transform_circle(m: MoebiusMap, q: Quadric) -> Quadric:
    """Image of a circle (or line) conic under a Moebius map; the batch of
    one of moebius_circles."""
    if q.dim != 2:
        raise GeometryError("circle quadrics live in P^2")
    images, faults = moebius_circles(m.coeff_matrix[None], np.array([m.conjugating]),
                                     q.matrix[None, None])
    if faults[0, 0]:
        raise GeometryError(CIRCLE_FAULTS[faults[0, 0]])
    return Quadric(images[0, 0])
