"""Deterministic fixture values with provenance and regeneration.

Every derived value names the oracle that produced it; ``regenerate``
reruns the oracles and reports mismatches, so a drifting computation
cannot silently keep a stale expected value alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .numerics import GeometryError
from .binary_forms import (
    BinaryForm,
    cubic_invariant_R,
    hessian,
    jacobian_covariant,
    projective_roots,
    quartic_invariants,
)

__all__ = [
    "FixtureValue",
    "FixtureSet",
    "builtin_fixtures",
    "regenerate",
    "ORACLES",
    "cubic_hessian_cube_lambda",
    "quartic_square_pencil",
]

PROVENANCES = ("literature", "trivial", "derived")


@dataclass(frozen=True)
class FixtureValue:
    name: str
    value: object               # float/complex or tuple of those
    provenance: str
    oracle: Optional[str] = None
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise GeometryError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "derived" and not self.oracle:
            raise GeometryError(f"derived fixture {self.name!r} must name its oracle")


class FixtureSet:
    def __init__(self, name: str, values):
        self.name = name
        self.values = {v.name: v for v in values}

    def __getitem__(self, key) -> FixtureValue:
        return self.values[key]

    def __iter__(self):
        return iter(self.values.values())

    def __len__(self):
        return len(self.values)


# -- oracles ---------------------------------------------------------------


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


def _oracle_quartic_square_lambdas() -> tuple:
    return tuple(l.real for l, _ in quartic_square_pencil())


ORACLES = {
    "cubic-hessian-cube-solve": cubic_hessian_cube_lambda,
    "quartic-square-pencil": _oracle_quartic_square_lambdas,
    "artanh-closed-form": lambda: math.atanh(0.5),
    "elliptic-right-angle": lambda: math.pi / 2.0,
}


def builtin_fixtures() -> FixtureSet:
    return FixtureSet("builtin", [
        FixtureValue("harmonic_cross_ratio", -1.0, "trivial"),
        FixtureValue("unit_circle_coords", (0j, 0j, 1j, 0j, 1 + 0j), "trivial"),
        FixtureValue("equator_cubic_q_longitudes", (60.0, 180.0, 300.0), "literature"),
        FixtureValue("cubic_hessian_cube_lambda", 432.0, "derived",
                     oracle="cubic-hessian-cube-solve", tolerance=1e-8),
        FixtureValue("quartic_square_lambdas",
                     (-78.0 / 7.0, -156.0 / 35.0, 78.0 / 5.0), "derived",
                     oracle="quartic-square-pencil", tolerance=1e-8),
        FixtureValue("klein_disk_artanh_half", 0.5493061443340548, "derived",
                     oracle="artanh-closed-form", tolerance=1e-12),
        FixtureValue("elliptic_right_angle", 1.5707963267948966, "derived",
                     oracle="elliptic-right-angle", tolerance=1e-12),
    ])


def regenerate(fs: FixtureSet) -> dict:
    """Recompute every derived value by its named oracle.

    Returns {name: (stored, recomputed, ok)}; ok means agreement within
    the fixture's stated tolerance, elementwise for tuples.
    """
    out = {}
    for fv in fs:
        if fv.provenance != "derived":
            continue
        oracle = ORACLES.get(fv.oracle)
        if oracle is None:
            out[fv.name] = (fv.value, None, False)
            continue
        fresh = oracle()
        out[fv.name] = (fv.value, fresh, _values_close(fv.value, fresh, fv.tolerance))
    return out


def _values_close(a, b, tol) -> bool:
    if isinstance(a, (tuple, list)) != isinstance(b, (tuple, list)):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_values_close(x, y, tol) for x, y in zip(a, b))
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(a)))

