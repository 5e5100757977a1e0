"""The form-orthonormal completion behind symmetric_gram_basis and
sample_form_preserving, against the two Gram-Schmidt loops it replaced."""

import numpy as np
import pytest

from erlangen.numerics import (
    GeometryError,
    _complex_orthogonal,
    _form_orthonormal_completion,
    rng_from,
    sample_form_preserving,
    symmetric_gram_basis,
)
from erlangen.transfers import klein_quadric


# -- the two loops the completion replaced, as they were -----------------------

def _gram_candidates(n):
    cands = [np.eye(n, dtype=complex)[:, k] for k in range(n)]
    for k in range(n):
        for j in range(k + 1, n):
            cands.append((cands[k] + cands[j]) / np.sqrt(2))
    return cands


def old_symmetric_gram_basis(qmat):
    qmat = np.asarray(qmat, dtype=complex)
    n = qmat.shape[0]
    cands = _gram_candidates(n)
    basis = []
    for _ in range(n):
        best, best_val = None, -1.0
        for c in cands:
            v = c.copy()
            for b in basis:
                v = v - (b @ qmat @ v) * b
            val = abs(v @ qmat @ v)
            nv = np.linalg.norm(v)
            if nv > 1e-12 and val / nv**2 > best_val:
                best, best_val = v, val / nv**2
        if best is None or best_val < 1e-10:
            raise GeometryError("form is (numerically) degenerate")
        v = best
        basis.append(v / np.sqrt(complex(v @ qmat @ v)))
    return np.column_stack(basis)


def old_sample_form_preserving(qmat, seed, fixing=None):
    qmat = np.asarray(qmat, dtype=complex)
    n = qmat.shape[0]
    rng = rng_from(seed)
    if fixing is None:
        b = old_symmetric_gram_basis(qmat)
        o = _complex_orthogonal(rng, n)
        return b @ o @ np.linalg.inv(b)
    a = np.asarray(fixing, dtype=complex)
    qa = complex(a @ qmat @ a)
    if abs(qa) < 1e-12 * np.linalg.norm(a) ** 2 * np.linalg.norm(qmat):
        raise GeometryError("fixed vector is isotropic for the form")
    a0 = a / np.sqrt(qa)
    basis = [a0]
    cands = _gram_candidates(n)
    while len(basis) < n:
        best, best_val = None, -1.0
        for c in cands:
            v = c.copy()
            for b in basis:
                v = v - (b @ qmat @ v) * b
            nv = np.linalg.norm(v)
            if nv <= 1e-12:
                continue
            val = abs(v @ qmat @ v) / nv**2
            if val > best_val:
                best, best_val = v, val
        if best is None or best_val < 1e-10:
            raise GeometryError("could not complete a form-orthonormal basis")
        basis.append(best / np.sqrt(complex(best @ qmat @ best)))
    b = np.column_stack(basis)
    block = np.zeros((n, n), dtype=complex)
    block[0, 0] = 1.0
    block[1:, 1:] = _complex_orthogonal(rng, n - 1)
    return b @ block @ np.linalg.inv(b)


def _forms():
    """23 symmetric forms: definite, indefinite, with isotropic coordinate
    axes, complex, and degenerate ones that both loops refuse."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    forms = [np.eye(n) for n in (2, 3, 4)] + [
        np.diag([1.0, 1.0, -1.0]), np.diag([1.0, -1.0, 1.0, -1.0]),
        np.diag([1.0, 1.0, 1.0, -1.0, -1.0]), swap, np.kron(np.eye(2), swap),
        np.block([[swap, np.zeros((2, 1))], [np.zeros((1, 2)), np.ones((1, 1))]]),
        klein_quadric().matrix, np.diag([1.0, 0.0, 1.0]), np.zeros((3, 3)),
        np.diag([1e-12, 1.0, 1.0])]
    rng = np.random.default_rng(23)
    for n in (2, 3, 3, 4, 4, 5, 5, 6, 6, 3):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) * (n % 2)
        forms.append((m + m.T) / 2.0)
    return forms


def _bytes_or_error(fn):
    try:
        return fn().tobytes()
    except GeometryError as exc:
        return str(exc)


# the zero form divides by zero in both loops alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_completion_matches_the_old_loops_bitwise():
    forms = _forms()
    assert len(forms) == 23
    outcomes = set()
    for q in forms:
        q = q.astype(complex)
        old = _bytes_or_error(lambda: old_symmetric_gram_basis(q))
        assert _bytes_or_error(lambda: symmetric_gram_basis(q)) == old
        assert _bytes_or_error(lambda: _form_orthonormal_completion(
            q, [], "form is (numerically) degenerate")) == old
        outcomes.add(old if isinstance(old, str) else bytes)
        for seed in range(30):
            a = rng_from(seed).normal(size=len(q))
            # the first axis is isotropic for the forms with isotropic axes
            for fixing in (None, a, np.eye(len(q))[0]):
                new = _bytes_or_error(lambda: sample_form_preserving(q, seed, fixing))
                old = _bytes_or_error(lambda: old_sample_form_preserving(q, seed, fixing))
                assert new == old
                outcomes.add(old if isinstance(old, str) else bytes)
    assert outcomes == {bytes, "form is (numerically) degenerate",
                        "fixed vector is isotropic for the form",
                        "could not complete a form-orthonormal basis"}


def test_completion_keeps_the_given_vectors():
    q = np.diag([1.0, 1.0, -1.0]).astype(complex)
    a0 = np.array([0.0, 0.0, 1j])
    b = _form_orthonormal_completion(q, [a0], "unused")
    assert np.array_equal(b[:, 0], a0)
    assert np.allclose(b.T @ q @ b, np.eye(3))
    with pytest.raises(GeometryError, match="^no basis$"):
        _form_orthonormal_completion(np.diag([1.0, 0.0]).astype(complex), [], "no basis")
