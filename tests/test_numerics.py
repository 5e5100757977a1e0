"""The form-orthonormal completion behind symmetric_gram_basis and
sample_form_preserving, against the two Gram-Schmidt loops it replaced;
and expm_stack against scipy.linalg.expm, bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from erlangen import numerics
from erlangen.numerics import (
    GeometryError,
    _complex_orthogonal,
    _form_orthonormal_completion,
    _pade_kernel,
    expm_stack,
    rng_from,
    sample_form_preserving,
    symmetric_gram_basis,
)
from erlangen.transfers import klein_quadric, random_pentaspherical_stack


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


# -- expm_stack ------------------------------------------------------------------

def _antisymmetric_stack(rng, b, n, norm, complex_entries):
    g = rng.normal(size=(b, n, n))
    if complex_entries:
        g = g + 1j * rng.normal(size=(b, n, n))
    a = g - g.transpose(0, 2, 1)
    return a * (norm / np.linalg.norm(a, axis=(1, 2)))[:, None, None]


def _squarings(matrix):
    work = np.empty((5,) + matrix.shape, dtype=matrix.dtype)
    work[0] = matrix
    return _pade_kernel().pick_pade_structure(work)[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_expm_stack_is_scipy_expm_bitwise(n, complex_entries):
    rng = np.random.default_rng(100 * n + complex_entries)
    # real stacks are G A in O(p, q), as the circle groups sample them
    g = np.diag([1.0] * (n - n // 2) + [-1.0] * (n // 2))
    squarings = set()
    for norm in (0.8, 3.0, 8.0, 20.0, 40.0):
        a = _antisymmetric_stack(rng, 200, n, norm, complex_entries)
        if not complex_entries:
            a = g @ a
        assert expm_stack(a).tobytes() == expm(a).tobytes()
        squarings.update(_squarings(m) for m in a)
    assert {0, 1, 2, 3} <= squarings


def test_expm_stack_sends_diagonal_and_triangular_stacks_to_scipy():
    rng = np.random.default_rng(7)
    a = _antisymmetric_stack(rng, 8, 4, 20.0, False)
    upper = np.triu(rng.normal(size=(4, 4))) * 5.0
    specials = (np.zeros((4, 4)), np.diag(rng.normal(size=4)), upper, upper.T)
    for special in specials:
        for stack in (np.concatenate([a, special[None]]), special[None]):
            assert expm_stack(stack).tobytes() == expm(stack).tobytes()
            z = stack + 0j
            assert expm_stack(z).tobytes() == expm(z).tobytes()
    # scipy's branch for triangular matrices differs from the generic one
    assert _squarings(upper) > 0


def test_expm_stack_without_the_kernel_is_scipy_expm(monkeypatch):
    monkeypatch.setattr(numerics, "_pade_kernel", lambda: None)
    a = _antisymmetric_stack(np.random.default_rng(3), 20, 5, 3.0, True)
    assert expm_stack(a).tobytes() == expm(a).tobytes()


def test_expm_stack_on_the_stacks_the_samplers_build(monkeypatch):
    calls = []

    def checked(a):
        out = expm_stack(a)
        assert out.tobytes() == expm(a).tobytes()
        calls.append(len(a))
        return out

    monkeypatch.setattr(numerics, "expm_stack", checked)
    seeds = list(range(500))
    for n in (4, 5):
        random_pentaspherical_stack(seeds, n)
        for seed in seeds:
            random_pentaspherical_stack([seed], n)
    circle = np.diag([1.0, 1.0, -1.0]).astype(complex)
    for seed in seeds:
        sample_form_preserving(circle, seed)
        sample_form_preserving(klein_quadric().matrix, seed, fixing=np.arange(1.0, 7.0))
    assert calls == [500] + [1] * 500 + [500] + [1] * 500 + [1] * 1000


def test_the_pade_kernel_loads_without_scipy_linalg():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from erlangen.numerics import _pade_kernel; "
         "print(_pade_kernel() is not None, 'scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["True", "False"], proc.stderr
