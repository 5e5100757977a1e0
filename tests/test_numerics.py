"""The form-orthonormal completion behind symmetric_gram_basis and
sample_form_preserving, against the two Gram-Schmidt loops it replaced;
expm_stack against scipy.linalg.expm, rng_stack against numpy's own
generator construction, mix_seeds against the Python-integer splitmix64
rule, and proportionality and normalize_leading against the bits of their
former scalar bodies."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from erlangen import numerics
from erlangen.numerics import (
    GeometryError,
    _complex_orthogonal,
    _form_orthonormal_completion,
    _pade_kernel,
    expm_stack,
    mix_seed,
    mix_seeds,
    normalize_leading,
    normalize_leading_stack,
    proportionality,
    proportionality_stack,
    rng_from,
    rng_stack,
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


def _old_complex_orthogonal(rng, n):
    """The draw _complex_orthogonal made through random_antisymmetric
    (complex entries, scale 0.8), then its exponential."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (g - g.T) / 2.0
    nrm = np.linalg.norm(a)
    if nrm > 0:
        a *= 0.8 / nrm
    return expm_stack(a[None])[0]


@pytest.mark.parametrize("n", range(1, 7))
def test_complex_orthogonal_keeps_its_draws(n):
    for seed in range(200):
        new, old = rng_from(seed), rng_from(seed)
        assert _complex_orthogonal(new, n).tobytes() == _old_complex_orthogonal(old, n).tobytes()
        # and leaves the generator where the old draw did
        assert new.bit_generator.state == old.bit_generator.state


# -- mix_seeds against the Python-integer rule it replaced ---------------------

def _old_mix_seed(seed, index):
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & numerics.MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & numerics.MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & numerics.MASK64
    return (z ^ (z >> 31)) & numerics.MASK64


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -1])
def test_mix_seeds_is_the_python_integer_rule(seed):
    # the ranges the block loops pass: all indices, the axiom pairs, the
    # invariance configurations and transformations, a contact block
    for indices in (range(301), range(128, 256), range(0, 300, 3), range(1, 301, 3),
                    range(300)[64:128]):
        mixed = mix_seeds(seed, indices)
        assert mixed == [_old_mix_seed(seed, i) for i in indices]
        assert all(type(z) is int for z in mixed)
        assert [mix_seed(seed, i) for i in indices] == mixed
    assert mix_seeds(seed, []) == []
    # mix_seed masks any index to 64 bits, as the old rule's first mask did
    for index in (-1, 2**64 - 1, 2**64 + 3):
        z = mix_seed(seed, index)
        assert type(z) is int and z == _old_mix_seed(seed, index)


# -- rng_stack against Generator(PCG64(seed)) ----------------------------------

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -2**63]


def _assert_numpy_generators(seeds):
    """Each generator of rng_stack(seeds) is in the state of numpy's own for
    its seed (masked to 64 bits, as rng_from masks it) and makes the same
    first draws."""
    stacked = rng_stack(seeds)
    assert len(stacked) == len(seeds)
    for seed, rng in zip(seeds, stacked):
        ref = np.random.Generator(np.random.PCG64(seed & numerics.MASK64))
        assert rng.bit_generator.state == ref.bit_generator.state, seed
        for draw in ("normal", "uniform", "random"):
            assert getattr(rng, draw)() == getattr(ref, draw)(), (seed, draw)


def test_rng_stack_is_numpy_on_the_edge_seeds():
    _assert_numpy_generators(EDGE_SEEDS)


def test_rng_stack_is_numpy_on_random_seeds():
    seeds = [int(s) for s in rng_from(2024).integers(0, 2**64, size=1000, dtype=np.uint64)]
    _assert_numpy_generators(seeds)


def test_rng_stack_of_no_seeds():
    assert rng_stack([]) == []


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(-2**63, 2**64 - 1), max_size=2 * numerics._STACKED_FROM))
def test_rng_stack_is_numpy_on_any_block(seeds):
    _assert_numpy_generators(seeds)


def test_small_blocks_are_rng_from():
    """Below the break-even a block is rng_from of each seed, with numpy's
    own SeedSequence; from it, the stacked hash's stand-in."""
    for size in range(1, 2 * numerics._STACKED_FROM):
        seq = rng_stack(EDGE_SEEDS[:1] * size)[0].bit_generator.seed_seq
        assert isinstance(seq, np.random.SeedSequence) == (size < numerics._STACKED_FROM)


def _stacked(seed):
    """The generator of ``seed`` from a block that rng_stack hashes as a stack."""
    return rng_stack([seed] + list(range(numerics._STACKED_FROM - 1)))[0]


@pytest.mark.parametrize("seed", EDGE_SEEDS[:6] + [mix_seed(3, 4)])
def test_rng_stack_spawns_numpy_children(seed):
    stacked, ref = _stacked(seed), rng_from(seed)
    for _ in range(3):  # the second and third spawn continue the count
        assert ([c.random(4).tobytes() for c in stacked.spawn(2)]
                == [c.random(4).tobytes() for c in ref.spawn(2)])
        assert ([c.generate_state(2).tobytes() for c in stacked.bit_generator.seed_seq.spawn(2)]
                == [c.generate_state(2).tobytes() for c in ref.bit_generator.seed_seq.spawn(2)])


def test_rng_stack_seed_sequence_reads_as_numpy():
    """Anything but PCG64's state words comes from numpy's SeedSequence,
    and a pickled generator comes back with numpy's own."""
    import pickle

    rng, ref = _stacked(2**40 + 7), rng_from(2**40 + 7)
    assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
    seq, ref_seq = rng.bit_generator.seed_seq, ref.bit_generator.seed_seq
    assert seq.entropy == ref_seq.entropy and seq.pool_size == ref_seq.pool_size
    assert seq.generate_state(3).tobytes() == ref_seq.generate_state(3).tobytes()
    copy = pickle.loads(pickle.dumps(rng))
    assert isinstance(copy.bit_generator.seed_seq, np.random.SeedSequence)
    assert copy.random() == rng.random() == ref.random()


def test_numerics_loads_no_numpy_random():
    """rng_stack builds its seed sequence type on first use, so importing
    numerics leaves numpy.random unloaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, erlangen.numerics; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["False"], proc.stderr


def _proportionality_pairs():
    """Pairs (a, b) of the shapes proportionality's callers use: n x n
    matrices against I or another matrix, and coefficient vectors; some
    nearly proportional, some with a real ``a``."""
    rng = np.random.default_rng(14)
    for shape in [(2, 2), (3, 3), (4, 4), (5, 5), (3,), (6,), (7,), (16,)]:
        for k in range(60):
            z = rng.normal(size=(2,) + shape)
            b = np.eye(shape[0]) if len(shape) == 2 and k % 2 else z[0] + 1j * z[1]
            z = rng.normal(size=(2,) + shape)
            a = complex(*rng.normal(size=2)) * b + 10.0 ** -rng.integers(1, 15) * (z[0] + 1j * z[1])
            yield (a.real if k % 3 == 0 else a), b


def test_proportionality_keeps_the_bits_of_its_scalar_body():
    """The digest was taken from the scalar body before proportionality
    became the batch of one of proportionality_stack."""
    pairs = list(_proportionality_pairs())
    results = [proportionality(a, b) for a, b in pairs]
    data = b"".join(np.complex128(mu).tobytes() + np.float64(resid).tobytes()
                    for mu, resid in results)
    assert hashlib.sha256(data).hexdigest()[:16] == "32b6ddb76416040e"
    for (a, b), (mu, resid) in zip(pairs, results):
        mus, resids = proportionality_stack(np.stack([a, 2 * a]), b)
        assert (mus[0], resids[0]) == (mu, resid)
    assert proportionality(np.ones(3), np.zeros(3)) == (0j, np.inf)
    assert proportionality(np.zeros((2, 2)), np.eye(2)) == (0j, 0.0)


def test_normalize_leading_is_the_batch_of_one_of_the_stack():
    rng = np.random.default_rng(15)
    rows = rng.normal(size=(60, 4)) + 1j * rng.normal(size=(60, 4))
    rows[:20, 1] = rows[:20, 2]    # ties for the largest magnitude
    for row, out in zip(rows, normalize_leading_stack(rows)):
        k = int(np.argmax(np.abs(row)))
        assert out.tobytes() == normalize_leading(row).tobytes() == (row / row[k]).tobytes()
    with pytest.raises(GeometryError):
        normalize_leading(np.zeros(3))
