"""sample_form_preserving, the Cayley transform of an element of the form's
Lie algebra, against the form and the refusals of the Gram-Schmidt sampler
it replaced; expm_stack against scipy.linalg.expm, rng_stack against
numpy's own generator construction, mix_seeds against the Python-integer
splitmix64 rule, and proportionality and normalize_leading against the
bits of their former scalar bodies."""

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
)
from erlangen.transfers import klein_quadric, random_pentaspherical_stack


# -- sample_form_preserving --------------------------------------------------

def _forms():
    """23 symmetric forms: definite, indefinite, with isotropic coordinate
    axes, complex, and three degenerate ones (10-12) that are refused."""
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


#: the refusals of the Gram-Schmidt sampler that the Cayley transform
#: replaced, over seeds 0-99, by form (index in _forms()) and fixed vector;
#: where it could not complete a form-orthonormal basis for a fixed
#: vector, the form was degenerate, and it now says so
ISOTROPIC, DEGENERATE = "fixed vector is isotropic for the form", "form is (numerically) degenerate"
REFUSALS = {(6, "axis"): ISOTROPIC, (7, "axis"): ISOTROPIC, (8, "axis"): ISOTROPIC,
            (9, "axis"): ISOTROPIC, (12, "axis"): ISOTROPIC,
            **{(form, fixing): DEGENERATE for form in (10, 11, 12) for fixing in (None, "random")},
            (10, "axis"): DEGENERATE, (11, "axis"): DEGENERATE}


def _fixings(q, seed):
    """No fixed vector, a random one, and the first axis, which is
    isotropic for the forms with isotropic axes."""
    return {None: None, "random": rng_from(seed).normal(size=len(q)), "axis": np.eye(len(q))[0]}


def test_sample_form_preserving_refuses_as_before_and_preserves_the_form():
    forms = _forms()
    assert len(forms) == 23
    refused = {}
    for k, q in enumerate(forms):
        q = q.astype(complex)
        for seed in range(100):
            for name, a in _fixings(q, seed).items():
                try:
                    m = sample_form_preserving(q, seed, a)
                except GeometryError as exc:
                    assert refused.setdefault((k, name), str(exc)) == str(exc)
                    continue
                assert np.linalg.norm(m.T @ q @ m - q) <= 1e-13 * np.linalg.norm(q)
                if a is not None:
                    assert np.linalg.norm(m @ a - a) <= 1e-12
                    # the stabiliser of a vector in dimension 2 is finite
                    if len(q) == 2:
                        assert np.abs(m - np.eye(2)).max() <= 1e-13
    assert refused == REFUSALS
    # the draw depends on the form only up to scale
    for q in forms[:10] + forms[13:]:
        for k in (1e-3, 1e3):
            for seed in range(5):
                a = _fixings(q, seed)["random"]
                for fixing in (None, a):
                    m, mk = (sample_form_preserving(f * q, seed, fixing) for f in (1.0, k))
                    assert np.abs(mk - m).max() <= 1e-13 * np.abs(m).max()
    # the zero vector is isotropic for every form
    with pytest.raises(GeometryError, match=f"^{ISOTROPIC}$"):
        sample_form_preserving(np.eye(3), 0, np.zeros(3))


def test_sample_form_preserving_keeps_its_draws():
    circle = np.diag([1.0, 1.0, -1.0])
    draws = [sample_form_preserving(circle, seed) for seed in range(50)]
    draws += [sample_form_preserving(klein_quadric().matrix, seed, fixing=np.arange(1.0, 7.0))
              for seed in range(50)]
    digest = hashlib.sha256(b"".join(m.tobytes() for m in draws)).hexdigest()[:16]
    assert digest == "6709ad3fdb80f8d4"


def test_the_closed_form_maps_load_no_scipy():
    """moebius_to_sphere and the form samplers are built without the
    matrix exponential: only the pentaspherical samplers reach expm_stack."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from erlangen import numerics\n"
            "from erlangen.groups import sample_quadric_preserving_map\n"
            "from erlangen.moebius import moebius_to_sphere, random_moebius\n"
            "from erlangen.transfers import klein_quadric\n"
            "moebius_to_sphere(random_moebius(3))\n"
            "sample_quadric_preserving_map(klein_quadric(), 3)\n"
            "print('scipy' in sys.modules, numerics._pade_kernel.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.stdout.split() == ["False", "0"], proc.stderr


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
    assert calls == [500] + [1] * 500 + [500] + [1] * 500


def test_the_pade_kernel_loads_without_scipy_linalg():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from erlangen.numerics import _pade_kernel; "
         "print(_pade_kernel() is not None, 'scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["True", "False"], proc.stderr


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
