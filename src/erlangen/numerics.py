"""Shared numeric helpers: seeding, scale-free comparisons, matrix sampling.

Scalars throughout the package are complex floats.  Constructors reject
non-finite values; all geometric comparisons are scale-free (projective)
and use explicit tolerances -- there is no ambient global state.
The groups of symmetric forms are sampled by the Cayley transform; only
the pentaspherical samplers exponentiate, with scipy's Pade kernel.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

MASK64 = (1 << 64) - 1

#: default relative tolerance for equality-up-to-scale decisions
DEFAULT_TOL = 1e-10


class GeometryError(Exception):
    """Numeric-geometric failure: bad input, degenerate configuration."""


class DimensionMismatch(GeometryError):
    """Operands live in different ambient dimensions."""


def mix_seed(seed: int, index: int) -> int:
    """Derive a child seed from (seed, index) with the splitmix64 finalizer.

    This is the documented splitting rule used by every randomized routine
    in the package: trial k of a run seeded with s uses mix_seed(s, k).  It
    is the batch of one of mix_seeds.
    """
    return mix_seeds(seed, [int(index) & MASK64])[0]


def mix_seeds(seed: int, indices) -> list:
    """[mix_seed(seed, i) for i in indices], as Python ints: the splitmix64
    rule on a uint64 array, whose arithmetic wraps mod 2^64 as the rule's
    masks do.  The indices lie in [0, 2^64)."""
    z = (np.asarray(indices, dtype=np.uint64) + 1) * 0x9E3779B97F4A7C15 + (int(seed) & MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return (z ^ (z >> 31)).tolist()


def rng_from(seed: int) -> np.random.Generator:
    """numpy's own generator for a seed: PCG64 seeded through
    SeedSequence(seed & MASK64).  rng_stack builds the same generators for
    a block of seeds at a lower cost per seed."""
    return np.random.Generator(np.random.PCG64(int(seed) & MASK64))


def _hash_steps(init: int, mult: int, steps: int):
    """The xor and multiplier constants of ``steps`` successive steps of
    SeedSequence's hash: the hash constant starts at ``init`` and is
    multiplied by ``mult`` (mod 2^32) at each step, before it multiplies
    the word."""
    xors, mults = [], []
    for _ in range(steps):
        xors.append(init)
        init = init * mult & 0xFFFFFFFF
        mults.append(init)
    return np.array(xors, np.uint32), np.array(mults, np.uint32)


@functools.cache
def _seeding():
    """The hash constants and the seed sequence type behind rng_stack, made
    on first use so that importing this module does not load numpy.random.

    The constants are those of SeedSequence with its pool of 4 words
    (numpy/random/bit_generator.pyx): 4 steps of INIT_A/MULT_A hash the
    entropy into the pool, 12 more mix the pool (3 per source word, one per
    other word), and 8 steps of INIT_B/MULT_B draw the 8 state words from
    the pool read twice."""
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISpawnableSeedSequence

    xa, ma = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
    # row src: the steps of the pass that mixes pool word src into the
    # others; its own entry stays 0, as the pass restores that word
    mix_xor, mix_mult = np.zeros((2, 4, 4), np.uint32)
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        mix_xor[src, others], mix_mult[src, others] = xa[steps], ma[steps]
    xb, mb = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
    # the 4 pool words of a 64-bit seed: its low and high 32 bits, then two
    # zeros (numpy shifts every bit out for a shift of 64)
    split = np.array([0, 32, 64, 64], np.uint64)

    class Hashed(ISpawnableSeedSequence):
        """SeedSequence(seed) whose 4 uint64 state words are already
        hashed.  PCG64 reads those words; anything else (another
        generate_state, spawn, entropy, pool, ...) goes to a
        SeedSequence(seed) made on first use, so spawning counts its
        children as numpy's does."""

        __slots__ = ("seed", "words", "_sequence")

        def __init__(self, seed, words):
            self.seed, self.words, self._sequence = seed, words, None

        def sequence(self):
            if self._sequence is None:
                self._sequence = SeedSequence(self.seed)
            return self._sequence

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:
                return self.words
            return self.sequence().generate_state(n_words, dtype)

        def spawn(self, n_children):
            return self.sequence().spawn(n_children)

        def __getattr__(self, name):
            return getattr(self.sequence(), name)

        def __reduce__(self):  # pickles as numpy's own SeedSequence
            return self.sequence().__reduce__()

    def hashed(seeds, words):
        return [Generator(PCG64(Hashed(s, w))) for s, w in zip(seeds, words)]

    return split, xa[:4], ma[:4], mix_xor, mix_mult, xb.reshape(2, 4), mb.reshape(2, 4), hashed


#: the fewest seeds rng_stack hashes as a stack: the stacked hash costs
#: about as much as 5 calls of rng_from, so smaller blocks take those calls
_STACKED_FROM = 6


def rng_stack(seeds) -> list:
    """[rng_from(s) for s in seeds]: the same generators, in the same
    states, with the same streams.

    NEP 19 freezes the stream that SeedSequence and PCG64 give a seed, so
    the hash SeedSequence(s).generate_state(4, uint64) that seeds each PCG64
    can run for the whole block at once, in uint32 arithmetic: each seed
    (masked to 64 bits) is split into its low and high 32-bit words, as
    SeedSequence reads an integer, and a seed below 2^32, which it reads as
    one word, hashes the same, since the pool hashes a missing word as 0.
    Each PCG64 is then built from its words.  A block of fewer than
    _STACKED_FROM seeds, where the stacked hash does not pay for itself,
    is rng_from of each seed.  The one difference from rng_from, in a
    larger block: ``bit_generator.seed_seq`` is not a numpy SeedSequence
    but an object that hands everything but PCG64's words (spawn, entropy,
    generate_state of other sizes) to SeedSequence(s), so ``rng.spawn`` and
    ``seed_seq.spawn`` give numpy's children.
    """
    seeds = [int(s) & MASK64 for s in seeds]
    if len(seeds) < _STACKED_FROM:
        return [rng_from(s) for s in seeds]
    split, init_xor, init_mult, mix_xor, mix_mult, out_xor, out_mult, hashed = _seeding()
    pool = (np.array(seeds, dtype=np.uint64)[:, None] >> split).astype(np.uint32)
    pool ^= init_xor
    pool *= init_mult
    pool ^= pool >> 16
    for src in range(4):
        # hash the source word once per other word, mix each into that word
        h = pool[:, src:src + 1] ^ mix_xor[src]
        h *= mix_mult[src]
        h ^= h >> 16
        mixed = pool * 0xCA01F9DD
        mixed -= h * 0x4973F715
        mixed ^= mixed >> 16
        mixed[:, src] = pool[:, src]
        pool = mixed
    words = pool[:, None, :] ^ out_xor  # the pool read twice: 8 words
    words *= out_mult
    words ^= words >> 16
    # numpy reads the 8 words as little-endian pairs
    words = words.reshape(len(seeds), 8).astype("<u4", copy=False)
    return hashed(seeds, words.view("<u8").astype(np.uint64, copy=False))


#: the rejection rounds a sampler's window holds beyond its first pass
WINDOW_REDRAWS = 3


class UniformWindow:
    """The next uniform doubles of a block of generators, read ahead.

    Generator.random and Generator.uniform read one double of the stream
    per number, in C order, and NEP 19 freezes both, so the draws a trial
    makes of those two kinds are the next doubles of its generator, in
    turn.  The window reads ``once + WINDOW_REDRAWS * again`` of them from
    each generator, one ``random(out=row)`` call per generator: ``once``
    for the draws of a sampler's first pass, ``again`` for those of one
    rejection round.  ``take(rows, n)`` hands out each row's next n
    doubles, from a cursor per row.  A row that runs past its window reads
    its next doubles from its own generator, which stands just past the
    window, so the doubles a row hands out are its generator's stream in
    order, however wide the window.  An empty window (``once`` 0) reads
    every draw from the generators, as the draws would have been made on
    them, and leaves each generator just past the doubles its row took.
    """

    def __init__(self, rngs, once: int, again: int = 0):
        self.rngs = rngs
        self.width = once + WINDOW_REDRAWS * again
        self.doubles = np.empty((len(rngs), self.width))
        if self.width:
            for rng, row in zip(rngs, self.doubles):
                rng.random(out=row)
        # the cursor the rows share while they stay in step; once some rows
        # take alone, the (B,) cursors, and step None
        self.step, self.cursors = 0, None

    def take(self, rows, n: int) -> np.ndarray:
        """The next n doubles of each row in ``rows``, an increasing array
        of row indices (None: every row), as a (rows, n) array, which the
        caller does not write to."""
        if self.step is not None and (rows is None or len(rows) == len(self.rngs)):
            if self.step + n <= self.width:
                self.step += n
                return self.doubles[:, self.step - n:self.step]
        if rows is None:
            rows = np.arange(len(self.rngs))
        if self.cursors is None:
            self.cursors = np.full(len(self.rngs), self.step)
            self.step = None
        start = self.cursors[rows]
        self.cursors[rows] = start + n
        starts = start.tolist()
        if not starts:
            return np.empty((0, n))
        if min(starts) == max(starts) and starts[0] + n <= self.width:
            return self.doubles[rows, starts[0]:starts[0] + n]
        out = np.empty((len(rows), n))
        for row, r, s in zip(out, rows.tolist(), starts):
            inside = min(n, max(0, self.width - s))
            row[:inside] = self.doubles[r, s:s + inside]
            if inside < n:
                self.rngs[r].random(out=row[inside:])
        return out


def uniform(low: float, high: float, u: np.ndarray) -> np.ndarray:
    """Generator.uniform(low, high) of the doubles ``u``, bit for bit: numpy
    draws low + (high - low) * u."""
    return low + (high - low) * u


def as_complex_array(data, what: str = "array") -> np.ndarray:
    arr = np.array(data, dtype=complex)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise GeometryError(f"{what}: non-finite entries")
    return arr


def equal_up_to_scale(v, w, tol: float = DEFAULT_TOL) -> bool:
    """Scale-free equality of coordinate vectors (or flattened matrices).

    Both vectors are normalized by the coordinate at which the first one
    attains its largest magnitude, then compared with relative tolerance;
    the batch of one of equal_up_to_scale_stack.
    """
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    return v.shape == w.shape and bool(equal_up_to_scale_stack(v[None], w[None], tol)[0])


def equal_up_to_scale_stack(v: np.ndarray, w: np.ndarray,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """equal_up_to_scale applied pairwise to two stacks of equal shape:
    entry b compares v[b] with w[b], each flattened."""
    v = v.reshape(len(v), -1)
    w = w.reshape(len(w), -1)
    av, aw = np.abs(v), np.abs(w)
    k = np.argmax(av, axis=1)[:, None]
    vk, wk = np.take_along_axis(v, k, 1), np.take_along_axis(w, k, 1)
    wmax = np.max(aw, axis=1)
    ok = (np.abs(vk[:, 0]) != 0.0) & (wmax != 0.0) & ~(np.abs(wk[:, 0]) < 0.5 * wmax)
    # a pair that is not ok may divide by a zero or subnormal coordinate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vn, wn = v / vk, w / wk
        dev = np.max(np.abs(vn - wn), axis=1)
        return ok & (dev <= tol * np.maximum(1.0, np.max(np.abs(vn), axis=1)))


# -- stacked counterparts of scalar steps, bit for bit -------------------------
#
# numpy's complex array multiply and absolute value round differently from
# the same operations on one numpy or Python complex scalar (the array loops
# may fuse multiply-adds), and Python's complex division rounds differently
# from numpy's, so code that works on stacks and must give the bits of a
# scalar computation uses these.  numpy's division, addition and subtraction
# agree between arrays and scalars already.


def complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, rounded as for complex scalars: each part is two
    float products and one sum."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def complex_abs(z: np.ndarray) -> np.ndarray:
    """abs() of each entry, as for a complex scalar."""
    return np.hypot(z.real, z.imag)


def times_i(x: np.ndarray) -> np.ndarray:
    """1j * x for real x, as Python takes it: the float becomes the complex
    (x, 0.0), so the parts are 0.0 * x - 0.0 = 0.0 * x and 0.0 + x."""
    out = (0.0 * x).astype(complex)
    out.imag = 0.0 + x
    return out


def complex_quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b elementwise, rounded as for Python complex scalars, whose
    division scales by the larger part of b and divides where numpy
    multiplies by a reciprocal.  b must have no zero entry."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        out = (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom).astype(complex)
        out.imag = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return out


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[..., :] @ y[..., :] for each pair of rows, as ``@`` of two 1-d
    arrays gives it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def row_norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex stack, as for a 1-d array."""
    return np.sqrt(row_dot(x.real, x.real) + row_dot(x.imag, x.imag))


def proportionality(a, b):
    """Best least-squares factor mu with a ~ mu*b plus the relative
    residual; the batch of one of proportionality_stack."""
    mu, resid = proportionality_stack(np.asarray(a)[None], b)
    return mu[0], float(resid[0])


def proportionality_stack(a: np.ndarray, b):
    """proportionality(a[k], b) for each array of a stack ``a`` against one
    array ``b``: the (B,) factors and the (B,) residuals.  A zero ``b``
    gives factor 0 and residual inf, a zero a[k] residual 0."""
    a = np.ascontiguousarray(a, dtype=complex).reshape(len(a), -1)
    b = np.asarray(b, dtype=complex).ravel()
    denom = np.vdot(b, b)
    if abs(denom) == 0.0:
        return np.zeros(len(a), dtype=complex), np.full(len(a), np.inf)
    # each row over the power of two of its largest magnitude, so the norms
    # of tiny rows do not underflow to 0; the scaling is exact
    _, exponent = np.frexp(np.max(np.abs(a), axis=1, initial=0.0))
    a = _ldexp_rows(a, -exponent)
    mu = row_dot(np.conj(b), a) / denom
    scale = row_norm(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = row_norm(a - mu[:, None] * b) / scale
    return _ldexp_rows(mu[:, None], exponent)[:, 0], np.where(scale == 0.0, 0.0, resid)


def _ldexp_rows(x: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Each row k of a contiguous (B, m) complex stack times 2**exponent[k]."""
    return np.ldexp(x.view(np.float64), exponent[:, None]).view(complex)


def normalize_leading(v) -> np.ndarray:
    """Projective normal form: divide by the largest-magnitude coordinate;
    the batch of one of normalize_leading_stack."""
    v = np.asarray(v, dtype=complex)
    if not v.any():
        raise GeometryError("cannot normalize the zero vector")
    return normalize_leading_stack(v[None])[0]


def normalize_leading_stack(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) of a stack divided by its largest-magnitude
    entry; a zero row comes back NaN."""
    k = np.argmax(np.abs(rows), axis=-1)[..., None]
    return rows / np.take_along_axis(rows, k, -1)


def lex_key(v) -> tuple:
    """Deterministic ordering key on projective vectors (normalized, then
    lexicographic on interleaved real/imaginary parts, rounded to kill
    noise in the last bits)."""
    vn = normalize_leading(v)
    parts = []
    for z in vn:
        parts.append(round(float(z.real), 9))
        parts.append(round(float(z.imag), 9))
    return tuple(parts)


def orthogonal_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar-uniform samples from O(n), one per (n, n) matrix of standard
    normal draws in the stack ``g``: QR with the signs of R's diagonal
    moved into Q (both components, so reflections occur with probability
    1/2 for n >= 1)."""
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0, 1.0, d)
    return q * d[..., None, :]


@functools.cache
def _pade_kernel():
    """scipy's compiled Pade kernel for expm (the extension
    scipy.linalg._matfuncs_expm), loaded from its file so that the
    scipy.linalg package is not imported, or None where it does not load
    or lacks either function scipy.linalg.expm calls."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_matfuncs_expm" + suffix)
            if os.path.isfile(path):
                ext = importlib.util.spec_from_file_location("scipy.linalg._matfuncs_expm", path)
                try:
                    kernel = importlib.util.module_from_spec(ext)
                    ext.loader.exec_module(kernel)
                except ImportError:
                    return None
                found = hasattr(kernel, "pick_pade_structure") and hasattr(kernel, "pade_UV_calc")
                return kernel if found else None
    return None


def expm_stack(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of each (n, n) matrix of the (B, n, n) stack ``a``,
    bit for bit.

    The scaling-and-squaring algorithm of Al-Mohy and Higham (SIAM J.
    Matrix Anal. Appl. 31(3), 2009) runs as scipy's own generic branch
    does: its compiled Pade kernel picks the order m and the number s of
    squarings, evaluates the approximant, and numpy squares it s times.
    A float64 or complex128 stack whose every matrix has a nonzero entry
    both below and above the diagonal takes that path; any other stack,
    or any stack where the kernel does not load, goes to
    scipy.linalg.expm whole, which has branches of its own for diagonal
    and triangular matrices.
    """
    kernel = _pade_kernel()
    general = (np.tril(a, -1).any(axis=(1, 2)) & np.triu(a, 1).any(axis=(1, 2))).all()
    if kernel is None or a.dtype not in (np.float64, np.complex128) or not general:
        from scipy.linalg import expm

        return expm(a)
    out = np.empty_like(a)
    work = np.empty((5,) + a.shape[1:], dtype=a.dtype)  # the powers the kernel uses
    for k, matrix in enumerate(a):
        work[0] = matrix
        m, s = kernel.pick_pade_structure(work)
        if m < 0:
            raise MemoryError(f"expm: the Pade kernel could not allocate (code {m})")
        info = kernel.pade_UV_calc(work, m)
        if info != 0:
            if info <= -11:
                raise MemoryError(f"expm: the Pade kernel could not allocate (code {info})")
            raise RuntimeError(f"expm: internal LAPACK error in the Pade kernel (code {info})")
        e = work[0]
        for _ in range(s):
            e = e @ e
        out[k] = e
    return out


def indefinite_orthogonal_stack(normals: np.ndarray, flips: np.ndarray, p: int) -> np.ndarray:
    """Samples from O(p, q), one per (n, n) matrix of standard normal draws
    in the stack ``normals`` (n = p + q): exp(G A), with A the
    antisymmetric part of the draws scaled to norm 0.8, lands in the
    identity component.  Where the (B, 2) mask ``flips`` is set, the sign
    of the first (column 0) or the last (column 1) coordinate is flipped
    after, which reaches the other components."""
    n = normals.shape[-1]
    a = (normals - normals.transpose(0, 2, 1)) / 2.0
    flat = a.reshape(len(a), n * n)
    nrm = np.sqrt(row_dot(flat, flat))
    a = a * np.divide(0.8, nrm, out=np.ones_like(nrm), where=nrm > 0)[:, None, None]
    g = np.diag(np.concatenate([np.ones(p), -np.ones(n - p)]))
    m = expm_stack(g @ a)
    for k, i in enumerate((0, n - 1)):
        flip = np.eye(n)
        flip[i, i] = -1.0
        m[flips[:, k]] = m[flips[:, k]] @ flip
    return m


def sample_form_preserving(qmat: np.ndarray, seed: int,
                           fixing: np.ndarray | None = None) -> np.ndarray:
    """Random M with M^T Q M = Q for a complex symmetric nondegenerate Q.

    M is the Cayley transform (I - X/2)^-1 (I + X/2) of X = Q^-1 A, which
    lies in the Lie algebra of the group of Q for any antisymmetric A, here
    a complex one of Frobenius norm 0.8 and Q scaled to largest entry 1 (so
    M depends on Q only up to scale); it is (Q - A/2)^-1 (Q + A/2).  With
    ``fixing`` given (a non-isotropic vector a), A is first replaced by
    P^T A P for the orthogonal projector P = I - a a^H / (a^H a), bounded
    however close a is to the isotropic cone, so that X a = 0 and M fixes
    a: M samples the stabilizer of a inside the orthogonal group of Q.
    """
    qmat = np.asarray(qmat, dtype=complex)
    n = qmat.shape[0]
    rng = rng_from(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (g - g.T) / 2.0
    nrm = np.linalg.norm(a)
    if nrm > 0:
        a *= 0.8 / nrm
    if fixing is not None:
        v = np.asarray(fixing, dtype=complex)
        isotropic = abs(v @ qmat @ v) < 1e-12 * np.linalg.norm(v) ** 2 * np.linalg.norm(qmat)
        if isotropic or not v.any():
            raise GeometryError("fixed vector is isotropic for the form")
    if not np.linalg.cond(qmat) < 1e10:
        raise GeometryError("form is (numerically) degenerate")
    qmat = qmat / np.max(np.abs(qmat))
    if fixing is not None:
        p = np.eye(n) - np.outer(v, v.conj()) / np.vdot(v, v)
        a = p.T @ a @ p
    return np.linalg.solve(qmat - a / 2, qmat + a / 2)
