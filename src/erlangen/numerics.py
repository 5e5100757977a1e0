"""Shared numeric helpers: seeding, scale-free comparisons, matrix sampling.

Scalars throughout the package are complex floats.  Constructors reject
non-finite values; all geometric comparisons are scale-free (projective)
and use explicit tolerances -- there is no ambient global state.
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
    in the package: trial k of a run seeded with s uses mix_seed(s, k).
    """
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def rng_from(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed) & MASK64))


def ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr.view(np.float64) if arr.dtype == complex else arr)):
        raise GeometryError(f"{what}: non-finite entries")
    return arr


def as_complex_array(data, what: str = "array") -> np.ndarray:
    arr = np.array(data, dtype=complex)
    return ensure_finite(arr, what)


def equal_up_to_scale(v, w, tol: float = DEFAULT_TOL) -> bool:
    """Scale-free equality of coordinate vectors (or flattened matrices).

    Both vectors are normalized by the coordinate at which the first one
    attains its largest magnitude, then compared with relative tolerance.
    """
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    if v.shape != w.shape:
        return False
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) == 0.0:
        return False
    wmax = float(np.max(np.abs(w)))
    if wmax == 0.0 or abs(w[k]) < 0.5 * wmax:
        return False
    vn = v / v[k]
    wn = w / w[k]
    return float(np.max(np.abs(vn - wn))) <= tol * max(1.0, float(np.max(np.abs(vn))))


def equal_up_to_scale_stack(v: np.ndarray, w: np.ndarray,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """equal_up_to_scale applied pairwise to two stacks of equal shape:
    entry b compares v[b] with w[b], each flattened, and gives the same
    verdict."""
    v = v.reshape(len(v), -1)
    w = w.reshape(len(w), -1)
    av, aw = np.abs(v), np.abs(w)
    k = np.argmax(av, axis=1)[:, None]
    vk, wk = np.take_along_axis(v, k, 1), np.take_along_axis(w, k, 1)
    wmax = np.max(aw, axis=1)
    ok = (np.abs(vk[:, 0]) != 0.0) & (wmax != 0.0) & ~(np.abs(wk[:, 0]) < 0.5 * wmax)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    """Best least-squares factor mu with a ~ mu*b plus the relative residual."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    denom = np.vdot(b, b)
    if abs(denom) == 0.0:
        return 0.0 + 0.0j, np.inf
    mu = np.vdot(b, a) / denom
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return mu, 0.0
    resid = np.linalg.norm(a - mu * b) / scale
    return mu, float(resid)


def proportionality_stack(a: np.ndarray, b) -> np.ndarray:
    """The residuals proportionality(a[k], b) gives, for each array of a
    stack ``a`` against one array ``b``, as a (B,) array."""
    a = a.reshape(len(a), -1)
    b = np.asarray(b, dtype=complex).ravel()
    denom = np.vdot(b, b)
    if abs(denom) == 0.0:
        return np.full(len(a), np.inf)
    mu = row_dot(np.conj(b), a) / denom
    scale = row_norm(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = row_norm(a - mu[:, None] * b) / scale
    return np.where(scale == 0.0, 0.0, resid)


def normalize_leading(v) -> np.ndarray:
    """Projective normal form: divide by the largest-magnitude coordinate."""
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / v[k]


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


def random_antisymmetric(rng: np.random.Generator, n: int, scale: float = 0.8,
                         complex_entries: bool = False) -> np.ndarray:
    if complex_entries:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    else:
        g = rng.normal(size=(n, n))
    a = (g - g.T) / 2.0
    nrm = np.linalg.norm(a)
    if nrm > 0:
        a *= scale / nrm
    return a


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
    flat = a.reshape(len(a), -1)
    nrm = np.sqrt(row_dot(flat, flat))
    a = a * np.divide(0.8, nrm, out=np.ones_like(nrm), where=nrm > 0)[:, None, None]
    g = np.diag(np.concatenate([np.ones(p), -np.ones(n - p)]))
    m = expm_stack(g @ a)
    for k, i in enumerate((0, n - 1)):
        flip = np.eye(n)
        flip[i, i] = -1.0
        m[flips[:, k]] = m[flips[:, k]] @ flip
    return m


def _form_orthonormal_completion(qmat: np.ndarray, basis: list, message: str) -> np.ndarray:
    """The form-orthonormal vectors ``basis`` completed to a basis B with
    B^T Q B = I, for a nondegenerate complex symmetric Q.

    Gram-Schmidt with respect to the bilinear (not Hermitian) form, with
    pivoting on the largest self-pairing to dodge isotropic directions;
    raises GeometryError(message) when no candidate is left that pairs
    with itself.
    """
    n = qmat.shape[0]
    cands = [np.eye(n, dtype=complex)[:, k] for k in range(n)]
    # mixing combinations rescues bases whose vectors are all isotropic
    for k in range(n):
        for j in range(k + 1, n):
            cands.append((cands[k] + cands[j]) / np.sqrt(2))
    while len(basis) < n:
        best, best_val = None, -1.0
        for v in cands:
            for b in basis:
                v = v - (b @ qmat @ v) * b
            nv = np.linalg.norm(v)
            val = abs(v @ qmat @ v) / nv**2 if nv > 1e-12 else -1.0
            if val > best_val:
                best, best_val = v, val
        if best is None or best_val < 1e-10:
            raise GeometryError(message)
        basis.append(best / np.sqrt(complex(best @ qmat @ best)))
    return np.column_stack(basis)


def symmetric_gram_basis(qmat: np.ndarray) -> np.ndarray:
    """Basis B with B^T Q B = I for a nondegenerate complex symmetric Q."""
    return _form_orthonormal_completion(np.asarray(qmat, dtype=complex), [],
                                        "form is (numerically) degenerate")


def sample_form_preserving(qmat: np.ndarray, seed: int,
                           fixing: np.ndarray | None = None) -> np.ndarray:
    """Random M with M^T Q M = Q for a complex symmetric nondegenerate Q.

    With ``fixing`` given (a non-isotropic vector a), M additionally fixes
    a up to sign, i.e. it samples the stabilizer of [a] inside the
    orthogonal group of Q.
    """
    qmat = np.asarray(qmat, dtype=complex)
    n = qmat.shape[0]
    rng = rng_from(seed)
    if fixing is None:
        b = symmetric_gram_basis(qmat)
        o = _complex_orthogonal(rng, n)
        return b @ o @ np.linalg.inv(b)
    a = np.asarray(fixing, dtype=complex)
    qa = complex(a @ qmat @ a)
    if abs(qa) < 1e-12 * np.linalg.norm(a) ** 2 * np.linalg.norm(qmat):
        raise GeometryError("fixed vector is isotropic for the form")
    # a form-orthonormal basis whose first vector is a
    b = _form_orthonormal_completion(qmat, [a / np.sqrt(qa)],
                                     "could not complete a form-orthonormal basis")
    block = np.zeros((n, n), dtype=complex)
    block[0, 0] = 1.0
    block[1:, 1:] = _complex_orthogonal(rng, n - 1)
    return b @ block @ np.linalg.inv(b)


def _complex_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    return expm_stack(random_antisymmetric(rng, n, complex_entries=True)[None])[0]
