"""The built-in samplers on uniform windows, against the per-generator draws
they replaced, bit for bit: every property sampler and the projective
group's matrices, on blocks of 0 to 64 seeds, with windows wide enough, run
out, or empty (draw(rng)); the one generator call per trial that a window
takes; and the empty blocks of every built-in sampler and group."""

import numpy as np
import pytest

from erlangen import groups, numerics, properties
from erlangen.groups import BUILTIN_GROUP_NAMES, builtin_group
from erlangen.numerics import mix_seed, rng_from
from erlangen.properties import Sampler, WindowSampler, builtin_property


# -- the per-generator draws, as they were -------------------------------------

_NO_ROWS = np.empty((0, 0))
_NO_QUADRICS = np.empty((0, 0, 0))


def _homogeneous(coords):
    out = np.ones(coords.shape[:-1] + (coords.shape[-1] + 1,))
    out[..., :-1] = coords
    return out


def points_draw(count, dimension):
    def draw(rng):
        return _homogeneous(rng.uniform(-1, 1, (count, dimension))), _NO_ROWS, _NO_QUADRICS
    return draw


def collinear_quadruple_draw(dimension):
    def draw(rng):
        base, direction = rng.uniform(-1, 1, (2, dimension))
        direction /= np.sqrt(direction.dot(direction))
        while True:
            ts = rng.uniform(-2, 2, 4)
            t = sorted(ts.tolist())
            if min(t[1] - t[0], t[2] - t[1], t[3] - t[2]) > 0.05:
                break
        return _homogeneous(base + ts[:, None] * direction), _NO_ROWS, _NO_QUADRICS
    return draw


def incidence_draw(dimension):
    def draw(rng):
        coeffs = rng.uniform(-1, 1, dimension + 1)
        if rng.random() < 0.5:
            basis = np.eye(dimension + 1)
            k = int(np.argmax(np.abs(coeffs)))
            vecs = [basis[:, i] - (coeffs[i] / coeffs[k]) * basis[:, k]
                    for i in range(dimension + 1) if i != k]
            weights = rng.uniform(-1, 1, len(vecs))
            pt = sum(w * v for w, v in zip(weights, vecs))
        else:
            pt = _homogeneous(rng.uniform(-1, 1, dimension))
        return pt[None], coeffs[None], _NO_QUADRICS
    return draw


def circle_matrix(center, radius):
    a, b = center.real, center.imag
    cc = a * a + b * b - radius * radius
    return np.array([[1.0, 0.0, -a], [0.0, 1.0, -b], [-a, -b, cc]], dtype=complex)


def circle_pair_draw(rng):
    c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    r1 = rng.uniform(0.3, 1.2)
    if rng.random() < 0.5:
        theta = rng.uniform(0, 2 * np.pi)
        r2 = rng.uniform(0.3, 1.2)
        c2 = c1 + (r1 + r2) * np.exp(1j * theta)
    else:
        while True:
            c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r2 = rng.uniform(0.3, 1.2)
            d = abs(c2 - c1)
            if min(abs(d - (r1 + r2)), abs(d - abs(r1 - r2))) > 0.05:
                break
    return _NO_ROWS, _NO_ROWS, [circle_matrix(complex(c1), r1), circle_matrix(complex(c2), r2)]


def triple_maybe_collinear_draw(dimension):
    def draw(rng):
        if rng.random() < 0.5:
            base, direction = rng.uniform(-1, 1, (2, dimension))
            ts = rng.uniform(-1.5, 1.5, 2)
            pts = np.array([base, base + ts[0] * direction, base + ts[1] * direction])
        else:
            pts = rng.uniform(-1, 1, (3, dimension))
        return _homogeneous(pts), _NO_ROWS, _NO_QUADRICS
    return draw


def disk_pair_draw(rng):
    pts = []
    while len(pts) < 2:
        p = rng.uniform(-1, 1, 2)
        if np.linalg.norm(p) < 0.9:
            pts.append(p)
    return _homogeneous(np.array(pts)), _NO_ROWS, _NO_QUADRICS


def projective_draw(dimension):
    def draw(rng):
        while True:
            m = rng.uniform(-1.0, 1.0, size=(dimension + 1, dimension + 1))
            if np.linalg.cond(m[None])[0] < 50.0:
                return m.astype(complex)
    return draw


#: (property, dimension, metric) of every built-in sampler, with its
#: per-generator draw
SAMPLERS = (
    [(("euclidean-distance", d, None), points_draw(2, d)) for d in (1, 2, 3)]
    + [(("angle", d, None), points_draw(3, d)) for d in (1, 2, 3)]
    + [(("cross-ratio", d, None), collinear_quadruple_draw(d)) for d in (1, 2, 3)]
    + [(("incidence", d, None), incidence_draw(d)) for d in (1, 2, 3)]
    + [(("tangency", 2, None), circle_pair_draw)]
    + [(("collinearity", d, None), triple_maybe_collinear_draw(d)) for d in (2, 3)]
    + [(("ck-distance", 2, "klein-disk"), disk_pair_draw),
       (("ck-distance", 2, "elliptic"), points_draw(2, 2))])
IDS = [f"{name}-{d}" + (f"-{metric}" if metric else "") for (name, d, metric), _ in SAMPLERS]

EDGE_SEEDS = [0, 1, -1, 2**63, 2**64 - 1]
SEEDS = EDGE_SEEDS + [int(s) for s in rng_from(11).integers(0, 2**64, 1000, dtype=np.uint64)]


def _blocks():
    """Consecutive blocks of SEEDS, cycled, of every size from 0 to 64."""
    seeds = SEEDS * 3
    start = 0
    for size in range(65):
        yield seeds[start:start + size]
        start += size


def _bytes(stacks):
    return [(x.dtype, x.shape, x.tobytes()) for x in stacks]


def _assert_windows_match(sampler, reference):
    for seeds in _blocks():
        if seeds:  # an empty block knows no row counts (see test_empty_blocks_give_empty_stacks)
            assert _bytes(sampler.sample_stacks(seeds)) == _bytes(reference.sample_stacks(seeds))


@pytest.mark.parametrize("key, draw", SAMPLERS, ids=IDS)
def test_window_samplers_are_the_per_generator_draws(key, draw):
    sampler = builtin_property(*key).sample_config
    assert isinstance(sampler, WindowSampler)
    _assert_windows_match(sampler, Sampler(sampler.dimension, draw))


@pytest.mark.parametrize("key, draw", SAMPLERS, ids=IDS)
def test_window_samplers_past_their_windows(key, draw, monkeypatch):
    """Windows that hold one pass only, so every redraw reads on from the
    trial's generator."""
    monkeypatch.setattr(numerics, "WINDOW_REDRAWS", 0)
    sampler = builtin_property(*key).sample_config
    _assert_windows_match(sampler, Sampler(sampler.dimension, draw))


@pytest.mark.parametrize("key, draw", SAMPLERS, ids=IDS)
def test_window_draw_reads_its_generator_as_the_per_generator_draw(key, draw):
    """draw(rng) gives the configuration the per-generator draw gave, and
    leaves the generator where that draw left it."""
    sampler = builtin_property(*key).sample_config
    for seed in SEEDS[:300]:
        rng, ref = rng_from(seed), rng_from(seed)
        assert [np.asarray(x, dtype=complex).tobytes() for x in sampler.draw(rng)] == \
            [np.asarray(x, dtype=complex).tobytes() for x in draw(ref)]
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("redraws", [numerics.WINDOW_REDRAWS, 0])
def test_projective_matrices_are_the_per_generator_draws(dim, redraws, monkeypatch):
    monkeypatch.setattr(numerics, "WINDOW_REDRAWS", redraws)
    g = builtin_group("projective", dim)
    draw = projective_draw(dim)
    for seeds in _blocks():
        expected = np.array([draw(rng_from(s)) for s in seeds], dtype=complex).reshape(
            -1, dim + 1, dim + 1)
        assert _bytes([g.sample_matrices(seeds)]) == _bytes([expected])


def test_a_custom_sampler_reads_its_generators_from_the_start():
    """A Sampler(dimension, draw) calls draw on each trial's own generator,
    which stands at the start of its stream."""
    def draw(rng):
        return rng.random((2, 3)), np.empty((0, 3)), np.empty((0, 3, 3))

    seeds = SEEDS[:70]
    points = Sampler(2, draw).sample_stacks(seeds)[0]
    assert points.tobytes() == np.array([rng_from(s).random((2, 3)) for s in seeds],
                                        dtype=complex).tobytes()


class _Counting:
    """A generator that counts its calls and the doubles they read."""

    def __init__(self, rng):
        self.rng, self.calls, self.doubles = rng, 0, 0

    def random(self, size=None, dtype=np.float64, out=None):
        self.calls += 1
        values = self.rng.random(size, dtype, out)
        self.doubles += np.size(values)
        return values

    def uniform(self, low=0.0, high=1.0, size=None):
        self.calls += 1
        values = self.rng.uniform(low, high, size)
        self.doubles += np.size(values)
        return values


def _counting_stacks(monkeypatch, module):
    made = []

    def rng_stack(seeds):
        made[:] = [_Counting(rng) for rng in numerics.rng_stack(seeds)]
        return made
    monkeypatch.setattr(module, "rng_stack", rng_stack)
    return made


def _doubles(draw, seed):
    rng = _Counting(rng_from(seed))
    draw(rng)
    return rng.doubles


@pytest.mark.parametrize("key, draw", SAMPLERS, ids=IDS)
def test_a_window_calls_each_generator_once(key, draw, monkeypatch):
    """A trial whose draws fit its window makes one generator call; one that
    runs past it makes more."""
    sampler = builtin_property(*key).sample_config
    made = _counting_stacks(monkeypatch, properties)
    width = sampler.once + numerics.WINDOW_REDRAWS * sampler.again
    seeds = [mix_seed(5, i) for i in range(64)]
    sampler.sample_stacks(seeds)
    for seed, rng in zip(seeds, made):
        fits = _doubles(draw, seed) <= width
        assert rng.calls == 1 if fits else rng.calls > 1
        assert rng.doubles == max(width, _doubles(draw, seed))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_projective_window_calls_each_generator_once(dim, monkeypatch):
    made = _counting_stacks(monkeypatch, groups)
    seeds = [mix_seed(6, i) for i in range(64)]
    builtin_group("projective", dim).sample_matrices(seeds)
    width = (1 + numerics.WINDOW_REDRAWS) * (dim + 1) ** 2
    for seed, rng in zip(seeds, made):
        used = _doubles(projective_draw(dim), seed)
        assert rng.calls == 1 if used <= width else rng.calls > 1
        assert rng.doubles == max(width, used)


def test_empty_blocks_give_empty_stacks():
    """Every built-in sampler and group, and a custom sampler, sample an
    empty block as empty stacks of their shapes."""
    def draw(rng):
        return np.ones((2, 3)), np.empty((0, 3)), np.empty((0, 3, 3))

    assert {name for (name, _, _), _ in SAMPLERS} == set(properties.PROPERTY_NAMES)
    samplers = [builtin_property(*key).sample_config for key, _ in SAMPLERS]
    for sampler in samplers + [Sampler(2, draw)]:
        stacks = sampler.sample_stacks([])
        m = sampler.dimension + 1
        assert [(x.shape[0], x.shape[2:], x.dtype) for x in stacks] == \
            [(0, (m,), complex), (0, (m,), complex), (0, (m, m), complex)]
    for name in BUILTIN_GROUP_NAMES:
        for d in (1, 2, 3):
            try:
                g = builtin_group(name, d)
            except numerics.GeometryError:
                continue
            sampled = g.sample_matrices([])
            matrices = sampled[0] if name == "moebius" else sampled
            n = g.identity.forward.shape[0]
            assert matrices.shape == (0, n, n), name
