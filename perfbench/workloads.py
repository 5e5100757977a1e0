"""The benchmark's workloads: library cells, the CLI tour, inputs and checks.

Every workload runs two kinds of operation over fixed cells:

* library calls: ``check_group_axioms``, ``invariance_test`` and
  ``orbit_sample`` on a prepared group (and property), timed in process;
* CLI invocations: a fresh ``python -m erlangen.cli`` process per verb,
  timed from spawn to exit.

All inputs (trial seeds, orbit configurations, CLI arguments) derive from
the run seed through ``derive``, so the same seed gives the same inputs.
Each operation's output is checked: its verdict class (any seed) and, on
the default seed, a digest of its bytes against ``reference.json``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

def derive(seed: int, *parts) -> int:
    """A 63-bit seed for one input, from the run seed and a label."""
    digest = hashlib.blake2b(repr((seed,) + parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# -- library cells -------------------------------------------------------------


@dataclass(frozen=True)
class LibJob:
    """One library call.  ``expect`` is the verdict class for axioms
    ("ok") and invariance ("invariant" / "violated"), and the orbit
    configuration shape for orbits."""

    kind: str  # "axioms" | "invariance" | "orbit"
    group: str
    trials: int  # trials, or orbit images
    expect: str = "ok"
    prop: Optional[str] = None
    dimension: int = 2

    @property
    def name(self) -> str:
        what = self.prop if self.kind == "invariance" else self.expect
        return f"{self.kind}:{self.group}:{what}:d{self.dimension}"


def _axioms(group, trials=40, dimension=2):
    return LibJob("axioms", group, trials, dimension=dimension)


def _inv(group, prop, expect="invariant", trials=60, dimension=2):
    return LibJob("invariance", group, trials, expect, prop, dimension)


def _orbit(group, shape, count=40):
    return LibJob("orbit", group, count, shape)


PROJECTIVE_LIB = (
    _axioms("euclidean_isometries"),
    _axioms("principal"),
    _axioms("affine"),
    _axioms("projective"),
    _inv("euclidean_isometries", "euclidean-distance"),
    _inv("principal", "angle"),
    _inv("affine", "cross-ratio"),
    _inv("projective", "cross-ratio"),
    _inv("projective", "incidence"),
    _inv("affine", "collinearity"),
    _inv("projective", "collinearity"),
    _inv("affine", "collinearity", dimension=3),
    _inv("projective", "cross-ratio", dimension=3),
    _inv("affine", "euclidean-distance", "violated"),
    _inv("projective", "angle", "violated"),
    _orbit("euclidean_isometries", "triangle"),
    _orbit("principal", "triangle"),
    _orbit("affine", "collinear3"),
    _orbit("projective", "collinear4"),
)

CIRCLE_LIB = (
    _axioms("moebius"),
    _axioms("inversive_pentaspherical"),
    _axioms("lie_sphere_extended"),
    _inv("moebius", "tangency"),
    _inv("inversive_pentaspherical", "tangency"),
    _orbit("moebius", "circle"),
    _orbit("inversive_pentaspherical", "circle"),
)


# -- the CLI tour --------------------------------------------------------------


@dataclass(frozen=True)
class CliStep:
    """One CLI invocation: ``args(rng, tour)`` builds the argument list
    after the verb, ``expect(tour)`` gives (exit code, trailer verdict);
    ``lib`` is the same cell as a library call, for randomized verbs."""

    verb: str
    args: Callable
    expect: Callable
    lib: Optional[LibJob] = None


def _xy(rng, r):
    """A point drawn uniformly from the disk of radius r."""
    rho, phi = r * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
    return rho * math.cos(phi), rho * math.sin(phi)


def _fmt(*vals) -> str:
    return ",".join(f"{v:.6f}" for v in vals)


def _randomized(job: LibJob):
    """Arguments of the CLI invocation that runs ``job``."""
    def args(rng, _tour):
        out = ["--group", job.group]
        if job.kind == "invariance":
            out += ["--property", job.prop, f"--trials={job.trials}"]
        elif job.kind == "axioms":
            out += [f"--trials={job.trials}"]
        else:
            flag = "--circle" if job.expect == "circle" else "--point"
            out += [f"{flag}={_orbit_arg(rng, job.expect)}", f"--count={job.trials}"]
        return out + [f"--seed={rng.getrandbits(63)}"]
    return args


def _orbit_arg(rng, shape):
    if shape == "circle":
        return _fmt(*_xy(rng, 1.0), rng.uniform(0.3, 1.2))
    return _fmt(*_xy(rng, 1.0))


def _step(job: LibJob, code: int, verdict: str) -> CliStep:
    verb = {"invariance": "check-invariance", "axioms": "axioms", "orbit": "orbit"}[job.kind]
    return CliStep(verb, _randomized(job), lambda _t: (code, verdict), job)


_TRANSFER_KINDS = ("pluecker", "stereographic", "inverse-stereographic", "circle-coords")
_CONTACT_MAPS = (("legendre", 0, "contact"), ("swap-zp", 1, "not-contact"),
                 ("prolonged-shear", 0, "contact"), ("prolonged-quadratic", 0, "contact"))


def _distance_args(rng, _tour):
    return ["--metric", "klein-disk", f"--p={_fmt(*_xy(rng, 0.8))}",
            f"--q={_fmt(*_xy(rng, 0.8))}"]


def _transfer_args(rng, tour):
    kind = _TRANSFER_KINDS[tour % len(_TRANSFER_KINDS)]
    if kind == "pluecker":
        a = [rng.uniform(-1, 1) for _ in range(4)]
        b = [rng.uniform(-1, 1) for _ in range(4)]
        return ["--kind", kind, f"--a={_fmt(*a)}", f"--b={_fmt(*b)}"]
    if kind == "stereographic":
        while True:
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = math.sqrt(sum(x * x for x in v))
            if n > 0.1 and v[2] / n < 0.9:
                break
        return ["--kind", kind, "--point=" + ",".join(repr(x / n) for x in v)]
    if kind == "inverse-stereographic":
        return ["--kind", kind, f"--z={_fmt(*_xy(rng, 2.0))}"]
    return ["--kind", kind, f"--center={_fmt(*_xy(rng, 1.0))}",
            f"--radius={rng.uniform(0.2, 2.0):.6f}"]


def _covariants_args(rng, tour):
    degree = 3 if tour % 2 == 0 else 4
    coeffs = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))]
    coeffs += [rng.randint(-4, 4) for _ in range(degree)]
    return ["--coeffs=" + ",".join(str(c) for c in coeffs)]


def _contact_args(rng, tour):
    name = _CONTACT_MAPS[tour % len(_CONTACT_MAPS)][0]
    return ["--map", name, "--samples=20", f"--seed={rng.getrandbits(63)}"]


def _contact_expect(tour):
    return _CONTACT_MAPS[tour % len(_CONTACT_MAPS)][1:]


def _ok(verdict):
    return lambda _tour: (0, verdict)


# Light verbs first, then the randomized ones.  Two heavy invocations
# (the 5- and 4-variable axiom checks, which load scipy for expm) make
# 2 of every 12 walls, so the 90th percentile falls inside that group.
CLI_TOUR = (
    CliStep("distance", _distance_args, _ok("distance")),
    CliStep("transfer", _transfer_args, _ok("transfer")),
    CliStep("covariants", _covariants_args, _ok("covariants")),
    CliStep("contact-check", _contact_args, _contact_expect),
    _step(_orbit("projective", "point", 8), 0, "orbit"),
    _step(_orbit("moebius", "circle", 8), 0, "orbit"),
    _step(_inv("projective", "cross-ratio", trials=100), 0, "invariant"),
    _step(_inv("moebius", "tangency", trials=100), 0, "invariant"),
    _step(_inv("affine", "euclidean-distance", "violated", trials=100), 1, "violated"),
    _step(_axioms("principal", 50), 0, "axioms-ok"),
    _step(_axioms("lie_sphere_extended", 50), 0, "axioms-ok"),
    _step(_axioms("inversive_pentaspherical", 50), 0, "axioms-ok"),
)

CLI_VERBS = ("check-invariance", "axioms", "distance", "transfer", "covariants",
             "contact-check", "orbit")


def cli_argv(seed: int, tour: int, index: int) -> list:
    step = CLI_TOUR[index]
    rng = random.Random(derive(seed, "cli", tour, index))
    return [step.verb] + step.args(rng, tour)


@dataclass(frozen=True)
class Workload:
    lib: tuple
    cli_share: float  # target share of measured time spent in CLI tours


WORKLOADS = {
    # small matrices: per-object validation and LAPACK call overhead bound
    # the trial loops
    "projective-trials": Workload(PROJECTIVE_LIB, 0.7),
    # scipy expm and scalar Moebius arithmetic dominate sampling; the
    # control for projective-path changes
    "circle-trials": Workload(CIRCLE_LIB, 0.7),
    # fresh processes: interpreter start, imports, argparse and report
    # serialization count; the library side runs the tour's own cells
    "cli-verbs": Workload(tuple(s.lib for s in CLI_TOUR if s.lib is not None), 0.6),
}


# -- preparing and running library calls --------------------------------------


@dataclass
class Prepared:
    job: LibJob
    group: object
    prop: object


def setup(workload: str) -> list:
    """Import erlangen, build each job's group and property, and run a
    warm-up pass of every job so lazy imports (scipy for expm) are done."""
    from erlangen import builtin_group, builtin_property

    prepared = [Prepared(job, builtin_group(job.group, job.dimension),
                         builtin_property(job.prop, job.dimension) if job.prop else None)
                for job in WORKLOADS[workload].lib]
    for p in prepared:
        call(p.job, p.group, p.prop, derive(0, "warm-up", p.job.name),
             orbit_config(p.job, 0), trials=2)
    return prepared


def orbit_config(job: LibJob, seed: int):
    """The configuration an orbit job moves, or None for other jobs."""
    if job.kind != "orbit":
        return None
    from erlangen import Configuration, ProjPoint
    from erlangen.moebius import circle_quadric

    rng = np.random.default_rng(derive(seed, "config", job.name))
    shape = job.expect
    if shape == "circle":
        c = rng.uniform(-1, 1, 2)
        return Configuration([circle_quadric(complex(c[0], c[1]), rng.uniform(0.3, 1.2))])
    if shape == "point":
        return Configuration([ProjPoint(list(rng.uniform(-1, 1, 2)) + [1.0])])
    if shape == "triangle":
        while True:
            pts = rng.uniform(-1, 1, (3, 2))
            if min(np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))) > 0.1:
                break
    else:
        n = 3 if shape == "collinear3" else 4
        base, direction = rng.uniform(-1, 1, 2), rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        ts = np.array([-1.5, -0.5, 0.5, 1.5][:n]) + rng.uniform(-0.3, 0.3, n)
        pts = base + ts[:, None] * direction
    return Configuration([ProjPoint(list(p) + [1.0]) for p in pts])


def call(job: LibJob, group, prop, seed: int, config, trials: Optional[int] = None):
    """The library call itself, looked up on ``erlangen.groups`` at call
    time so a traced rebinding takes effect."""
    from erlangen import groups

    n = job.trials if trials is None else trials
    if job.kind == "axioms":
        return groups.check_group_axioms(group, seed=seed, trials=n)
    if job.kind == "invariance":
        return groups.invariance_test(prop.evaluate, group, prop.sample_config,
                                      seed=seed, trials=n)
    return groups.orbit_sample(config, group, seed=seed, count=n)


def check(job: LibJob, result, config):
    """(problem or None, digest of the output bytes)."""
    from erlangen import reports
    from erlangen.groups import Invariant, Violated

    if job.kind == "orbit":
        if len(result) != job.trials:
            return f"{len(result)} images, expected {job.trials}", ""
        blobs = []
        for image in result:
            problem = _orbit_problem(job, config, image)
            if problem:
                return problem, ""
            for e in image:
                arr = getattr(e, "coords", None)
                blobs.append(np.ascontiguousarray(e.matrix if arr is None else arr).tobytes())
        return None, sha(b"".join(blobs))
    text = reports.serialize_report(result).encode()
    if job.kind == "axioms":
        ok = result.ok and result.trials == job.trials
    else:
        ok = isinstance(result, Invariant if job.expect == "invariant" else Violated)
    return (None if ok else f"verdict {type(result).__name__}, expected {job.expect}"), sha(text)


def _affine_points(config):
    return [(v[:-1] / v[-1]).real for v in (np.asarray(p.coords, dtype=complex) for p in config)]


def _close(a, b, tol=1e-7):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _orbit_problem(job: LibJob, config, image) -> Optional[str]:
    """Independent check that an orbit image is what the group allows."""
    shape = job.expect
    if shape == "circle":
        m = np.asarray(image[0].matrix, dtype=complex)
        m = m / m.flat[np.argmax(np.abs(m))]
        if np.max(np.abs(m.imag)) > 1e-7 or abs(m[0, 0] - m[1, 1]) > 1e-7 \
                or abs(m[0, 1]) > 1e-7:
            return "circle image is not a real circle"
        m = m.real
        # A(x^2 + y^2) - 2ax - 2by + C = 0 has real points iff a^2 + b^2 > AC
        if m[0, 2] ** 2 + m[1, 2] ** 2 - m[0, 0] * m[2, 2] <= 0:
            return "circle image has no real points"
        return None
    if shape == "collinear4":
        return None if _close(_cross_ratio(config), _cross_ratio(image)) \
            else "cross-ratio not preserved"
    if shape == "point":  # a projective image may lie at infinity
        v = np.asarray(image[0].coords)
        return None if np.all(np.isfinite(v)) and np.any(v != 0) else "bad point"
    # the remaining groups are affine, so images stay finite
    before, after = _affine_points(config), _affine_points(image)
    if shape == "triangle":
        d0 = [np.linalg.norm(before[i] - before[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        d1 = [np.linalg.norm(after[i] - after[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        if job.group == "euclidean_isometries":
            ok = all(_close(a, b) for a, b in zip(d0, d1))
        else:
            ok = _close(d0[0] / d0[2], d1[0] / d1[2]) and _close(d0[1] / d0[2], d1[1] / d1[2])
        return None if ok else "triangle shape not preserved"
    if shape == "collinear3":
        ratio = [np.dot(p[2] - p[0], p[1] - p[0]) / np.dot(p[1] - p[0], p[1] - p[0])
                 for p in (before, after)]
    return None if _close(*ratio) else "affine ratio not preserved"


def _cross_ratio(config):
    """(p0, p1; p2, p3) of four collinear points, from homogeneous
    coordinates, so a point at infinity is no special case."""
    p = [np.asarray(e.coords, dtype=complex) for e in config]
    # any point off the line serves as the centre of the brackets
    o = max(np.eye(3), key=lambda e: abs(np.linalg.det(np.array([p[0], p[1], e]))))

    def br(i, j):
        return np.linalg.det(np.array([p[i], p[j], o]))

    return br(0, 2) * br(1, 3) / (br(1, 2) * br(0, 3))
