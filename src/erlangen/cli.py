"""Command-line front-end.

Exit codes: 0 for success and passing verdicts (invariant / contact /
axioms-ok), 1 for failing verdicts (violated / not-contact /
axioms-failed) so CI can gate on invariance, 2 for usage or
configuration errors.  Every randomized verb requires an explicit
--seed (from the flag or a --config file); identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import sys

import numpy as np

from .names import BUILTIN_GROUP_NAMES, METRIC_NAMES, PROPERTY_NAMES
from .numerics import GeometryError
from .reports import ValueReport, format_number, serialize_report

__all__ = ["main", "entrypoint", "builtin_property"]


def _deferred(name: str):
    """This package's module ``name``, entered in sys.modules now but run
    only when one of its attributes is first read (importlib's
    LazyLoader).  A verb so runs only the modules it uses, while code that
    looks the package's modules up in sys.modules, such as the span
    tracer of perfbench/, finds every one."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


(binary_forms, cayley_klein, config, contact, groups, moebius, projective, properties,
 transfers) = map(_deferred, ("binary_forms", "cayley_klein", "config", "contact", "groups",
                              "moebius", "projective", "properties", "transfers"))


# The verbs build groups and properties through these module-level names,
# which a caller may rebind around main() (perfbench/child.py wraps what
# they return to trace sampling and evaluation).
def builtin_group(name: str, dimension: int = 2):
    return groups.builtin_group(name, dimension)


def builtin_property(name: str, dimension: int = 2, metric=None):
    return properties.builtin_property(name, dimension, metric)


_CONTACT_MAPS = ("legendre", "swap-zp", "prolonged-shear", "prolonged-quadratic")

#: flags whose value is a comma-separated list of numbers
_COORDINATE_FLAGS = ("--p", "--q", "--point", "--circle", "--z", "--a", "--b", "--center")
_NEGATIVE = re.compile(r"-[\d.]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erlangen",
        description="geometry-as-group computational kernel")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file with defaults")
        p.add_argument("--seed", type=int, default=None,
                       help="64-bit seed (required for randomized verbs)")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--dimension", type=int, default=None)

    p = sub.add_parser("check-invariance", help="randomized invariance check")
    p.add_argument("--group", choices=BUILTIN_GROUP_NAMES)
    p.add_argument("--property", required=True, dest="prop", choices=PROPERTY_NAMES)
    p.add_argument("--metric", choices=METRIC_NAMES)
    add_common(p)

    p = sub.add_parser("axioms", help="randomized group-axiom check")
    p.add_argument("--group", choices=BUILTIN_GROUP_NAMES)
    add_common(p)

    p = sub.add_parser("distance", help="projective measurement of a point pair")
    p.add_argument("--metric", required=True, choices=METRIC_NAMES)
    p.add_argument("--p", required=True, help="x,y")
    p.add_argument("--q", required=True, help="x,y")

    p = sub.add_parser("transfer", help="apply a transfer map")
    p.add_argument("--kind", required=True,
                   choices=("stereographic", "inverse-stereographic",
                            "pluecker", "circle-coords"))
    p.add_argument("--point", help="x,y,z sphere point (stereographic)")
    p.add_argument("--z", help="re,im plane value (inverse-stereographic)")
    p.add_argument("--a", help="x0,x1,x2,x3 first space point (pluecker)")
    p.add_argument("--b", help="x0,x1,x2,x3 second space point (pluecker)")
    p.add_argument("--center", help="re,im circle center (circle-coords)")
    p.add_argument("--radius", type=float, help="circle radius (circle-coords)")
    p.add_argument("--orientation", type=int, default=1, choices=(-1, 1))

    p = sub.add_parser("covariants", help="covariants/invariants of a binary form")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated coefficients, e.g. 1,0,0,-1 (complex ok)")

    p = sub.add_parser("contact-check", help="contact-transformation verification")
    p.add_argument("--map", required=True, dest="map_name", choices=_CONTACT_MAPS)
    p.add_argument("--samples", type=int, default=None)
    add_common(p)

    p = sub.add_parser("orbit", help="sample the orbit of a configuration")
    p.add_argument("--group", choices=BUILTIN_GROUP_NAMES)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--point", help="x,y[,z] configuration point")
    p.add_argument("--circle", help="cx,cy,r configuration circle")
    add_common(p)

    return parser


def _floats(text: str, expect: int, what: str) -> list:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise GeometryError(f"{what}: expected comma-separated numbers, got {text!r}")
    if len(vals) != expect:
        raise GeometryError(f"{what}: expected {expect} numbers, got {len(vals)}")
    return vals


def _joined_coordinates(argv: list) -> list:
    """The arguments with each coordinate flag joined to a following value
    that starts with a minus sign ("--q -0.3,0.4" becomes "--q=-0.3,0.4"),
    which argparse would otherwise take for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _COORDINATE_FLAGS and _NEGATIVE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _merge_defaults(args, tol: float = 1e-9):
    """Flag > config file > hard default, with seed mandatory; ``tol`` is
    the verb's default tolerance."""
    cfg = config.load_config(args.config) if getattr(args, "config", None) else None
    if getattr(args, "seed", None) is None and cfg is not None:
        args.seed = cfg.seed
    if getattr(args, "trials", None) is None:
        args.trials = cfg.trials if cfg is not None else 100
    if getattr(args, "tol", None) is None:
        args.tol = cfg.tolerance if cfg is not None else tol
    config.check_tolerance(args.tol)
    if getattr(args, "dimension", None) is None:
        args.dimension = cfg.dimension if cfg is not None else 2
    if getattr(args, "group", None) is None and cfg is not None:
        args.group = cfg.group
    return args


def _require_group(args):
    if args.group is None:
        raise GeometryError("--group is required (flag or config file)")


def _require_seed(args):
    if args.seed is None:
        raise GeometryError("randomized commands require an explicit --seed "
                            "(flag or config file)")
    config.check_seed(args.seed)


def _run_check_invariance(args) -> int:
    _merge_defaults(args)
    _require_group(args)
    _require_seed(args)
    prop = builtin_property(args.prop, dimension=args.dimension, metric=args.metric)
    group = builtin_group(args.group, args.dimension)
    verdict = groups.invariance_test(prop.evaluate, group, prop.sample_config,
                                     seed=args.seed, trials=args.trials, tol=args.tol)
    sys.stdout.write(serialize_report(verdict))
    return 0 if verdict.invariant else 1


def _run_axioms(args) -> int:
    # axiom checks default to the looser 1e-8 membership tolerance
    _merge_defaults(args, tol=1e-8)
    _require_group(args)
    _require_seed(args)
    group = builtin_group(args.group, args.dimension)
    report = groups.check_group_axioms(group, seed=args.seed, trials=args.trials, tol=args.tol)
    sys.stdout.write(serialize_report(report))
    return 0 if report.ok else 1


def _run_distance(args) -> int:
    px, py = _floats(args.p, 2, "--p")
    qx, qy = _floats(args.q, 2, "--q")
    if args.metric == "klein-disk":
        for flag, (x, y) in (("--p", (px, py)), ("--q", (qx, qy))):
            if not x * x + y * y < 1.0:
                raise GeometryError(f"{flag}: klein-disk points must lie inside the "
                                    f"unit disk x^2 + y^2 < 1, got {x},{y}")
    metric = cayley_klein.METRICS[args.metric]()
    value = cayley_klein.ck_distance(projective.ProjPoint([px, py, 1.0]),
                                     projective.ProjPoint([qx, qy, 1.0]), metric)
    report = ValueReport("distance", [("metric", args.metric), ("value", abs(value))])
    sys.stdout.write(serialize_report(report))
    return 0


def _run_transfer(args) -> int:
    if args.kind == "stereographic":
        if not args.point:
            raise GeometryError("stereographic requires --point x,y,z")
        x, y, z = _floats(args.point, 3, "--point")
        w = moebius.stereographic(moebius.SpherePoint(x, y, z))
        value = "inf" if w.infinite else format_number(w.value)
        report = ValueReport("transfer", [("kind", "stereographic"),
                                          ("value", value)])
    elif args.kind == "inverse-stereographic":
        if not args.z:
            raise GeometryError("inverse-stereographic requires --z re,im")
        re, im = _floats(args.z, 2, "--z")
        p = moebius.inverse_stereographic(complex(re, im))
        report = ValueReport("transfer", [("kind", "inverse-stereographic"),
                                          ("x", p.x), ("y", p.y), ("z", p.z)])
    elif args.kind == "pluecker":
        if not args.a or not args.b:
            raise GeometryError("pluecker requires --a and --b (4 numbers each)")
        a = projective.ProjPoint(_floats(args.a, 4, "--a"))
        b = projective.ProjPoint(_floats(args.b, 4, "--b"))
        line = transfers.pluecker_embed(a, b)
        fields = [("kind", "pluecker")]
        fields += [(f"p{i}", line.p[i]) for i in range(6)]
        report = ValueReport("transfer", fields)
    else:
        if args.center is None or args.radius is None:
            raise GeometryError("circle-coords requires --center re,im and --radius r")
        re, im = _floats(args.center, 2, "--center")
        coords = transfers.circle_to_coords(complex(re, im), args.radius, args.orientation)
        fields = [("kind", "circle-coords")]
        fields += [(f"u{i+1}", coords.u[i]) for i in range(5)]
        report = ValueReport("transfer", fields)
    sys.stdout.write(serialize_report(report))
    return 0


def _run_covariants(args) -> int:
    try:
        coeffs = [complex(tok.strip().replace(" ", "")) for tok in args.coeffs.split(",")]
    except ValueError:
        raise GeometryError(f"--coeffs: cannot parse {args.coeffs!r}")
    form = binary_forms.BinaryForm(coeffs)
    if form.degree == 3:
        h = binary_forms.hessian(form)
        q = binary_forms.jacobian_covariant(form, h)
        fields = [("degree", 3), ("discriminant", binary_forms.cubic_invariant_R(form))]
        fields += [(f"hessian_{i}", h.coeffs[i]) for i in range(len(h.coeffs))]
        fields += [(f"jacobian_{i}", q.coeffs[i]) for i in range(len(q.coeffs))]
    elif form.degree == 4:
        inv_i, inv_j = binary_forms.quartic_invariants(form)
        h = binary_forms.hessian(form)
        t = binary_forms.jacobian_covariant(form, h)
        fields = [("degree", 4), ("i", inv_i), ("j", inv_j)]
        fields += [(f"hessian_{i}", h.coeffs[i]) for i in range(len(h.coeffs))]
        fields += [(f"sextic_{i}", t.coeffs[i]) for i in range(len(t.coeffs))]
    else:
        raise GeometryError("covariants verb handles cubics and quartics")
    sys.stdout.write(serialize_report(ValueReport("covariants", fields)))
    return 0


def _contact_map(name: str):
    if name == "legendre":
        return contact.legendre_map()
    if name == "swap-zp":
        return contact.swap_zp_map()
    if name == "prolonged-shear":
        shear = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return contact.prolong_point_map(lambda w: shear @ w, lambda w: shear)
    # prolonged-quadratic: a nonlinear point transformation
    def f(w):
        return np.array([w[0] + 0.2 * w[1] ** 2, w[1], w[2] + 0.1 * w[0] * w[1]])

    def jac(w):
        return np.array([[1.0, 0.4 * w[1], 0.0],
                         [0.0, 1.0, 0.0],
                         [0.1 * w[1], 0.1 * w[0], 1.0]])

    return contact.prolong_point_map(f, jac)


def _run_contact_check(args) -> int:
    _merge_defaults(args)
    _require_seed(args)
    samples = args.samples if args.samples is not None else 40
    verdict = contact.is_contact_transformation(_contact_map(args.map_name),
                                                seed=args.seed, samples=samples, tol=args.tol)
    sys.stdout.write(serialize_report(verdict))
    return 0 if verdict.is_contact else 1


def _run_orbit(args) -> int:
    _merge_defaults(args)
    _require_group(args)
    _require_seed(args)
    count = args.count if args.count is not None else 10
    if args.circle:
        cx, cy, r = _floats(args.circle, 3, "--circle")
        start = groups.Configuration([moebius.circle_quadric(complex(cx, cy), r)])
    elif args.point:
        coords = _floats(args.point, args.dimension, "--point") + [1.0]
        start = groups.Configuration([projective.ProjPoint(coords)])
    else:
        raise GeometryError("orbit requires --point or --circle")
    group = builtin_group(args.group, args.dimension)
    images = groups.orbit_sample(start, group, seed=args.seed, count=count)
    fields = [("group", args.group), ("count", count)]
    for i, img in enumerate(images):
        el = img[0]
        if isinstance(el, projective.ProjPoint):
            desc = ":".join(format_number(z) for z in el.normalized())
        else:
            desc = ",".join(format_number(z) for z in el.matrix.ravel())
        fields.append((f"image_{i}", desc))
    sys.stdout.write(serialize_report(ValueReport("orbit", fields)))
    return 0


_RUNNERS = {
    "check-invariance": _run_check_invariance,
    "axioms": _run_axioms,
    "distance": _run_distance,
    "transfer": _run_transfer,
    "covariants": _run_covariants,
    "contact-check": _run_contact_check,
    "orbit": _run_orbit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined_coordinates(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse has already written the usage message
        return int(exc.code) if exc.code else 0
    try:
        return _RUNNERS[args.verb](args)
    except (GeometryError, config.ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
