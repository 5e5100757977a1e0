"""What the benchmark harness under perfbench/ reads of the package.

The harness wraps module-level functions by name and replaces fields of
the group and property descriptors, so a rename or a deletion in the
package would break it only when it runs.  Its source is read and
executed here, without importing it, so nothing is written under
perfbench/.  Also scans of the package's source for keyword defaults
that no call sets and for imports that nothing uses.
"""

import ast
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import erlangen
from erlangen.groups import GroupDescriptor, builtin_group
from erlangen.properties import BuiltinProperty, builtin_property

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_traced_function_resolves(spans):
    for module, attr, _ in spans["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_the_tracer_replaces_descriptor_fields(spans):
    for cls, names in ((GroupDescriptor, {"sample", "contains"}),
                       (BuiltinProperty, {"evaluate", "sample_config"})):
        assert dataclasses.is_dataclass(cls)
        assert names <= {f.name for f in dataclasses.fields(cls)}
    tracer = spans["Tracer"]()
    g, p = builtin_group("projective", 2), builtin_property("cross-ratio", 2)
    traced_g, traced_p = tracer.group(g), tracer.prop(p)
    assert traced_g.sample.__wrapped__ is g.sample
    assert traced_p.evaluate.__wrapped__ is p.evaluate


# The traced pass of perfbench/run.py, in the order it runs: the package
# imported as perfbench/workloads.setup imports it, the tracer installed
# over whatever that loaded, one call of each trial loop, the spans folded.
_TRACED_PASS = """
import sys
from erlangen import builtin_group, builtin_property

spans = {"__name__": "spans"}
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), spans)
tracer = spans["Tracer"]()
g = tracer.group(builtin_group("projective", 2))
p = tracer.prop(builtin_property("cross-ratio", 2))
tracer.install()
try:
    from erlangen import Configuration, ProjPoint, groups
    groups.invariance_test(p.evaluate, g, p.sample_config, seed=1, trials=20)
    groups.check_group_axioms(g, seed=2, trials=10)
    groups.orbit_sample(Configuration([ProjPoint([0.1, 0.2, 1.0])]), g, seed=3, count=10)
finally:
    tracer.uninstall()
totals = spans["fold"](tracer.take(), spans["new_totals"]())
print(totals["trials"], totals["inv_trials"], *sorted(totals["layers"]))
"""


def test_the_traced_pass_runs_on_the_package_as_the_harness_loads_it():
    """In a fresh interpreter, installing the tracer finds every module it
    wraps, and the folded spans count the trials of all three loops."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _TRACED_PASS, str(SPANS)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    trials, inv_trials, *layers = proc.stdout.split()
    assert (int(trials), int(inv_trials)) == (20 + 10 + 10, 20)
    assert {"groups.engine", "groups.contains", "properties.evaluate",
            "numerics.rng_from"} <= set(layers)


def _fresh(code, *args):
    """A fresh interpreter running ``code`` on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_the_cli_import_registers_every_traced_module_and_loads_no_numpy(spans):
    """perfbench/child.py installs the tracer right after ``import
    erlangen.cli``, so every module the tracer wraps must be in
    sys.modules then, while the import itself loads no numpy."""
    modules = sorted({module for module, _, _ in spans["FUNCTIONS"]})
    proc = _fresh(f"""
import sys
import erlangen.cli
print("numpy" in sys.modules, *[m in sys.modules for m in {modules!r}])
""")
    assert proc.stdout.split() == ["False"] + ["True"] * len(modules), proc.stderr


# The traced CLI child, perfbench/child.py cli, over the CLI tour in one
# interpreter: erlangen.cli imported, the tracer installed over what that
# import registered, the group and property builders wrapped.
_TRACED_CLI = """
import contextlib, io, json, sys
import erlangen.cli as cli

spans = {"__name__": "spans"}
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), spans)
tracer = spans["Tracer"]()
tracer.install()
make_group, make_prop = cli.builtin_group, cli.builtin_property
cli.builtin_group = lambda *a, **k: tracer.group(make_group(*a, **k))
cli.builtin_property = lambda *a, **k: tracer.prop(make_prop(*a, **k))
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(*codes)
print(*sorted({span[0] for span in tracer.take()}))
"""


def test_the_traced_cli_child_runs_the_tour():
    from test_cli import TOUR

    proc = _fresh(_TRACED_CLI, str(SPANS), json.dumps(TOUR))
    assert proc.returncode == 0, proc.stderr
    codes, names = proc.stdout.splitlines()
    assert len(codes.split()) == len(TOUR)
    assert set(codes.split()) <= {"0", "1"}
    assert {"groups.engine", "properties.evaluate", "numerics.rng_from",
            "reports.serialize_report"} <= set(names.split())


def test_every_exported_name_exists():
    names = ["erlangen"] + [f"erlangen.{m.name}" for m in pkgutil.iter_modules(erlangen.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_dir_lists_the_lazy_exports():
    assert set(erlangen.__all__) <= set(dir(erlangen))


def _defaults(tree):
    """(callable name, parameter, position or None) of each parameter with
    a default in a function or method: positions count from after self or
    cls, and an __init__ is called by its class's name."""
    for scope in ast.walk(tree):
        body = getattr(scope, "body", None)
        for node in body if isinstance(body, list) else ():
            if not isinstance(node, ast.FunctionDef):
                continue
            method = isinstance(scope, ast.ClassDef)
            name = scope.name if method and node.name == "__init__" else node.name
            bound = method and "staticmethod" not in {getattr(d, "id", None)
                                                       for d in node.decorator_list}
            args = node.args
            positional = (args.posonlyargs + args.args)[1 if bound else 0:]
            first = len(positional) - len(args.defaults)
            for i, param in enumerate(positional[first:], first):
                yield name, param.arg, i
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, param.arg, None


def _calls(tree):
    """(called name, positional count, keywords) of each call; a * or **
    argument may fill every parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            yield name, math.inf if spread else len(node.args), {k.arg for k in node.keywords}


def test_every_keyword_default_is_set_by_a_caller():
    """A default that no call in the package or the tests overrides is a
    constant with a name: each must be passed, by keyword or by position,
    by at least one call of the same name.  Reads the sources only."""
    package = sorted((ROOT / "src" / "erlangen").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in package + sorted((ROOT / "tests").glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
    unset = [f"{path.name}: {name}({param})"
             for path in package for name, param, i in _defaults(trees[path])
             if not any(param in keywords or (i is not None and count > i)
                        for count, keywords in calls.get(name, ()))]
    assert not unset, unset


def test_every_import_is_used():
    """Each name an import binds in a package module is read there, as a
    name or as a string (an __all__ entry).  Reads the sources only."""
    unused = []
    for path in sorted((ROOT / "src" / "erlangen").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names if a.name != "*"]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert not unused, unused
