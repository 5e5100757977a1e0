"""What the benchmark harness under perfbench/ reads of the package.

The harness wraps module-level functions by name and replaces fields of
the group and property descriptors, so a rename or a deletion in the
package would break it only when it runs.  Its source is read and
executed here, without importing it, so nothing is written under
perfbench/.
"""

import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import erlangen
from erlangen.groups import GroupDescriptor, builtin_group
from erlangen.properties import BuiltinProperty, builtin_property

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_every_exported_name_exists():
    names = ["erlangen"] + [f"erlangen.{m.name}" for m in pkgutil.iter_modules(erlangen.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
