"""erlangen: geometries as (space, transformation group) pairs.

A computational kernel for the group-theoretic view of geometry:
projective measurement against an absolute, randomized invariance
classification, transfer maps between equivalent geometries, binary-form
covariants on the sphere, and contact-element checks.

The public names are loaded on first use (PEP 562): ``import erlangen``
runs none of the submodules, and reading a name imports only the module
that defines it.
"""

import importlib

__version__ = "0.1.0"

#: the public names, by the submodule that defines them
_EXPORTS = {
    "numerics": ("GeometryError", "DimensionMismatch", "mix_seed"),
    "projective": ("ProjPoint", "Hyperplane", "Quadric", "ProjMap", "GeneratorChord",
                   "cross_ratio", "line_quadric_intersections", "on_quadric", "incident"),
    "moebius": ("ExtendedComplex", "INFINITY", "MoebiusMap", "SpherePoint", "stereographic",
                "inverse_stereographic", "moebius_to_sphere", "unit_sphere_quadric"),
    "transfers": ("PlueckerLine", "pluecker_embed", "pluecker_conjugate", "klein_quadric",
                  "klein_form", "conic_param", "conic_param_inverse", "hesse_line",
                  "CircleCoords", "circle_to_coords", "coords_to_circle", "circle_angle",
                  "lie_apply"),
    "names": ("BUILTIN_GROUP_NAMES", "PROPERTY_NAMES"),
    "groups": ("Transformation", "Configuration", "GroupDescriptor", "builtin_group",
               "check_group_axioms", "stabilizes", "invariance_test", "PropertyUndefined",
               "is_similarity_via_circular_points", "orbit_sample"),
    "cayley_klein": ("CKMetric", "klein_disk_metric", "elliptic_metric", "ck_distance",
                     "ck_angle", "OnAbsolute", "DegeneracyVerdict", "on_quadric_degeneracy",
                     "induced_surface_distance", "LinearComplex", "line_invariant"),
    "binary_forms": ("BinaryForm", "hessian", "jacobian_covariant", "cubic_invariant_R",
                     "quartic_invariants", "roots_on_sphere", "SphericalRootSet",
                     "cubic_pencil_member", "quartic_pencil_member"),
    "contact": ("SurfaceElement", "LineElement2D", "FiveMap", "pfaffian_residual",
                "is_contact_transformation", "element_family_of_point",
                "element_family_of_surface", "line_element_check", "legendre_map"),
    "config": ("RunConfig", "ConfigError", "load_config"),
    "reports": ("Invariant", "Violated", "AxiomReport", "ContactVerdict", "serialize_report",
                "parse_report_trailer", "ValueReport"),
    "fixtures": ("FixtureSet", "FixtureValue", "builtin_fixtures", "regenerate"),
    "properties": ("builtin_property",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
