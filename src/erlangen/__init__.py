"""erlangen: geometries as (space, transformation group) pairs.

A computational kernel for the group-theoretic view of geometry:
projective measurement against an absolute, randomized invariance
classification, transfer maps between equivalent geometries, binary-form
covariants on the sphere, and contact-element checks.
"""

from .numerics import GeometryError, DimensionMismatch, mix_seed
from .projective import (
    ProjPoint,
    Hyperplane,
    Quadric,
    ProjMap,
    GeneratorChord,
    cross_ratio,
    line_quadric_intersections,
    on_quadric,
    incident,
)
from .moebius import (
    ExtendedComplex,
    INFINITY,
    MoebiusMap,
    SpherePoint,
    stereographic,
    inverse_stereographic,
    moebius_to_sphere,
    unit_sphere_quadric,
)
from .transfers import (
    PlueckerLine,
    pluecker_embed,
    pluecker_conjugate,
    klein_quadric,
    klein_form,
    conic_param,
    conic_param_inverse,
    hesse_line,
    CircleCoords,
    circle_to_coords,
    coords_to_circle,
    circle_angle,
    lie_apply,
)
from .groups import (
    Transformation,
    Configuration,
    GroupDescriptor,
    builtin_group,
    BUILTIN_GROUP_NAMES,
    check_group_axioms,
    AxiomReport,
    stabilizes,
    invariance_test,
    Invariant,
    Violated,
    PropertyUndefined,
    is_similarity_via_circular_points,
    orbit_sample,
)
from .cayley_klein import (
    CKMetric,
    klein_disk_metric,
    elliptic_metric,
    ck_distance,
    ck_angle,
    OnAbsolute,
    DegeneracyVerdict,
    on_quadric_degeneracy,
    induced_surface_distance,
    LinearComplex,
    line_invariant,
)
from .binary_forms import (
    BinaryForm,
    hessian,
    jacobian_covariant,
    cubic_invariant_R,
    quartic_invariants,
    roots_on_sphere,
    SphericalRootSet,
    cubic_pencil_member,
    quartic_pencil_member,
)
from .contact import (
    SurfaceElement,
    LineElement2D,
    FiveMap,
    pfaffian_residual,
    is_contact_transformation,
    ContactVerdict,
    element_family_of_point,
    element_family_of_surface,
    line_element_check,
    legendre_map,
)
from .config import RunConfig, ConfigError, load_config
from .reports import serialize_report, parse_report_trailer, ValueReport
from .fixtures import FixtureSet, FixtureValue, builtin_fixtures, regenerate
from .properties import builtin_property, PROPERTY_NAMES

__version__ = "0.1.0"
