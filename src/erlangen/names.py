"""The names of the built-in groups, properties and metrics.

They live apart from ``groups``, ``properties`` and ``cayley_klein``, so
that the command-line parser can offer them as choices without building
any of them; ``groups`` and ``properties`` re-export their names.
"""

BUILTIN_GROUP_NAMES = (
    "euclidean_isometries",
    "principal",
    "affine",
    "projective",
    "moebius",
    "inversive_pentaspherical",
    "lie_sphere_extended",
)

PROPERTY_NAMES = (
    "euclidean-distance",
    "angle",
    "cross-ratio",
    "incidence",
    "tangency",
    "collinearity",
    "ck-distance",
)

METRIC_NAMES = ("klein-disk", "elliptic")
