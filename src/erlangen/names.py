"""The names of the built-in groups and properties.

They live apart from ``groups`` and ``properties``, which re-export them,
so that the command-line parser can offer them as choices without
building either.
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
