"""Numerical differential-geometry engine for metallic Kahler structures.

Builds metallic and nearly metallic Kahler structures on coordinate
charts, classifies (metric, structure) pairs, and verifies the associated
tensor identities as quantified residual checks.
"""

__version__ = "0.3.0"

from . import diffcalc, exprdsl, geometry, metallic  # noqa: F401
from .diffcalc import DiffScheme  # noqa: F401
from .geometry import Chart, TensorField  # noqa: F401
from .metallic import MetallicParams, StructureBundle, Tolerances, classify  # noqa: F401
