"""stablewalk: heavy-tailed lattice walks, killed kernels, and asymptotics."""

from .errors import StableWalkError
from .walk_model import (
    Family,
    StableParams,
    TailSpec,
    WalkLaw,
    build_walk_law,
    stable_params_of,
    validate_tails,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "StableParams",
    "StableWalkError",
    "TailSpec",
    "WalkLaw",
    "build_walk_law",
    "stable_params_of",
    "validate_tails",
    "__version__",
]
