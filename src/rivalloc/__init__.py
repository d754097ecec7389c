"""Competitive facility location on the plane with a minimal separation.

A leader places one facility, then a follower places one at distance at
least R; customers go to the closer facility, ties favouring the leader.
The package finds leader locations minimising the weight the follower can
capture, with exhaustive references for validation.  The solver internals
(line search, vertical-line pruning, the candidate families) are imported
from their submodules.
"""

from .geom import (
    Customer,
    DegenerateInputError,
    Instance,
    Point,
    general_position_violation,
)
from .medianoid import MedianoidResult, solve_medianoid
from .centroid import SolveReport, brute_centroid, solve_centroid
from .oracle import brute_medianoid

__version__ = "0.1.0"

__all__ = [
    "Customer",
    "DegenerateInputError",
    "Instance",
    "MedianoidResult",
    "Point",
    "SolveReport",
    "brute_centroid",
    "brute_medianoid",
    "general_position_violation",
    "solve_centroid",
    "solve_medianoid",
]
