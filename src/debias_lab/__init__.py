"""debias_lab: a numerical laboratory for structure-agnostic debiased estimation.

Layout:

  grid        finite measure spaces, densities, perturbations, sampling
  estimands   per-kind nuisances, scores, Riesz machinery, exact functionals
  partition   ham-sandwich balanced partitions and sign-flip bumps (plain arrays)
  adversary   invariant perturbation directions and local-alternative families
  estimators  plug-in / doubly robust / DML estimators and corruption
  bounds      exact Hellinger, Bayes error, and fuzzy-hypothesis risk floors
  harness     seeded sweeps with log-log slope fits
  presets     ready-made anchors per estimand
"""

from . import adversary, bounds, estimands, estimators, grid, harness, partition
from .errors import (
    DebiasLabError,
    NoConvergenceError,
    PreconditionError,
)
from .estimands import EstimandSpec
from .grid import Dataset, Density, GridSpace, SignedDensity
from .partition import BumpPartition
from .presets import preset

__all__ = [
    "adversary",
    "bounds",
    "estimands",
    "estimators",
    "grid",
    "harness",
    "partition",
    "preset",
    "DebiasLabError",
    "NoConvergenceError",
    "PreconditionError",
    "EstimandSpec",
    "Dataset",
    "Density",
    "GridSpace",
    "SignedDensity",
    "BumpPartition",
]

__version__ = "0.1.0"
