"""Desk-scale laboratory for stabilized POD reduced-order models of
incompressible Navier-Stokes flow.

The package covers the full pipeline: stabilized full-order finite element
solvers (local-projection-stabilized equal-order elements and grad-div
stabilized Taylor-Hood elements), POD basis construction by the method of
snapshots, two stabilized reduced-order time steppers, supremizer-based
pressure recovery, an adaptive grad-div parameter controller, and the
spectral error indicators that track reduced-order accuracy.
"""

from podflow.fom import FOMProblem
from podflow.harness import (
    ConfigError,
    ExperimentConfig,
    StageError,
    convergence_study,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "FOMProblem",
    "ConfigError",
    "ExperimentConfig",
    "StageError",
    "convergence_study",
    "run_pipeline",
    "__version__",
]
