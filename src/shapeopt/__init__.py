"""Parametric shape optimization with proposer-guided Gaussian search.

Submodules
----------
evolution   bounded design vectors, scored records, the search loop
llm         prompt building, response parsing, online and mock proposers
airfoil     Bézier airfoil geometry, validity, reward, external evaluator
axisym      tangent-angle bodies of revolution and measure constraints
stokesbem   axisymmetric Stokes drag by boundary elements
ga          real-coded genetic-algorithm baseline (an ask strategy)
problems    objective definitions binding geometry to the optimizers
cli         the config schema and the five commands
rundir      every file a run reads or writes: records, audit, results
"""

from .evolution import (
    Bounds,
    EsConfig,
    EvaluationFailed,
    EvaluatorFatal,
    GaussianSearch,
    ProposerError,
    RecordBuffer,
    ScoredRecord,
    decode_design,
    encode_design,
    run_optimization,
    select_records,
)
from .ga import GaConfig, GaSearch, run_ga
from .llm import LlmConfig, LlmProposer, MockProposer
from .problems import AirfoilProblem, AxisymDragProblem, QuadraticProblem

__version__ = "0.1.0"

__all__ = [
    "AirfoilProblem",
    "AxisymDragProblem",
    "Bounds",
    "EsConfig",
    "EvaluationFailed",
    "EvaluatorFatal",
    "GaConfig",
    "GaSearch",
    "GaussianSearch",
    "LlmConfig",
    "LlmProposer",
    "MockProposer",
    "ProposerError",
    "QuadraticProblem",
    "RecordBuffer",
    "ScoredRecord",
    "__version__",
    "decode_design",
    "encode_design",
    "run_ga",
    "run_optimization",
    "select_records",
]
