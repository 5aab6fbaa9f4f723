"""Deterministic simulator for rational consensus under omission failures."""

from .errors import InconsistencyError
from .simulator import (FailurePattern, RunConfig, RunResult,
                        deviation_experiment, deviation_study, run,
                        sample_blind_pattern)
from .deviations import make_deviation

__all__ = [
    "FailurePattern", "InconsistencyError", "RunConfig", "RunResult",
    "deviation_experiment", "deviation_study", "make_deviation", "run",
    "sample_blind_pattern",
]
