"""Pulsed photon-phonon pair generation/read-out simulation and
photon-counting correlation analysis."""

__version__ = "0.1.0"

from .config import ExperimentConfig, default_config
from .protocol import OutcomeTable, build_outcome_table, sample_trials
from .tags import TagStream, read_tagstream, write_tagstream

__all__ = [
    "__version__",
    "ExperimentConfig", "default_config",
    "OutcomeTable", "build_outcome_table", "sample_trials",
    "TagStream", "read_tagstream", "write_tagstream",
]
