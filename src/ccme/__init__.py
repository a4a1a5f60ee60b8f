"""Doubly robust conditional density estimation for treated outcomes.

The library fits a two-stage model: nuisances (propensity, treated-outcome
embedding) on one data half, a pseudo-outcome regression on conditioning
variables over the other half.  Densities are read off the fitted embedding
on an outcome grid.  A synthetic benchmark with an analytic truth drives
convergence and robustness checks; see the ``ccme`` command-line tool.
"""

from .data import Dataset, SplitDataset, compute_omega, load_dataset, split_data
from .density import curves_to_csv, density_curves, density_mass, density_matrix
from .errors import (ConfigError, ConfigWarning, DegenerateDataError,
                     InvalidArgumentError, NumericError)
from .estimators import (CcmeModel, FirstStage, Hyper, build_k_xi, fit_ccme,
                         fit_first_stage, fit_second_stage, pseudo_weights)
from .kernels import KernelSpec, SpdFactor, gram
from .nets import MlpParams, mlp_forward, mlp_init
from .propensity import fit_forest, fit_logistic
from .serialize import load_model, save_model
from .synthbench import (GroundTruth, SweepCell, SweepRecord, generate,
                         loglog_slope, mse, plan_cells, run_sweep)

__version__ = "1.0.0"

__all__ = [
    "Dataset", "SplitDataset", "compute_omega", "load_dataset", "split_data",
    "curves_to_csv", "density_curves", "density_mass", "density_matrix",
    "ConfigError", "ConfigWarning", "DegenerateDataError",
    "InvalidArgumentError", "NumericError",
    "CcmeModel", "FirstStage", "Hyper", "build_k_xi", "fit_ccme",
    "fit_first_stage", "fit_second_stage", "pseudo_weights",
    "KernelSpec", "SpdFactor", "gram",
    "MlpParams", "mlp_forward", "mlp_init",
    "fit_forest", "fit_logistic",
    "load_model", "save_model",
    "GroundTruth", "SweepCell", "SweepRecord", "generate",
    "loglog_slope", "mse", "plan_cells", "run_sweep",
    "__version__",
]
