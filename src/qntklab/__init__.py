"""Exact simulation and analytic theory for wide quantum neural network training."""

from .circuits import (
    AnsatzSpec,
    build_hardware_efficient,
    build_random_ansatz,
    uniform_angles,
    y_tilted_state,
)
from .haar import MomentEstimate, mc_commutator_trace, mc_kbar, mc_second_moment
from .kernels import (
    NonRealExpectationError,
    Observable,
    SupervisedProblem,
    gradient,
    hessian_residual,
    meta_kernel,
    model_output,
    qntk,
    random_pauli_sum,
    residual_error,
    supervised_kernel,
)
from .linalg import (
    PauliString,
    RngStream,
    basis_state,
    haar_unitary,
    pauli_matrix,
    sample_pauli,
    zero_state,
)
from .training import (
    Trajectory,
    TrainingConfig,
    TrainingDivergenceError,
    fit_decay_rate,
    gd_optimize,
    gd_supervised,
)
from . import theory

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "MomentEstimate",
    "NonRealExpectationError",
    "Observable",
    "PauliString",
    "RngStream",
    "SupervisedProblem",
    "Trajectory",
    "TrainingConfig",
    "TrainingDivergenceError",
    "basis_state",
    "build_hardware_efficient",
    "build_random_ansatz",
    "fit_decay_rate",
    "gd_optimize",
    "gd_supervised",
    "gradient",
    "haar_unitary",
    "hessian_residual",
    "mc_commutator_trace",
    "mc_kbar",
    "mc_second_moment",
    "meta_kernel",
    "model_output",
    "pauli_matrix",
    "qntk",
    "random_pauli_sum",
    "residual_error",
    "sample_pauli",
    "supervised_kernel",
    "theory",
    "uniform_angles",
    "y_tilted_state",
    "zero_state",
]
