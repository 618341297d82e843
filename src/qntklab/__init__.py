"""Exact simulation and analytic theory for wide quantum neural network training."""

from .circuits import (
    AnsatzSpec,
    build_hardware_efficient,
    build_random_ansatz,
    uniform_angles,
)
from .haar import MomentEstimate, mc_commutator_trace, mc_kbar, mc_second_moment
from .kernels import (
    NonRealExpectationError,
    Observable,
    gradient,
    hessian_residual,
    model_output,
    qntk,
    random_pauli_sum,
    residual_error,
)
from .linalg import (
    RngStream,
    haar_unitary,
    sample_pauli,
    zero_state,
)
from .training import (
    Trajectory,
    TrainingConfig,
    TrainingDivergenceError,
    fit_decay_rate,
    gd_optimize,
)
from . import theory

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "MomentEstimate",
    "NonRealExpectationError",
    "Observable",
    "RngStream",
    "Trajectory",
    "TrainingConfig",
    "TrainingDivergenceError",
    "build_hardware_efficient",
    "build_random_ansatz",
    "fit_decay_rate",
    "gd_optimize",
    "gradient",
    "haar_unitary",
    "hessian_residual",
    "mc_commutator_trace",
    "mc_kbar",
    "mc_second_moment",
    "model_output",
    "qntk",
    "random_pauli_sum",
    "residual_error",
    "sample_pauli",
    "theory",
    "uniform_angles",
    "zero_state",
]
