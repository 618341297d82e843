"""Gradient-descent dynamics with full trajectory recording and decay fitting.

Plain full-batch gradient descent only; the analytic predictions are derived
for the vanilla update and momentum-style optimizers would void them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import AnsatzSpec, CircuitBatch, uniform_angles
from .kernels import Observable, SupervisedProblem, forward_adjoint, qntk
from .linalg import RngStream


class TrainingDivergenceError(RuntimeError):
    """Residual error or parameters became non-finite (learning rate too large)."""


@dataclass
class TrainingConfig:
    """Gradient-descent hyperparameters and the initial-angle distribution.

    With ``init_angles=None`` the initial angles are drawn independently and
    uniformly from [0, 2*pi) using the seed; otherwise the given vector is used
    verbatim and the seed only labels the run.
    """

    learning_rate: float
    steps: int
    seed: int = 0
    init_angles: np.ndarray | None = None
    record_parameters: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.init_angles is not None:
            self.init_angles = np.asarray(self.init_angles, dtype=float)


@dataclass
class Trajectory:
    """Per-step record of a gradient-descent run.

    ``errors`` holds the residual error (or, for supervised runs, the total
    loss) at steps 0..T; ``kernels`` the matching kernel values.  ``residuals``
    is only populated by supervised runs and holds the per-(sample, output)
    residual at every step.
    """

    errors: np.ndarray
    kernels: np.ndarray
    parameters: np.ndarray | None = None
    residuals: np.ndarray | None = None

    def __post_init__(self):
        self.errors = np.asarray(self.errors, dtype=float)
        self.kernels = np.asarray(self.kernels, dtype=float)
        if self.errors.shape != self.kernels.shape:
            raise ValueError("errors and kernels must record the same steps")

    @property
    def steps(self) -> int:
        return len(self.errors) - 1


def _initial_angles(layers: int, cfg: TrainingConfig) -> np.ndarray:
    if cfg.init_angles is not None:
        theta = np.asarray(cfg.init_angles, dtype=float)
        if theta.shape != (layers,):
            raise ValueError(f"expected {layers} initial angles, got {theta.shape}")
        return theta.copy()
    return uniform_angles(layers, RngStream(cfg.seed, (0,)))


def _divergence_message(step: int) -> str:
    return f"non-finite residual or parameters at step {step}; reduce the learning rate"


def squared_loss(residuals: np.ndarray) -> np.ndarray:
    """Half the sum of squared residuals over the last axis: the loss gradient descent lowers."""
    return 0.5 * np.square(residuals).sum(axis=-1)


def gd_batch(
    batch: CircuitBatch,
    obs_matrix: np.ndarray,
    target,
    psi0: np.ndarray,
    theta0: np.ndarray,
    learning_rate: float,
    steps: int,
    record_parameters: bool = False,
):
    """Gradient descent of S circuits at once, each on the summed squared residual of its rows.

    ``theta0`` has shape (S, L).  ``psi0`` is one input state (D,) for all
    circuits or P states per circuit (S*P, D), as in :func:`forward_adjoint`;
    ``obs_matrix`` is one observable (D, D) or K of them (K, D, D), and
    ``target`` broadcasts against the (S, P, K) outputs.  Every step is one
    engine call per observable for all S*P rows.  Returns ``(residuals,
    kernels, parameters, diverged)``: residuals of shape (S, T+1, P*K) in
    data-major order, the trace of each circuit's supervised kernel (S, T+1),
    parameters (S, T+1, L) or None, and a dict from the index of each circuit
    whose loss or angles turned non-finite to the message
    :func:`gd_optimize` raises for it alone.  A diverged circuit keeps its
    rows; rows of different circuits never mix, so it cannot disturb the
    others.
    """
    matrices = [obs_matrix] if np.ndim(obs_matrix) == 2 else list(obs_matrix)
    theta = np.array(theta0, dtype=float)
    size, layers = batch.size, batch.num_layers
    psi0 = np.asarray(psi0)
    points = len(psi0) // size if psi0.ndim == 2 else 1
    width = points * len(matrices)
    outputs = np.empty((size * points, len(matrices)))
    grads = np.empty((size * points, len(matrices), layers))
    residuals = np.empty((size, steps + 1, width))
    kernels = np.empty((size, steps + 1))
    params = np.empty((size, steps + 1, layers)) if record_parameters else None
    diverged: dict[int, str] = {}
    # overflow is detected explicitly and reported as divergence, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps + 1):
            for i, m in enumerate(matrices):
                outputs[:, i], grads[:, i] = forward_adjoint(batch, theta.T, psi0, m)
            # data-major rows per circuit: (point 1, observable 1), (point 1, observable 2), ...
            eps = (outputs.reshape(size, points, -1) - target).reshape(size, width)
            finite = np.isfinite(squared_loss(eps)) & np.isfinite(theta).all(axis=1)
            for s in np.flatnonzero(~finite):
                diverged.setdefault(int(s), _divergence_message(t))
            if len(diverged) == size:
                break
            residuals[:, t] = eps
            rows = grads.reshape(size * width, layers)
            kernels[:, t] = np.reshape([qntk(g) for g in rows], (size, width)).sum(axis=1)
            if params is not None:
                params[:, t] = theta
            theta = theta - learning_rate * (eps[:, :, None] * rows.reshape(size, width, layers)).sum(axis=1)
    return residuals, kernels, params, diverged


def _descend(ansatz: AnsatzSpec, cfg: TrainingConfig, obs_matrix, target, psi0):
    """One circuit through :func:`gd_batch`; its divergence is raised."""
    theta0 = _initial_angles(ansatz.num_layers, cfg)
    residuals, kernels, params, diverged = gd_batch(
        ansatz.batch(),
        obs_matrix,
        target,
        psi0,
        theta0[None, :],
        cfg.learning_rate,
        cfg.steps,
        cfg.record_parameters,
    )
    if diverged:
        raise TrainingDivergenceError(diverged[0])
    return residuals[0], kernels[0], None if params is None else params[0]


def gd_optimize(
    ansatz: AnsatzSpec, obs: Observable, psi0: np.ndarray, cfg: TrainingConfig
) -> Trajectory:
    """Minimize the squared residual error by exact gradient descent.

    Records the residual and kernel at every step including t=0 (T+1 entries
    for T update steps).  A start at exactly zero residual is a valid fixed
    point and yields a flat trajectory.
    """
    residuals, kernels, params = _descend(ansatz, cfg, obs.matrix, obs.target, psi0)
    return Trajectory(residuals[:, 0], kernels, parameters=params)


def gd_supervised(
    ansatz: AnsatzSpec, prob: SupervisedProblem, cfg: TrainingConfig
) -> Trajectory:
    """Gradient descent on the summed squared residuals of a supervised task.

    ``errors`` records the total loss (which is not guaranteed monotone at
    finite learning rate); ``kernels`` the trace of the supervised kernel,
    which reduces to the scalar kernel for one sample and one output.  The
    training points are the rows of one circuit in :func:`gd_batch`.
    """
    train = list(prob.train_indices)
    residuals, kernels, params = _descend(
        ansatz, cfg, [o.matrix for o in prob.observables], prob.labels[train], prob.features[train]
    )
    return Trajectory(squared_loss(residuals), kernels, parameters=params, residuals=residuals)


def fit_decay_rate(
    trajectory: Trajectory | np.ndarray, burn_in: int = 0, floor: float = 1e-12
) -> tuple[float, float]:
    """Least-squares exponential decay rate of |error(t)|.

    Fits log|error| against the step index over points after ``burn_in`` whose
    magnitude exceeds ``floor`` (sign flips dive below the floor and are thereby
    excluded).  Returns (rate, r_squared) where rate is minus the fitted slope.
    """
    values = trajectory.errors if isinstance(trajectory, Trajectory) else np.asarray(trajectory, float)
    t = np.arange(len(values))
    mask = (t >= burn_in) & (np.abs(values) > floor)
    if int(mask.sum()) < 10:
        raise ValueError(
            f"only {int(mask.sum())} usable points above floor {floor:g}; need at least 10"
        )
    x = t[mask].astype(float)
    y = np.log(np.abs(values[mask]))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(-slope), float(r_squared)


__all__ = [
    "Trajectory",
    "TrainingConfig",
    "TrainingDivergenceError",
    "fit_decay_rate",
    "gd_batch",
    "gd_optimize",
    "gd_supervised",
    "squared_loss",
]
