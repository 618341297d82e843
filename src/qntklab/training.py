"""Gradient-descent dynamics with full trajectory recording and decay fitting.

Plain full-batch gradient descent only; the analytic predictions are derived
for the vanilla update and momentum-style optimizers would void them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitBatch, uniform_angles
from .kernels import Observable, _engine, forward_adjoint, qntk
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

    ``errors`` holds the residual error at steps 0..T and ``kernels`` the
    matching kernel values.
    """

    errors: np.ndarray
    kernels: np.ndarray
    parameters: np.ndarray | None = None

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
    obs: Observable,
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
    ``obs`` is the observable, and ``target`` broadcasts against
    the (S, P) outputs: a scalar, or one label per training point (P,).
    Every step is one engine call for all S*P rows, and only the first checks
    the inputs.  Returns ``(residuals,
    kernels, parameters, diverged)``: residuals of shape (S, T+1, P), the
    trace of each circuit's supervised kernel (S, T+1), parameters
    (S, T+1, L) or None, and a dict from the index of each circuit whose loss
    or angles turned non-finite to the message :func:`gd_optimize` raises for
    it alone.  A diverged circuit keeps its rows; rows of different circuits
    never mix, so it cannot disturb the others.
    """
    theta = np.array(theta0, dtype=float)
    size, layers = batch.size, batch.num_layers
    psi0 = np.asarray(psi0)
    points = len(psi0) // size if psi0.ndim == 2 else 1
    residuals = np.empty((size, steps + 1, points))
    kernels = np.empty((size, steps + 1))
    params = np.empty((size, steps + 1, layers)) if record_parameters else None
    diverged: dict[int, str] = {}
    # overflow is detected explicitly and reported as divergence, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps + 1):
            outputs, grads = (_engine if t else forward_adjoint)(batch, theta.T, psi0, obs)
            eps = outputs.reshape(size, points) - target
            finite = np.isfinite(squared_loss(eps)) & np.isfinite(theta).all(axis=1)
            for s in np.flatnonzero(~finite):
                diverged.setdefault(int(s), _divergence_message(t))
            if len(diverged) == size:
                break
            residuals[:, t] = eps
            kernels[:, t] = np.reshape([qntk(g) for g in grads], (size, points)).sum(axis=1)
            if params is not None:
                params[:, t] = theta
            theta = theta - learning_rate * (eps[:, :, None] * grads.reshape(size, points, layers)).sum(axis=1)
    return residuals, kernels, params, diverged


def gd_optimize(
    circuit: CircuitBatch, obs: Observable, psi0: np.ndarray, cfg: TrainingConfig
) -> Trajectory:
    """Minimize the squared residual error by exact gradient descent.

    Records the residual and kernel at every step including t=0 (T+1 entries
    for T update steps).  A start at exactly zero residual is a valid fixed
    point and yields a flat trajectory.  This is :func:`gd_batch` on the one
    circuit; its divergence is raised.
    """
    theta0 = _initial_angles(circuit.num_layers, cfg)
    residuals, kernels, params, diverged = gd_batch(
        circuit,
        obs,
        obs.target,
        psi0,
        theta0[None, :],
        cfg.learning_rate,
        cfg.steps,
        cfg.record_parameters,
    )
    if diverged:
        raise TrainingDivergenceError(diverged[0])
    return Trajectory(residuals[0, :, 0], kernels[0], parameters=None if params is None else params[0])


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
    "squared_loss",
]
