"""Residual error, exact derivatives, QNTK, meta-kernel, and supervised kernels.

The first derivative of the expectation value with respect to angle ``ell`` is
the commutator sandwich

    d eps / d theta_ell = -i <psi_ell| [Xhat_ell, Otilde_ell] |psi_ell>,

where ``psi_ell`` is the state propagated through layers 1..ell, ``Xhat_ell``
is the generator conjugated by its own fixed unitary, and ``Otilde_ell`` is
the observable pulled back through the remaining layers.  One forward pass and
one backward pass give all L components exactly; no parameter-shift evaluations
of outputs or finite differences are involved (those exist only as test oracles).  The
passes run over a leading row axis (:func:`forward_adjoint`): a chunk of S
circuits, each with P input states, costs one pass of S*P-row array
operations per layer; a single circuit with one input is the chunk S=P=1.
:func:`forward_adjoint` is the only place a circuit is evaluated layer by layer.

The second derivative is the shift rule applied to these exact gradients.
With a Pauli generator every gradient component has the form
A + B cos 2 theta_a + C sin 2 theta_a in each angle theta_a, so

    d^2 eps / d theta_a d theta_b = g_b(theta + pi/4 e_a) - g_b(theta - pi/4 e_a)

holds exactly (it is not a finite difference), and the whole L x L Hessian is
one engine call over 2L shifted copies of the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import AnsatzSpec, CircuitBatch, ensemble_angles
from .linalg import STACK_BYTES, PauliString, RngStream, basis_state, pauli_matrix, sample_pauli

IMAG_TOL = 1e-10


class NonRealExpectationError(ValueError):
    """Expectation value carried a non-negligible imaginary part.

    Signals a non-Hermitian observable or broken unitarity upstream.
    """


def _real_rows(values: np.ndarray, tol: float = IMAG_TOL) -> np.ndarray:
    """Real parts of expectation values, with a guard on every imaginary residue.

    The tolerance is absolute for order-one expectations and relative above
    that, so rescaling the observable cannot turn floating-point noise into a
    false alarm.  Non-finite values pass through for the training layer to
    report as divergence.
    """
    bad = np.abs(values.imag) > tol * np.maximum(1.0, np.abs(values))
    if np.any(bad):
        raise NonRealExpectationError(
            f"expectation has imaginary part {values[bad][0].imag:.3e} (tol {tol:.0e})"
        )
    return values.real


def real_expectation(matrix: np.ndarray, psi: np.ndarray, tol: float = IMAG_TOL) -> float:
    """<psi|M|psi> with a guard on the imaginary residue (see :func:`_real_rows`)."""
    return float(_real_rows(np.array([np.vdot(psi, matrix @ psi)]), tol)[0])


@dataclass(frozen=True)
class Observable:
    """Hermitian operator as a weighted Pauli sum, immutable, with a cached dense matrix.

    ``target`` is the scalar the expectation value is trained toward.  The
    matrix and the spectrum are computed on first use and kept outside the
    dataclass fields, so they can be neither passed in nor left stale.
    """

    terms: tuple[tuple[float, PauliString], ...]
    target: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(c), p) for c, p in self.terms))
        if not self.terms:
            raise ValueError("observable needs at least one term")
        if not all(np.isfinite(c) for c, _ in self.terms):
            raise ValueError("observable coefficients must be finite")
        n = self.terms[0][1].num_qubits
        if any(p.num_qubits != n for _, p in self.terms):
            raise ValueError("all terms must act on the same number of qubits")

    @property
    def num_qubits(self) -> int:
        return self.terms[0][1].num_qubits

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    @property
    def matrix(self) -> np.ndarray:
        cache = self.__dict__
        if "_matrix" not in cache:
            acc = np.zeros((self.dim, self.dim), dtype=complex)
            for coef, pauli in self.terms:
                acc += coef * pauli_matrix(pauli)
            acc.setflags(write=False)
            cache["_matrix"] = acc
        return cache["_matrix"]

    def trace_power(self, k: int) -> float:
        """Tr(O^k), computed from the dense spectrum (works for any Hermitian O)."""
        cache = self.__dict__
        if "_eigenvalues" not in cache:
            cache["_eigenvalues"] = np.linalg.eigvalsh(self.matrix)
        with np.errstate(over="ignore"):
            return float(np.sum(cache["_eigenvalues"] ** k))

    def as_dict(self) -> dict:
        return {
            "terms": [[c, p.letters] for c, p in self.terms],
            "target": self.target,
        }


def random_pauli_sum(
    n: int,
    num_terms: int,
    rng: RngStream,
    coeff_low: float = 0.0,
    coeff_high: float = 1.0,
    target: float = 0.0,
) -> Observable:
    """Observable with uniformly drawn Pauli terms and uniform coefficients.

    Identity strings are allowed among observable terms (they only shift the
    spectrum); coefficients are drawn uniformly from (coeff_low, coeff_high).
    """
    terms = []
    for _ in range(num_terms):
        pauli = sample_pauli(n, rng, exclude_identity=False)
        coef = float(rng.generator.uniform(coeff_low, coeff_high))
        terms.append((coef, pauli))
    return Observable(tuple(terms), target=target)


def _check_inputs(dim: int, size: int, psi0, obs_matrix: np.ndarray) -> np.ndarray:
    """Observable and input states fit D; states are one (D,) or P per circuit (S*P, D), normalized."""
    if obs_matrix.shape != (dim, dim):
        raise ValueError("observable and ansatz qubit counts differ")
    psi0 = np.asarray(psi0)
    rows = psi0.ndim == 2 and psi0.shape[1] == dim and len(psi0) > 0 and len(psi0) % size == 0
    if psi0.shape != (dim,) and not rows:
        raise ValueError("state dimension does not match ansatz")
    norms = np.atleast_1d(np.linalg.norm(psi0, axis=-1))
    off = np.isfinite(norms) & (np.abs(norms - 1.0) > 1e-10)
    if np.any(off):
        raise ValueError(f"state is not normalized (norm {norms[off][0]:.6g})")
    return psi0


def _apply(w: np.ndarray, states: np.ndarray) -> np.ndarray:
    """W @ psi for every row of ``states``; W shared (D, D) or one per circuit (S, D, D).

    A stacked W serves the P consecutive rows of its circuit, viewed as (S, P, D).
    """
    if w.ndim == 2:
        return np.dot(states, w.T)
    size, dim = len(w), states.shape[1]
    rows = states.reshape(size, -1, dim).swapaxes(1, 2)
    return np.matmul(w, rows).swapaxes(1, 2).reshape(-1, dim)


def _apply_transpose(w: np.ndarray, states: np.ndarray) -> np.ndarray:
    """W^T @ psi for every row of ``states`` (the backward pass runs on conjugates)."""
    if w.ndim == 2:
        return np.dot(states, w)
    size, dim = len(w), states.shape[1]
    return np.matmul(states.reshape(size, -1, dim), w).reshape(-1, dim)


def _per_row(table: np.ndarray, points: int) -> np.ndarray:
    """A per-circuit table (L, S, ...) repeated for each circuit's P rows; a shared (L, 1, ...) one as is."""
    return table if table.shape[1] == 1 else np.repeat(table, points, axis=1)


def forward_adjoint(
    batch: CircuitBatch, theta: np.ndarray, psi0: np.ndarray, obs_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and exact angle derivatives of S circuits in one forward and one backward pass.

    ``theta`` has shape (L, S); ``psi0`` is one input state (D,) for all
    circuits or P input states per circuit (S*P, D), circuit by circuit: the
    rows of the batch.  Returns the real expectations <psi0_r|U_s' O U_s|psi0_r>
    of every row r of circuit s, shape (S*P,), and their derivatives, shape
    (S*P, L).  This is the adjoint method vectorized over the rows: the
    forward pass keeps each layer's state before its fixed unitary, the
    backward pass pulls O U|psi0> back through the layers.
    """
    layers, size, dim = batch.num_layers, batch.size, batch.dim
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (layers, size):
        raise ValueError(f"expected angles of shape {(layers, size)}, got {theta.shape}")
    psi0 = _check_inputs(dim, size, psi0, obs_matrix)
    points = len(psi0) // size if psi0.ndim == 2 else 1
    rows = size * points
    theta = np.repeat(theta, points, axis=1)
    phases = _per_row(batch.phases, points)

    # full (L, rows, D) factors: per-layer products then need no broadcasting
    cos = np.repeat(np.cos(theta)[:, :, None], dim, axis=2)
    isin = 1j * np.sin(theta)[:, :, None]
    # generator gathers on the flattened (rows, D) state array
    gather = _per_row(batch.perms, points) + (np.arange(rows) * dim)[:, None]
    # Forward: psi <- W (cos psi + i sin X psi), keeping the state before each
    # W.  Backward: lam = O U|psi0> pulled back layer by layer; as a row
    # vector its conjugate mu obeys mu <- cos (mu W) + i sin conj(X)(mu W),
    # which needs neither W^dagger nor a conjugation per layer.  The gathered
    # mu of every layer is kept for one vectorized gradient product at the end.
    tilted = np.empty((layers, rows, dim), dtype=complex)
    gathered = np.empty((layers, rows, dim), dtype=complex)
    psi = np.array(np.broadcast_to(psi0, (rows, dim)), dtype=complex)
    for w, c, turn, index, out in zip(batch.fixed, cos, isin * phases, gather, tilted):
        np.multiply(c, psi, out=out)
        out += turn * psi.take(index)
        psi = _apply(w, out)
    lam = psi @ obs_matrix.T
    outputs = _real_rows(np.sum(psi.conj() * lam, axis=1))
    mu = lam.conj()
    conj_phases = phases.conj()
    turns = isin * conj_phases
    for k in range(layers - 1, -1, -1):
        mu = _apply_transpose(batch.fixed[k], mu)
        mu.take(gather[k], out=gathered[k])
        mu = cos[k] * mu + turns[k] * gathered[k]
    # d eps / d theta_k = 2 Im <tilted_k| X lam_k> = -2 Im sum(tilted_k * conj(X lam_k))
    grads = -2.0 * np.sum(tilted * conj_phases * gathered, axis=2).imag
    grads = np.ascontiguousarray(grads.T)
    return outputs, grads


def model_output(
    ansatz: AnsatzSpec, theta: np.ndarray, obs: Observable, phi: np.ndarray
) -> float:
    """Expectation of the observable in the circuit-evolved feature state."""
    theta = ansatz.check_parameters(theta)
    outputs, _ = forward_adjoint(ansatz.batch(), theta[:, None], phi, obs.matrix)
    return float(outputs[0])


def residual_error(
    ansatz: AnsatzSpec, theta: np.ndarray, obs: Observable, psi0: np.ndarray
) -> float:
    """Expectation value minus the observable's target."""
    return model_output(ansatz, theta, obs, psi0) - obs.target


def gradient(
    ansatz: AnsatzSpec, theta: np.ndarray, obs: Observable, psi0: np.ndarray
) -> np.ndarray:
    """Exact derivative of the residual error w.r.t. every angle.

    The target is a constant shift, so this is also the derivative of the raw
    model output.
    """
    theta = ansatz.check_parameters(theta)
    _, grads = forward_adjoint(ansatz.batch(), theta[:, None], psi0, obs.matrix)
    return grads[0]


def qntk(grad: np.ndarray) -> float:
    """Sum of squared derivative components; non-negative by construction."""
    grad = np.asarray(grad, dtype=float)
    return float(grad @ grad)


def ensemble_kernels(
    batch: CircuitBatch, streams, obs_matrix: np.ndarray, psi0: np.ndarray
) -> np.ndarray:
    """QNTK of each circuit of an ensemble chunk, circuit s at angles drawn from ``streams[s]``."""
    theta = ensemble_angles(batch.num_layers, streams)
    _, grads = forward_adjoint(batch, theta, psi0, obs_matrix)
    return np.array([qntk(g) for g in grads])


def hessian_residual(
    ansatz: AnsatzSpec, theta: np.ndarray, obs: Observable, psi0: np.ndarray
) -> np.ndarray:
    """Exact symmetric L x L second-derivative matrix of the residual error.

    Row a is the shift rule g(theta + pi/4 e_a) - g(theta - pi/4 e_a) on exact
    adjoint gradients (see the module docstring), from one engine call on 2L
    copies of the circuit; the upper triangle is mirrored.
    """
    theta = ansatz.check_parameters(theta)
    psi0 = _check_inputs(ansatz.dim, 1, np.reshape(psi0, (1, -1)), obs.matrix)[0]
    layers = ansatz.num_layers
    if layers == 0:
        return np.empty((0, 0))
    shifts = (np.pi / 4) * np.eye(layers)
    angles = theta[:, None] + np.concatenate([shifts, -shifts], axis=1)
    _, grads = forward_adjoint(ansatz.batch(2 * layers), angles, psi0, obs.matrix)
    pair = grads[:layers] - grads[layers:]
    return np.triu(pair) + np.triu(pair, 1).T


def meta_kernel(grad: np.ndarray, hessian: np.ndarray) -> float:
    """Quadratic form g^T H g controlling the second-order error update."""
    grad = np.asarray(grad, dtype=float)
    hessian = np.asarray(hessian, dtype=float)
    if hessian.shape != (grad.size, grad.size):
        raise ValueError("gradient and hessian shapes disagree")
    return float(grad @ hessian @ grad)


@dataclass
class SupervisedProblem:
    """Feature states, labels, and observables for a squared-loss task.

    ``features`` holds one normalized state per data point (rows);
    ``labels[d, i]`` is the target for observable i on data point d;
    ``train_indices`` selects the training subset.
    """

    features: np.ndarray
    labels: np.ndarray
    observables: tuple[Observable, ...]
    train_indices: tuple[int, ...]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=complex)
        self.labels = np.asarray(self.labels, dtype=float)
        self.observables = tuple(self.observables)
        self.train_indices = tuple(int(i) for i in self.train_indices)
        if self.features.ndim != 2:
            raise ValueError("features must be a (num_data, dim) array")
        if self.labels.shape != (self.features.shape[0], len(self.observables)):
            raise ValueError("labels must have shape (num_data, num_observables)")
        if not self.train_indices:
            raise ValueError("training set is empty")
        norms = np.linalg.norm(self.features, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("feature states must be normalized")

    @property
    def num_outputs(self) -> int:
        return len(self.observables)

    @property
    def train_size(self) -> int:
        return len(self.train_indices)

    @classmethod
    def with_basis_features(
        cls,
        n: int,
        labels: np.ndarray,
        observables: tuple[Observable, ...],
    ) -> "SupervisedProblem":
        """Computational-basis feature map |d> for d = 0..size-1.

        Basis features make distinct data points exactly orthogonal, which is
        the regime the closed-form kernel spectrum applies to; it requires the
        training-set size to fit inside the Hilbert space.
        """
        labels = np.asarray(labels, dtype=float)
        if labels.ndim == 1:
            labels = labels[:, None]
        size = labels.shape[0]
        dim = 1 << n
        if size > dim:
            raise ValueError(f"training size {size} exceeds Hilbert dimension {dim}")
        feats = np.stack([basis_state(n, d) for d in range(size)])
        return cls(feats, labels, tuple(observables), tuple(range(size)))


def outputs_and_gradients(
    ansatz: AnsatzSpec, theta: np.ndarray, prob: SupervisedProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Model outputs z and the (rows x L) matrix of their exact derivatives.

    One engine call per observable covers a block of training points as the
    rows of the one circuit (S=1, P points).  The engine keeps (L, points, D)
    state arrays, so a block holds as many points as fit those in
    STACK_BYTES: all of them for small circuits, one at a time for wide and
    deep ones.
    """
    theta = ansatz.check_parameters(theta)
    feats = prob.features[list(prob.train_indices)]
    points = len(feats)
    step = max(1, STACK_BYTES // (max(ansatz.num_layers, 1) * ansatz.dim * 16))
    rows = points * prob.num_outputs
    z = np.empty((points, prob.num_outputs))
    grads = np.empty((points, prob.num_outputs, ansatz.num_layers))
    batch = ansatz.batch()
    for lo in range(0, points, step):
        for i, obs in enumerate(prob.observables):
            z[lo : lo + step, i], grads[lo : lo + step, i] = forward_adjoint(
                batch, theta[:, None], feats[lo : lo + step], obs.matrix
            )
    # data-major rows: (d_1, i_1), (d_1, i_2), ..., (d_2, i_1), ...
    return z.reshape(rows), grads.reshape(rows, ansatz.num_layers)


def supervised_kernel(
    ansatz: AnsatzSpec, theta: np.ndarray, prob: SupervisedProblem
) -> np.ndarray:
    """Gram matrix of output gradients over the joint (data, output) index.

    Row ordering is data-major: (d_1, i_1), (d_1, i_2), ..., (d_2, i_1), ...
    The result is symmetric positive semi-definite by construction.
    """
    _, grads = outputs_and_gradients(ansatz, theta, prob)
    return grads @ grads.T


__all__ = [
    "IMAG_TOL",
    "NonRealExpectationError",
    "Observable",
    "SupervisedProblem",
    "ensemble_kernels",
    "forward_adjoint",
    "gradient",
    "hessian_residual",
    "meta_kernel",
    "model_output",
    "outputs_and_gradients",
    "qntk",
    "random_pauli_sum",
    "real_expectation",
    "residual_error",
    "supervised_kernel",
]
