"""Independent oracles shared by the test modules.

These deliberately avoid the library's fast paths: the matrix exponential is
built from an eigendecomposition, gradients and Hessians from central finite
differences of the scalar residual, and the parameter-shift rule from shifted
full evaluations.  The dense single-circuit paths (the circuit matrix, its
prefix/suffix split, and layer-by-layer state evolution) live here too; the
library evaluates circuits only in its batched engine.  They are the "second
route" every exact formula is checked against.
"""

import numpy as np

from qntklab import residual_error
from qntklab.linalg import PauliString, pauli_matrix


def pauli_rotation(p: PauliString | str, theta: float) -> np.ndarray:
    """exp(i*theta*P) = cos(theta) I + i sin(theta) P, using P^2 = I."""
    mat = pauli_matrix(p)
    dim = mat.shape[0]
    return np.cos(theta) * np.eye(dim, dtype=complex) + 1j * np.sin(theta) * mat


def rotate_state(p: PauliString, theta: float, psi: np.ndarray) -> np.ndarray:
    """exp(i*theta*P) applied to a state without forming the dense matrix."""
    return np.cos(theta) * psi + 1j * np.sin(theta) * p.apply(psi)


def circuit_unitary(ansatz, theta: np.ndarray) -> np.ndarray:
    """Dense U(theta); layer 1 is the rightmost factor (applied first)."""
    theta = ansatz.check_parameters(theta)
    u = np.eye(ansatz.dim, dtype=complex)
    for gen, w, t in zip(ansatz.generators, ansatz.fixed_unitaries, theta):
        u = w @ (pauli_rotation(gen, t) @ u)
    return u


def prefix_suffix(ansatz, theta: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Split U(theta) = suffix @ prefix at layer ``ell`` (1-based).

    The prefix covers layers 1..ell inclusive (the rotation of layer ell is
    inside the prefix); the suffix covers layers ell+1..L.
    """
    theta = ansatz.check_parameters(theta)
    if not 1 <= ell <= ansatz.num_layers:
        raise IndexError(f"layer index {ell} out of range 1..{ansatz.num_layers}")
    dim = ansatz.dim
    prefix = np.eye(dim, dtype=complex)
    suffix = np.eye(dim, dtype=complex)
    for k in range(ansatz.num_layers):
        gate = ansatz.fixed_unitaries[k] @ pauli_rotation(ansatz.generators[k], theta[k])
        if k < ell:
            prefix = gate @ prefix
        else:
            suffix = gate @ suffix
    return prefix, suffix


def evolve_state(ansatz, theta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply U(theta) to a state layer by layer (no dense circuit matrix)."""
    theta = ansatz.check_parameters(theta)
    if psi.shape != (ansatz.dim,):
        raise ValueError("state dimension does not match ansatz")
    out = psi
    for gen, w, t in zip(ansatz.generators, ansatz.fixed_unitaries, theta):
        out = w @ rotate_state(gen, t, out)
    return out


def expm_i_theta(mat: np.ndarray, theta: float) -> np.ndarray:
    """exp(i*theta*M) for Hermitian M via eigendecomposition."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(1j * theta * vals)[None, :]) @ vecs.conj().T


def expm_pauli(letters: str, theta: float) -> np.ndarray:
    return expm_i_theta(pauli_matrix(letters), theta)


def fd_gradient(ansatz, theta, obs, psi, h=1e-5):
    grad = np.empty(len(theta))
    for k in range(len(theta)):
        up = theta.copy()
        up[k] += h
        dn = theta.copy()
        dn[k] -= h
        grad[k] = (residual_error(ansatz, up, obs, psi) - residual_error(ansatz, dn, obs, psi)) / (2 * h)
    return grad


def fd_hessian(ansatz, theta, obs, psi, h=1e-4):
    layers = len(theta)
    hess = np.empty((layers, layers))
    base = residual_error(ansatz, theta, obs, psi)
    for i in range(layers):
        up = theta.copy()
        up[i] += h
        dn = theta.copy()
        dn[i] -= h
        hess[i, i] = (
            residual_error(ansatz, up, obs, psi) - 2 * base + residual_error(ansatz, dn, obs, psi)
        ) / h**2
        for j in range(i + 1, layers):
            pp = theta.copy()
            pp[[i, j]] += h
            pm = theta.copy()
            pm[i] += h
            pm[j] -= h
            mp = theta.copy()
            mp[i] -= h
            mp[j] += h
            mm = theta.copy()
            mm[[i, j]] -= h
            hess[i, j] = hess[j, i] = (
                residual_error(ansatz, pp, obs, psi)
                - residual_error(ansatz, pm, obs, psi)
                - residual_error(ansatz, mp, obs, psi)
                + residual_error(ansatz, mm, obs, psi)
            ) / (4 * h**2)
    return hess


def parameter_shift_gradient(ansatz, theta, obs, psi):
    """Exact shift rule for involutory generators under the exp(i*theta*P) convention."""
    grad = np.empty(len(theta))
    for k in range(len(theta)):
        up = theta.copy()
        up[k] += np.pi / 4
        dn = theta.copy()
        dn[k] -= np.pi / 4
        grad[k] = residual_error(ansatz, up, obs, psi) - residual_error(ansatz, dn, obs, psi)
    return grad


def dense_output(letters, fixed, theta, psi, obs_matrix):
    """<psi|U' O U|psi> for one circuit, from explicit eigendecomposition exponentials."""
    u = np.eye(len(psi), dtype=complex)
    for gen, w, t in zip(letters, fixed, theta):
        u = w @ expm_pauli(gen, t) @ u
    phi = u @ psi
    return np.vdot(phi, obs_matrix @ phi).real


def dense_output_and_gradient(letters, fixed, theta, psi, obs_matrix):
    """Single-circuit oracle: dense output and its shift-rule gradient (exact for Paulis)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(len(theta))
    for k in range(len(theta)):
        up = theta.copy()
        up[k] += np.pi / 4
        dn = theta.copy()
        dn[k] -= np.pi / 4
        grad[k] = dense_output(letters, fixed, up, psi, obs_matrix) - dense_output(
            letters, fixed, dn, psi, obs_matrix
        )
    return dense_output(letters, fixed, theta, psi, obs_matrix), grad


def gradient_close(analytic, reference, rel=1e-6, abs_floor=1e-9, small=1e-6):
    """Componentwise comparison: relative where the reference is resolvable."""
    analytic = np.asarray(analytic)
    reference = np.asarray(reference)
    for a, r in zip(analytic, reference):
        if abs(r) < small:
            if abs(a - r) > abs_floor:
                return False
        elif abs(a - r) / abs(r) > rel:
            return False
    return True
