"""Independent oracles shared by the test modules.

These deliberately avoid the library's fast paths: the matrix exponential is
built from an eigendecomposition, gradients and Hessians from central finite
differences of the scalar residual, and the parameter-shift rule from shifted
full evaluations.  They are the "second route" every exact formula is checked
against.
"""

import numpy as np

from qntklab import residual_error
from qntklab.linalg import pauli_matrix


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
