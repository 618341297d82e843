"""Independent oracles shared by the test modules.

These deliberately avoid the library's fast paths: the matrix exponential is
built from an eigendecomposition, gradients and Hessians from central finite
differences of the scalar residual, and the parameter-shift rule from shifted
full evaluations.  The dense single-circuit paths (the circuit matrix, its
prefix/suffix split, and layer-by-layer state evolution) live here too; the
library evaluates circuits only in its batched engine.  They are the "second
route" every exact formula is checked against.  They read a circuit's
generators from its codes as letters (:func:`circuit_layers`), never from the
engine's permutation and phase tables, make every fixed layer dense first
(:func:`dense_fixed`), and build the dense CNOT chain that the library's
permutation layer replaces bit by bit (:func:`cnot_chain`).  The lazy Haar
sampler's closed form is checked against its sequential form
(:func:`lazy_haar_sequential`), which draws each layer's two vectors one
layer at a time, forward and then backward (:func:`haar_image`,
:func:`haar_pullback`).  Random streams built one at a time
(:func:`plain_streams`, :func:`plain_substreams`, :func:`fresh_stream`) are
the reference for the library's stream blocks.  Basis states
(:func:`basis_state`) and the meta-kernel g^T H g of the library's exact
gradient and Hessian (:func:`meta_kernel`) live here too: only tests use them.
Dense Pauli matrices are Kronecker products of their letters
(:func:`pauli_matrix`), the oracle for the library's Pauli tables, and a
dense observable is the sum of its terms' (:func:`observable_matrix`).
"""

import numpy as np

from qntklab import residual_error
from qntklab.circuits import uniform_angles
from qntklab.linalg import RngStream, code_letters, zero_state

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string's letters, one Kronecker factor per letter.

    Qubit 0 is the leftmost letter and the most significant index bit.
    The matrix is a new array, which the caller may change.
    """
    out = PAULI_1Q[letters[0]].copy()
    for letter in letters[1:]:
        out = np.kron(out, PAULI_1Q[letter])
    return out


def observable_matrix(obs) -> np.ndarray:
    """The dense matrix of an observable: each term's Kronecker product, scaled and added in term order."""
    acc = np.zeros((obs.dim, obs.dim), dtype=complex)
    for coef, code in obs.terms:
        term = pauli_matrix(code_letters(obs.num_qubits, code))
        term *= coef
        acc += term
    return acc


def basis_state(n: int, index: int) -> np.ndarray:
    """Computational basis state |index> on n qubits."""
    dim = 1 << n
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def meta_kernel(grad: np.ndarray, hessian: np.ndarray) -> float:
    """Quadratic form g^T H g controlling the second-order error update."""
    grad = np.asarray(grad, dtype=float)
    hessian = np.asarray(hessian, dtype=float)
    if hessian.shape != (grad.size, grad.size):
        raise ValueError("gradient and hessian shapes disagree")
    return float(grad @ hessian @ grad)


def plain_streams(seed: int, addresses) -> list[RngStream]:
    """``RngStream(seed, a)`` for every address, each seeded on its own."""
    return [RngStream(seed, a) for a in addresses]


def plain_substreams(streams, index: int) -> list[RngStream]:
    """``s.substream(index)`` for every stream, each seeded on its own."""
    return [s.substream(index) for s in streams]


def fresh_stream(stream: RngStream) -> RngStream:
    """A new stream at the address of ``stream``: its sample sequence from the start."""
    return RngStream(stream.seed, stream.index)


def dense_fixed(w, dim: int) -> np.ndarray:
    """A fixed layer as a dense matrix: I for None, W[i, perm[i]] = 1 for a permutation."""
    if w is None:
        return np.eye(dim, dtype=complex)
    if w.ndim == 1:
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(dim), w] = 1.0
        return mat
    return w


def circuit_layers(circuit, s: int = 0) -> list[tuple[str, np.ndarray]]:
    """(generator letters, dense fixed layer) of every layer of circuit ``s`` of a batch."""
    codes = circuit.codes[s if len(circuit.codes) > 1 else 0]
    fixed = [w[s] if w is not None and w.ndim == 3 else w for w in circuit.fixed]
    return [(code_letters(circuit.num_qubits, int(c)), dense_fixed(w, circuit.dim)) for c, w in zip(codes, fixed)]


def pauli_action(letters: str):
    """Permutation and phase arrays realizing ``P @ v`` in O(D), one letter at a time.

    A Pauli string maps basis state ``|b>`` to ``phase(b) * |b ^ flip_mask>``,
    so the dense product reduces to an index gather plus elementwise phases.
    The reference for ``circuits.code_tables``, which builds the same arrays
    for many codes at once.
    """
    n = len(letters)
    dim = 1 << n
    idx = np.arange(dim)
    flip = 0
    coef = np.ones(dim, dtype=complex)
    for q, letter in enumerate(letters):
        bitpos = n - 1 - q
        bits = (idx >> bitpos) & 1
        if letter == "X":
            flip |= 1 << bitpos
        elif letter == "Y":
            flip |= 1 << bitpos
            coef = coef * (1j * (1 - 2 * bits))
        elif letter == "Z":
            coef = coef * (1 - 2 * bits)
        elif letter != "I":
            raise ValueError(f"unknown Pauli letter {letter!r}")
    perm = idx ^ flip
    # (P v)[j] = coef[perm[j]] * v[perm[j]]
    return perm, coef[perm]


def cnot_chain(n: int) -> np.ndarray:
    """Dense CNOT ladder, control q -> target q+1 for q = 0..n-2, one basis state at a time."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out = b
        for q in range(n - 1):
            control = n - 1 - q
            target = n - 2 - q
            if (out >> control) & 1:
                out ^= 1 << target
        mat[out, b] = 1.0
    return mat


def pauli_rotation(p: str, theta: float) -> np.ndarray:
    """exp(i*theta*P) = cos(theta) I + i sin(theta) P, using P^2 = I."""
    mat = pauli_matrix(p)
    dim = mat.shape[0]
    return np.cos(theta) * np.eye(dim, dtype=complex) + 1j * np.sin(theta) * mat


def rotate_state(p: str, theta: float, psi: np.ndarray) -> np.ndarray:
    """exp(i*theta*P) applied to a state as cos(theta) psi + i sin(theta) P psi, with P dense."""
    return np.cos(theta) * psi + 1j * np.sin(theta) * (pauli_matrix(p) @ psi)


def circuit_unitary(ansatz, theta: np.ndarray) -> np.ndarray:
    """Dense U(theta); layer 1 is the rightmost factor (applied first)."""
    theta = ansatz.check_parameters(theta)
    u = np.eye(ansatz.dim, dtype=complex)
    for (gen, w), t in zip(circuit_layers(ansatz), theta):
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
    for k, (gen, w) in enumerate(circuit_layers(ansatz)):
        gate = w @ pauli_rotation(gen, theta[k])
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
    for (gen, w), t in zip(circuit_layers(ansatz), theta):
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
    """<psi|U' O U|psi> for one circuit, from explicit eigendecomposition exponentials.

    ``fixed`` holds the circuit's fixed layers in any form; each is made dense.
    """
    u = np.eye(len(psi), dtype=complex)
    for gen, w, t in zip(letters, fixed, theta):
        u = dense_fixed(w, len(psi)) @ expm_pauli(gen, t) @ u
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


def haar_image(a: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """x = W a for rows a and a fresh Haar W: |a| z/|z| with z = normals[:, 0] + i normals[:, 1].

    W a is uniform on the sphere of radius |a| for any fixed a, and so is
    |a| z/|z| for a complex Gaussian z.
    """
    z = normals[:, 0] + 1j * normals[:, 1]
    scale = np.linalg.norm(a, axis=1) / np.linalg.norm(z, axis=1)
    return z * scale[:, None]


def haar_pullback(a: np.ndarray, x: np.ndarray, y: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """W^dagger y for rows y, with W the Haar unitary of :func:`haar_image` given W a = x.

    Split y = alpha x + y_perp with y_perp orthogonal to x.  Then
    W^dagger y = alpha a + |y_perp| v: given W a = x, W maps the complement of
    a to that of x by a Haar unitary, so W^dagger y_perp is uniform on the
    sphere of radius |y_perp| orthogonal to a.  v is a complex Gaussian from
    ``normals`` with its a component projected out, normalised.
    """
    alpha = np.sum(x.conj() * y, axis=1) / np.sum(np.abs(x) ** 2, axis=1)
    perp = y - alpha[:, None] * x
    v = normals[:, 0] + 1j * normals[:, 1]
    v -= (np.sum(a.conj() * v, axis=1) / np.sum(np.abs(a) ** 2, axis=1))[:, None] * a
    scale = np.linalg.norm(perp, axis=1) / np.linalg.norm(v, axis=1)
    return alpha[:, None] * a + scale[:, None] * v


def lazy_haar_sequential(n: int, layers: int, stream, obs_matrix: np.ndarray, exclude_identity: bool = True):
    """One lazily drawn random-Haar circuit from its stream, one layer at a time, with dense rotations.

    The stream is read as the library documents it: L generator codes, the
    forward normals (L, 2, D) and then the backward ones (L, 2, D), in two
    fills, and the angles from substream 0.  Returns the gradient (L,), the
    images x_k = W_k a_k of the forward pass and the co-states y_k that the
    backward pass pulls back through each W_k, both (L, D).
    """
    dim = 1 << n
    codes = stream.generator.integers(1 if exclude_identity else 0, 4**n, size=layers)
    forward = stream.generator.standard_normal((layers, 2, dim))
    backward = stream.generator.standard_normal((layers, 2, dim))
    theta = uniform_angles(layers, stream.substream(0))
    gens = [pauli_matrix(code_letters(n, int(c))) for c in codes]
    psi, inputs, images = zero_state(n), [], []
    for gen, t, normals in zip(gens, theta, forward):
        inputs.append(np.cos(t) * psi + 1j * np.sin(t) * gen @ psi)
        images.append(haar_image(inputs[-1][None], normals[None])[0])
        psi = images[-1]
    y, grads, costates = obs_matrix @ psi, np.empty(layers), np.empty((layers, dim), dtype=complex)
    for k in range(layers - 1, -1, -1):
        costates[k] = y
        pulled = haar_pullback(inputs[k][None], images[k][None], y[None], backward[k][None])[0]
        grads[k] = -2.0 * np.vdot(pulled, gens[k] @ inputs[k]).imag
        y = np.cos(theta[k]) * pulled - 1j * np.sin(theta[k]) * gens[k] @ pulled
    return grads, np.array(images).reshape(layers, dim), costates
