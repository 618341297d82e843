"""Dense complex linear algebra, Pauli-string algebra, and seeded random sampling.

Everything downstream (circuits, kernels, Monte-Carlo oracles) is built on the
primitives here: Kronecker-product Pauli operators and their O(D)
permutation-and-phase action, Haar-distributed unitaries, and reproducible
random streams keyed by a (master seed, stream index) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAULI_LETTERS = "IXYZ"

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

UNITARY_ATOL = 1e-10

# Byte budget of one stack of dense matrices: Haar draws are QR'd and checked
# in blocks of at most this size, and ensembles are cut into chunks whose
# fixed-layer stacks fit in it.  A single matrix larger than the budget is
# handled on its own, as a stack of one.
STACK_BYTES = 1 << 18


class RngStream:
    """Deterministic random stream addressed by (master seed, stream index).

    Two streams with the same address produce bit-identical sample sequences
    regardless of process, thread schedule, or creation order.  Substreams are
    derived by extending the index path, so per-trial / per-sample generators
    can be handed out without any shared mutable state.
    """

    def __init__(self, seed: int, index: int | tuple[int, ...] = 0):
        self.seed = int(seed)
        self.index = (int(index),) if isinstance(index, (int, np.integer)) else tuple(int(i) for i in index)
        self._generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.index))
        )

    def substream(self, index: int) -> "RngStream":
        """Derive an independent child stream at the given index."""
        return RngStream(self.seed, self.index + (int(index),))

    def reset(self) -> "RngStream":
        """Fresh stream at the same address (restarts the sample sequence)."""
        return RngStream(self.seed, self.index)

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self):
        return f"RngStream(seed={self.seed}, index={self.index})"


@lru_cache(maxsize=4096)
def _pauli_action(letters: str):
    """Permutation and phase arrays realizing ``P @ v`` in O(D).

    A Pauli string maps basis state ``|b>`` to ``phase(b) * |b ^ flip_mask>``,
    so the dense product reduces to an index gather plus elementwise phases.
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


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit I/X/Y/Z operators, e.g. ``"XZI"``.

    Qubit 0 is the leftmost letter and the most significant index bit, matching
    the Kronecker-product order of :func:`pauli_matrix`.
    """

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in PAULI_LETTERS for c in self.letters):
            raise ValueError(f"invalid Pauli string {self.letters!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @property
    def dim(self) -> int:
        return 1 << len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def apply(self, arr: np.ndarray) -> np.ndarray:
        """Apply to a statevector (or to each column of a matrix, ``P @ A``)."""
        perm, coef = _pauli_action(self.letters)
        if arr.ndim == 1:
            return coef * arr[perm]
        return coef[:, None] * arr[perm, :]

    def __str__(self):
        return self.letters


def pauli_matrix(p: PauliString | str) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string (Hermitian, unitary)."""
    letters = p.letters if isinstance(p, PauliString) else p
    out = PAULI_1Q[letters[0]]
    for letter in letters[1:]:
        out = np.kron(out, PAULI_1Q[letter])
    return out


def matrices_per_block(dim: int) -> int:
    """How many dim x dim complex matrices fit in :data:`STACK_BYTES` (at least one)."""
    return max(1, STACK_BYTES // (dim * dim * 16))


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (..., D, D) of complex Ginibre matrices.

    Each Q factor is phase-fixed by scaling column k with R_kk/|R_kk|, which
    selects the unique QR factorization with positive-diagonal R; that factor
    is exactly Haar regardless of the LAPACK phase convention.  A stacked QR
    gives the same bits per matrix as one QR per matrix.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def ginibre(real: np.ndarray, imag: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Complex Ginibre matrices (real + i imag) / sqrt(2) from standard normal parts.

    With ``out`` the result is formed in place, bit for bit as without it.
    """
    out = np.multiply(imag, 1j, out=out)
    out += real
    out /= np.sqrt(2.0)
    return out


def haar_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unitary via the phase-fixed QR of a complex Ginibre matrix.

    The real part is drawn before the imaginary part.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gen = rng.generator
    return haar_from_ginibre(ginibre(gen.standard_normal((dim, dim)), gen.standard_normal((dim, dim))))


def pauli_code(n: int, rng: RngStream, exclude_identity: bool = True) -> int:
    """Base-4 code of a uniform Pauli string; the last letter is the lowest digit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return int(rng.generator.integers(1 if exclude_identity else 0, 4**n))


def code_letters(n: int, code: int) -> str:
    """Letters of the Pauli string with base-4 code ``code`` (I=0, X=1, Y=2, Z=3)."""
    letters = []
    for _ in range(n):
        letters.append(PAULI_LETTERS[code % 4])
        code //= 4
    return "".join(reversed(letters))


def sample_pauli(n: int, rng: RngStream, exclude_identity: bool = True) -> PauliString:
    """Uniform unsigned Pauli string on n qubits.

    With ``exclude_identity`` (the default for circuit generators) the draw is
    uniform over the 4^n - 1 nontrivial strings; the all-identity string would
    be a dead parameter since it commutes with every observable.
    """
    return PauliString(code_letters(n, pauli_code(n, rng, exclude_identity)))


def zero_state(n: int) -> np.ndarray:
    """|0...0> on n qubits."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def basis_state(n: int, index: int) -> np.ndarray:
    """Computational basis state |index> on n qubits."""
    dim = 1 << n
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def is_unitary(mat: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    """Whether every matrix of a stack (..., D, D) is unitary to ``atol``.

    The stack is checked in blocks of :func:`matrices_per_block`, so the check
    never holds more than :data:`STACK_BYTES` of products at once.
    """
    dim = mat.shape[-1]
    flat = mat.reshape(-1, dim, dim)
    eye = np.eye(dim)
    step = matrices_per_block(dim)
    for lo in range(0, len(flat), step):
        block = flat[lo : lo + step]
        if not np.max(np.abs(block.conj().swapaxes(-1, -2) @ block - eye)) <= atol:
            return False
    return True


def kahan_sum(values) -> float:
    """Compensated (Kahan-Babuska) sum; deterministic for a fixed iteration order."""
    total = 0.0
    carry = 0.0
    for v in values:
        v = float(v)
        t = total + v
        if abs(total) >= abs(v):
            carry += (total - t) + v
        else:
            carry += (v - t) + total
        total = t
    return total + carry
