"""Ansatz construction and state evolution.

A circuit is an alternating product of fixed unitaries and single-generator
Pauli exponentials,

    U(theta) = W_L exp(i theta_L X_L) ... W_1 exp(i theta_1 X_1),

with layer 1 applied to the state first.  :class:`AnsatzSpec` describes one
validated circuit; :class:`CircuitBatch` lays S of them out for the batched
engine (``kernels.forward_adjoint``), which is the only code that evaluates
the product.  Random-Haar ensembles are sampled straight into a batch by
:func:`sample_random_circuits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    STACK_BYTES,
    PauliString,
    RngStream,
    _pauli_action,
    code_letters,
    ginibre,
    haar_from_ginibre,
    is_unitary,
    matrices_per_block,
    pauli_code,
    zero_state,
)


@dataclass(frozen=True)
class AnsatzSpec:
    """Immutable layered-circuit description.

    ``generators[k]`` and ``fixed_unitaries[k]`` define layer k+1; the layer's
    gate is ``fixed_unitaries[k] @ exp(i theta_k generators[k])``.
    """

    num_qubits: int
    generators: tuple[PauliString, ...]
    fixed_unitaries: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.generators) != len(self.fixed_unitaries):
            raise ValueError("generator and fixed-unitary lists must have equal length")
        dim = 1 << self.num_qubits
        # hardware-efficient circuits reuse one identity array for most layers:
        # each distinct array is checked once
        checked = set()
        for w in self.fixed_unitaries:
            if w.shape != (dim, dim):
                raise ValueError("fixed unitary has wrong dimension")
            if id(w) in checked:
                continue
            if not is_unitary(w):
                raise ValueError("fixed layer matrix is not unitary")
            w.setflags(write=False)
            checked.add(id(w))

    @property
    def num_layers(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def check_parameters(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_layers,):
            raise ValueError(
                f"expected {self.num_layers} angles, got shape {theta.shape}"
            )
        return theta

    def batch(self, size: int = 1) -> "CircuitBatch":
        """This circuit repeated ``size`` times, sharing every layer."""
        return CircuitBatch.from_specs([self] * size)


@dataclass(frozen=True)
class CircuitBatch:
    """S circuits of equal width and depth, laid out for the batched engine.

    ``fixed[l]`` is the fixed unitary of layer l+1: an (S, D, D) stack with one
    matrix per circuit, or a single (D, D) matrix that all S circuits share.
    ``perms[l]`` and ``phases[l]`` apply the layer's Pauli generator as in
    :func:`linalg._pauli_action`, one entry per circuit, or a single entry
    when the generator is shared; both have shape (L, S or 1, D).  In the
    engine each circuit serves P consecutive rows, one per input state.
    """

    num_qubits: int
    size: int
    fixed: tuple[np.ndarray, ...] = field(repr=False)
    perms: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)

    @property
    def num_layers(self) -> int:
        return len(self.fixed)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    @classmethod
    def from_specs(cls, specs) -> "CircuitBatch":
        """Batch of validated circuits.

        A layer whose fixed matrix is the same in every circuit (the same
        array, or equal entries) is passed once as a shared (D, D) matrix and
        never copied; the others are stacked.
        """
        first = specs[0]
        if any(
            s.num_qubits != first.num_qubits or s.num_layers != first.num_layers for s in specs
        ):
            raise ValueError("batched circuits must have equal width and depth")
        fixed = []
        for layer, w in enumerate(first.fixed_unitaries):
            others = [s.fixed_unitaries[layer] for s in specs[1:]]
            if all(o is w or np.array_equal(o, w) for o in others):
                fixed.append(w)
            else:
                fixed.append(np.stack([w] + others))
        if all(s.generators == first.generators for s in specs):
            rows = [first.generators]
        else:
            rows = [s.generators for s in specs]
        letters = sorted({g.letters for row in rows for g in row})
        where = {x: i for i, x in enumerate(letters)}
        index = np.array([[where[g.letters] for g in row] for row in rows], dtype=np.intp)
        perms, phases = _generator_tables(letters, index.T, first.dim)
        return cls(first.num_qubits, len(specs), tuple(fixed), perms, phases)


def _generator_tables(letters: list[str], index: np.ndarray, dim: int):
    """Permutation and phase tables of the generators ``letters[index[l, s]]``."""
    if not letters:
        return np.empty(index.shape + (dim,), dtype=np.intp), np.empty(index.shape + (dim,), dtype=complex)
    actions = [_pauli_action(x) for x in letters]
    perms = np.stack([a[0] for a in actions])[index]
    phases = np.stack([a[1] for a in actions])[index]
    return perms, phases


def samples_per_chunk(dim: int, layers: int) -> int:
    """Circuits per ensemble chunk: as many random-Haar circuits as fit in STACK_BYTES.

    The chunk grid of an ensemble depends only on its width and depth, never
    on how many workers compute it, so every circuit is always batched with
    the same companions and results do not depend on the worker count.
    """
    return max(1, STACK_BYTES // (max(layers, 1) * dim * dim * 16))


def chunk_grid(count: int, dim: int, layers: int) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of the ensemble chunks of ``count`` circuits."""
    step = samples_per_chunk(dim, layers)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _draw_random_layers(n: int, layers: int, streams, exclude_identity: bool):
    """Generator codes (S, L) and Haar fixed layers (S, L, D, D) of S random circuits.

    Circuit s draws from ``streams[s]`` in the order of a circuit built alone:
    per layer the generator code, then the real and the imaginary part of the
    Ginibre matrix.  The Ginibre matrices are QR'd and phase-fixed in blocks
    of at most STACK_BYTES, so at D >= 128 one matrix at a time.
    """
    if n < 1 or layers < 0:
        raise ValueError("need n >= 1 and layers >= 0")
    dim = 1 << n
    count = len(streams) * layers
    codes = np.empty((len(streams), layers), dtype=np.int64)
    stack = np.empty((len(streams), layers, dim, dim), dtype=complex)
    flat = stack.reshape(count, dim, dim)
    step = matrices_per_block(dim)
    real = np.empty((min(step, count), dim, dim))
    imag = np.empty_like(real)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        for i in range(lo, hi):
            s, layer = divmod(i, layers)
            rng = streams[s]
            codes[s, layer] = pauli_code(n, rng, exclude_identity)
            rng.generator.standard_normal(out=real[i - lo])
            rng.generator.standard_normal(out=imag[i - lo])
        block = flat[lo:hi]
        block[...] = haar_from_ginibre(ginibre(real[: hi - lo], imag[: hi - lo], out=block))
    return codes, stack


def sample_random_circuits(
    n: int, layers: int, streams, exclude_identity: bool = True
) -> CircuitBatch:
    """Random circuits, one per stream, each identical to ``build_random_ansatz(n, layers, stream)``."""
    codes, stack = _draw_random_layers(n, layers, streams, exclude_identity)
    if not is_unitary(stack):
        raise ValueError("fixed layer matrix is not unitary")
    distinct, index = np.unique(codes, return_inverse=True)
    letters = [code_letters(n, int(c)) for c in distinct]
    perms, phases = _generator_tables(letters, index.reshape(codes.shape).T, 1 << n)
    fixed = tuple(stack[:, layer] for layer in range(layers))
    return CircuitBatch(n, len(streams), fixed, perms, phases)


def build_random_ansatz(
    n: int, layers: int, rng: RngStream, exclude_identity: bool = True
) -> AnsatzSpec:
    """Random circuit family: fresh Haar W_l, fresh uniform Pauli generators.

    Sampled once and immutable afterwards; optimizing the angles never touches
    the W_l or the generators.
    """
    codes, stack = _draw_random_layers(n, layers, [rng], exclude_identity)
    gens = tuple(PauliString(code_letters(n, int(c))) for c in codes[0])
    return AnsatzSpec(n, gens, tuple(stack[0]))


def _single_qubit_string(n: int, qubit: int, letter: str) -> PauliString:
    s = ["I"] * n
    s[qubit] = letter
    return PauliString("".join(s))


def _two_qubit_string(n: int, q1: int, q2: int, letter: str) -> PauliString:
    s = ["I"] * n
    s[q1] = letter
    s[q2] = letter
    return PauliString("".join(s))


def cnot_chain(n: int) -> np.ndarray:
    """Dense CNOT ladder, control q -> target q+1 for q = 0..n-2."""
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


def build_hardware_efficient(
    n: int, depth: int, variant: str, rng: RngStream
) -> AnsatzSpec:
    """Hardware-efficient families, unrolled into the single-generator normal form.

    ``cphase-ladder``: each depth block is one parameterized Pauli rotation per
    qubit (axis drawn uniformly from X/Y/Z, independently per qubit per block)
    followed by a linear ladder of parameterized two-qubit phase couplings,
    realized as involutory ZZ generators so every layer is exp(i theta P) with
    P a Pauli string.  Parameter count per block: n + (n - 1).

    ``cnot-su2``: general single-qubit rotations as Z-Y-Z generator triplets on
    each qubit, followed by a fixed CNOT chain carried by the last rotation
    layer of the block.  Parameter count per block: 3n.
    """
    if n < 2:
        raise ValueError("hardware-efficient ansatz needs n >= 2 (no entangler otherwise)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dim = 1 << n
    eye = np.eye(dim, dtype=complex)
    gens: list[PauliString] = []
    fixed: list[np.ndarray] = []
    if variant == "cphase-ladder":
        for _ in range(depth):
            for q in range(n):
                axis = "XYZ"[int(rng.generator.integers(0, 3))]
                gens.append(_single_qubit_string(n, q, axis))
                fixed.append(eye)
            for q in range(n - 1):
                gens.append(_two_qubit_string(n, q, q + 1, "Z"))
                fixed.append(eye)
    elif variant == "cnot-su2":
        chain = cnot_chain(n)
        for _ in range(depth):
            for q in range(n):
                for axis in ("Z", "Y", "Z"):
                    gens.append(_single_qubit_string(n, q, axis))
                    fixed.append(eye)
            fixed[-1] = chain
    else:
        raise ValueError(f"unknown hardware-efficient variant {variant!r}")
    return AnsatzSpec(n, tuple(gens), tuple(fixed))


def y_tilted_state(n: int, angle: float = np.pi / 8) -> np.ndarray:
    """Product state (exp(-i angle Y)|0>)^n used by the 4-qubit hardware runs."""
    single = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
    psi = single
    for _ in range(n - 1):
        psi = np.kron(psi, single)
    return psi


def uniform_angles(layers: int, rng: RngStream) -> np.ndarray:
    """Initial angles drawn independently and uniformly from [0, 2*pi)."""
    return rng.generator.uniform(0.0, 2.0 * np.pi, size=layers)


def ensemble_angles(layers: int, streams) -> np.ndarray:
    """Angles (L, S) of an ensemble chunk: circuit s draws from ``streams[s].substream(0)``."""
    return np.stack([uniform_angles(layers, s.substream(0)) for s in streams], axis=1)


__all__ = [
    "AnsatzSpec",
    "CircuitBatch",
    "build_hardware_efficient",
    "build_random_ansatz",
    "chunk_grid",
    "cnot_chain",
    "ensemble_angles",
    "sample_random_circuits",
    "samples_per_chunk",
    "uniform_angles",
    "y_tilted_state",
    "zero_state",
]
