"""Ansatz construction: circuits as batches for the engine.

A circuit is an alternating product of fixed unitaries and single-generator
Pauli exponentials,

    U(theta) = W_L exp(i theta_L X_L) ... W_1 exp(i theta_1 X_1),

with layer 1 applied to the state first.  :class:`CircuitBatch` is the one
circuit type: S circuits laid out for the batched engine
(``kernels.forward_adjoint``), which is the only code that evaluates the
product.  A single circuit is a batch of size 1, and
:meth:`CircuitBatch.repeat` shares it S times without copies.  The samplers
draw ensembles straight into a batch (:func:`sample_random_circuits`,
:func:`sample_hardware_efficient`); the ``build_*`` functions are the same
samplers on one stream, and :class:`AnsatzSpec` validates a hand-built one.
The ``instance`` kernel ensembles of random-Haar ``qntk-stats`` evaluate each
circuit once, so ``kernels.haar_instance_kernels`` draws their Haar layers
lazily, two vectors per layer, in closed form for all layers at once, and
never builds a batch.  The chunk grid
(:func:`chunk_grid`) sizes the chunks of either by the bytes a circuit keeps.

A fixed layer W takes one of three forms.  ``None`` is the identity.  A 1-D
integer array ``perm`` is a permutation, (W psi)[i] = psi[perm[i]], such as
the CNOT ladder of :func:`cnot_ladder`.  A complex (D, D) array, or an
(S, D, D) stack in a batch, is a dense unitary, such as a Haar layer.  Only
dense layers are checked for unitarity; the structured forms cost O(D) to
validate and to apply, and :func:`dense_layer` turns any form into a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    STACK_BYTES,
    RngStream,
    ginibre,
    haar_from_ginibre,
    is_unitary,
    letters_code,
    matrices_per_block,
    sample_pauli,
    substreams,
    zero_state,
)

NOT_UNITARY = "fixed layer matrix is not unitary"


def _check_permutation(perm: np.ndarray, dim: int):
    """A permutation layer holds each index 0..D-1 exactly once."""
    if not np.issubdtype(perm.dtype, np.integer):
        raise ValueError("permutation layer must be an integer array")
    if perm.shape != (dim,):
        raise ValueError(f"permutation layer has length {len(perm)}, expected {dim}")
    if not np.array_equal(np.sort(perm), np.arange(dim)):
        raise ValueError("permutation layer must hold each index 0..D-1 once")


def dense_layer(w, dim: int) -> np.ndarray:
    """A fixed layer as a dense matrix: W[i, perm[i]] = 1 for a permutation, I for None."""
    if w is None:
        return np.eye(dim, dtype=complex)
    if w.ndim == 1:
        return np.eye(dim, dtype=complex)[w]
    return w


def _inverse_permutation(perm: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    inverse.setflags(write=False)
    return inverse


@dataclass(frozen=True)
class CircuitBatch:
    """S circuits of equal width and depth, laid out for the batched engine.

    ``fixed[l]`` is the fixed unitary of layer l+1: an (S, D, D) stack with one
    matrix per circuit, or a layer that all S circuits share: ``None`` (the
    identity), a permutation (D,) or a dense (D, D) matrix.  ``codes`` holds
    the base-4 codes (``linalg.code_letters``) of the layers' Pauli
    generators, shape (S, L), or (1, L) when the S circuits share them.  The
    constructor turns them into ``perms`` and ``phases`` (:func:`code_tables`),
    which apply each generator in O(D), shape (L, S or 1, D).  In
    the engine each circuit serves P consecutive rows, one per input state.
    Every array is made read-only, because :meth:`gate_factors` caches
    products of them.
    """

    num_qubits: int
    size: int
    fixed: tuple[np.ndarray, ...] = field(repr=False)
    codes: np.ndarray
    perms: np.ndarray = field(init=False, repr=False)
    phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        perms, phases = code_tables(self.num_qubits, self.codes)
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "phases", phases)
        # the cached gate factors are built from these arrays, so none may change
        for arr in (*self.fixed, self.codes, perms, phases):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def num_layers(self) -> int:
        return self.codes.shape[1]

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def check_parameters(self, theta: np.ndarray) -> np.ndarray:
        """The angles (L,) of a one-circuit batch, as floats."""
        theta = np.asarray(theta, dtype=float)
        if self.size != 1 or theta.shape != (self.num_layers,):
            raise ValueError(
                f"expected the {self.num_layers} angles of one circuit, "
                f"got shape {theta.shape} for {self.size} circuits"
            )
        return theta

    def repeat(self, size: int) -> "CircuitBatch":
        """This one circuit ``size`` times, sharing its codes and every fixed layer, with no copies.

        A per-circuit (1, D, D) layer is passed on as its (D, D) view.
        """
        if self.size != 1:
            raise ValueError(f"only one circuit can be repeated, not {self.size}")
        fixed = tuple(w[0] if w is not None and w.ndim == 3 else w for w in self.fixed)
        return CircuitBatch(self.num_qubits, size, fixed, self.codes)

    def backward_layers(self) -> tuple:
        """The fixed layers as the row-vector backward pass mu <- mu W reads them.

        mu W is a gather by the inverse permutation for a permutation layer,
        so that layer is replaced by its inverse; the others are as in
        ``fixed``.  Built on first use and cached, like :meth:`gate_factors`.
        """
        cache = self.__dict__
        if "_backward_layers" not in cache:
            cache["_backward_layers"] = tuple(
                _inverse_permutation(w) if w is not None and w.ndim == 1 else w for w in self.fixed
            )
        return cache["_backward_layers"]

    def gate_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The angle-independent factors W and W X of every layer's gate, each (L, S, D, D).

        The gate of layer l is W_l exp(i theta X_l) = cos(theta) W_l + i sin(theta) W_l X_l,
        with identity and permutation layers made dense.
        Column c of W X is column perm[c] of W times phase[perm[c]], which is
        conj(phase[c]) because a Pauli string is Hermitian.  Both are built on
        first use, read-only, and kept outside the dataclass fields, so they
        can be neither passed in nor left stale.
        """
        cache = self.__dict__
        if "_gate_factors" not in cache:
            layers, size, dim = self.num_layers, self.size, self.dim
            w = np.empty((layers, size, dim, dim), dtype=complex)
            for out, fixed in zip(w, self.fixed):
                out[...] = dense_layer(fixed, dim)
            rows = (np.arange(layers * size * dim) * dim).reshape(layers, size, dim, 1)
            columns = w.take(rows + self.perms[:, :, None, :])
            columns *= self.phases.conj()[:, :, None, :]
            w.setflags(write=False)
            columns.setflags(write=False)
            cache["_gate_factors"] = w, columns
        return cache["_gate_factors"]


class AnsatzSpec(CircuitBatch):
    """One hand-built circuit, validated: a :class:`CircuitBatch` of size 1.

    ``generators[k]`` (the letters of a Pauli string, such as ``"XZ"``) and
    ``fixed_unitaries[k]`` define layer k+1, whose gate is
    ``fixed_unitaries[k] @ exp(i theta_k generators[k])``, with the fixed
    layer in one of the forms of the module docstring.  The letters are
    checked by ``linalg.letters_code``, a permutation is checked, and so is a
    dense layer's unitarity, once per distinct array.
    """

    def __init__(self, num_qubits: int, generators, fixed_unitaries):
        if len(generators) != len(fixed_unitaries):
            raise ValueError("generator and fixed-unitary lists must have equal length")
        codes = [letters_code(g) for g in generators]
        if any(len(g) != num_qubits for g in generators):
            raise ValueError(f"every generator must act on {num_qubits} qubits")
        dim = 1 << num_qubits
        # a layer array repeated in the circuit is checked once
        checked = set()
        for w in fixed_unitaries:
            if w is None or id(w) in checked:
                continue
            if w.ndim == 1:
                _check_permutation(w, dim)
            elif w.shape != (dim, dim):
                raise ValueError("fixed unitary has wrong dimension")
            elif not is_unitary(w):
                raise ValueError(NOT_UNITARY)
            checked.add(id(w))
        super().__init__(num_qubits, 1, tuple(fixed_unitaries), np.array([codes], dtype=np.int64))


# i^k for k = 0..3, then 1 and -i with a negative zero (the only phases whose zero sign varies)
_PHASES = np.array([1, 1j, -1, complex(0.0, -1.0), complex(1.0, -0.0), 1j, -1, complex(-0.0, -1.0)])


def _prefix_parity(bits: np.ndarray, n: int, work: np.ndarray) -> np.ndarray:
    """Bit i of ``bits`` becomes the XOR of its bits i..n-1, in place (``work`` is scratch)."""
    shift = 1
    while shift < n:
        bits ^= np.right_shift(bits, shift, out=work)
        shift <<= 1
    return bits


def code_tables(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Permutation and phase tables (L, S, D) of generator codes (S, L), as in :class:`CircuitBatch`.

    P = i^|x & z| X^x Z^z (x the X and Y letters, z the Y and Z letters,
    qubit q on bit n-1-q) maps |b> to i^|x & z| (-1)^|z & b| |b ^ x>, so
    (P v)[j] = phase[j] v[perm[j]] with perm = idx ^ x and
    phase = i^(|x & z| + 2 parity(z & perm)).  The masks come from the codes
    on the small (L, S) arrays; on the tables every pass is an int32 one.
    The phases keep the signed zeros of multiplying by i (1 - 2 b) per Y and
    by (1 - 2 b) per Z, qubit by qubit: 1 and -i carry a -0 when that product
    last entered {1, -i} from {-1, i}, not through a Z on a 0 bit or at the start.
    """
    codes = np.ascontiguousarray(np.asarray(codes, dtype=np.int64).T)
    low = (4**n - 1) // 3  # the low bit of every digit
    masks = np.empty((3,) + codes.shape, dtype=np.int64)
    z = np.bitwise_and(codes >> 1, low, out=masks[1])
    np.bitwise_and(codes ^ z, low, out=masks[0])
    np.bitwise_and(masks[0], z, out=masks[2])
    shift = 1
    while shift < n:  # gather bit 2k of each mask onto bit k
        masks |= masks >> shift
        masks &= sum(((1 << 2 * shift) - 1) << (4 * shift * i) for i in range(16 // shift))
        shift <<= 1
    flip, zmask, ymask = masks
    # bits 0 and 1 of the count of Y letters in qubits 0..q: with even Z and Y
    # bits so far the product is i^count, in {1, -i} for counts 0 and 3 mod 4
    odd = _prefix_parity(ymask.copy(), n, np.empty_like(ymask))
    twos = _prefix_parity(ymask & (odd >> 1), n, np.empty_like(ymask))
    idx = np.arange(1 << n)
    perms = idx ^ flip[..., None]
    bits, work, last = (np.empty(perms.shape, dtype=np.int32) for _ in range(3))
    _prefix_parity(np.bitwise_and(perms, zmask[..., None], out=bits), n, work)
    power = np.bitwise_and(bits, 1, out=work).astype(np.int8)
    power *= 2
    power += ((odd & 1) | (twos & 1) << 1).astype(np.int8)[..., None]
    power &= 3
    # bit n-1-q of bits: the product after qubit q is in {1, -i}; of work: it entered {1, -i} there
    bits ^= (~(odd ^ twos) & ((1 << n) - 1)).astype(np.int32)[..., None]
    np.right_shift(bits, 1, out=work)
    work |= 1 << (n - 1)
    np.invert(work, out=work)
    work &= bits
    # a reset is a Z on a 0 bit inside; the last event was an entry if one lies at or below the lowest reset
    bits &= (zmask & ~ymask).astype(np.int32)[..., None]
    bits &= ~idx.astype(np.int32)
    np.subtract(bits, 1, out=last)
    last ^= bits
    last &= work
    np.add(power, 4, out=power, where=last != 0)
    del bits, work, last
    return perms, _PHASES[power]


def samples_per_chunk(dim: int, layers: int, lazy: bool = False) -> int:
    """Circuits per ensemble chunk: as many circuits as fit in STACK_BYTES.

    A random-Haar circuit holds L dense (D, D) layers.  With ``lazy`` Haar
    layers (``kernels.haar_instance_kernels``) what it holds is its
    normals, 4 L D floats; the chunk's normals fit the budget, and the
    kernel cuts its other arrays into blocks of layers that fit it too.  The chunk grid of
    an ensemble depends only on its width and depth and on which of the two
    it is, never on how many workers compute it, so every circuit is always
    batched with the same companions and results do not depend on the worker
    count.
    """
    per_layer = dim * 32 if lazy else dim * dim * 16
    return max(1, STACK_BYTES // (max(layers, 1) * per_layer))


def chunk_grid(count: int, dim: int, layers: int, lazy: bool = False) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of the ensemble chunks of ``count`` circuits."""
    step = samples_per_chunk(dim, layers, lazy)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _draw_random_layers(n: int, layers: int, streams, exclude_identity: bool):
    """Generator codes (S, L) and Haar fixed layers (S, L, D, D) of S random circuits.

    Circuit s draws from ``streams[s]`` in the order of a circuit built alone:
    per layer the generator code, then the real and the imaginary part of the
    Ginibre matrix, both in one normal fill of a contiguous (2, D, D) slot
    (the generator fills in order, so that is the draw of the two parts one
    after the other).  The Ginibre matrices are QR'd and phase-fixed in blocks
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
    parts = np.empty((min(step, count), 2, dim, dim))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        for i in range(lo, hi):
            s, layer = divmod(i, layers)
            rng = streams[s]
            codes[s, layer] = sample_pauli(n, rng, exclude_identity)
            rng.generator.standard_normal(out=parts[i - lo])
        block = flat[lo:hi]
        block[...] = haar_from_ginibre(ginibre(parts[: hi - lo, 0], parts[: hi - lo, 1], out=block))
    return codes, stack


def sample_random_circuits(
    n: int, layers: int, streams, exclude_identity: bool = True
) -> CircuitBatch:
    """Random circuits, one per stream, with their Haar layers stacked (S, D, D).

    Circuit s is ``build_random_ansatz(n, layers, streams[s])``.
    """
    codes, stack = _draw_random_layers(n, layers, streams, exclude_identity)
    if not is_unitary(stack):
        raise ValueError(NOT_UNITARY)
    return CircuitBatch(n, len(streams), tuple(stack.swapaxes(0, 1)), codes)


def build_random_ansatz(
    n: int, layers: int, rng: RngStream, exclude_identity: bool = True
) -> CircuitBatch:
    """Random circuit family: fresh Haar W_l, fresh uniform Pauli generators.

    One circuit, with each Haar layer a shared (D, D) matrix.  Sampled once
    and immutable afterwards; optimizing the angles never touches the W_l or
    the generators.
    """
    return sample_random_circuits(n, layers, [rng], exclude_identity).repeat(1)


def cnot_ladder(n: int) -> np.ndarray:
    """The CNOT ladder, control q -> target q+1 for q = 0..n-2 in turn, as a permutation layer.

    The ladder maps |b> to |f(b)>, where bit q of f(b) is the XOR of bits
    0..q of b (qubit 0 is the most significant bit): f is the inverse Gray
    code.  So (W psi)[i] = psi[g(i)] with g(i) = i XOR (i >> 1), the Gray code.
    """
    index = np.arange(1 << n)
    return index ^ (index >> 1)


def sample_hardware_efficient(n: int, depth: int, variant: str, streams) -> CircuitBatch:
    """Hardware-efficient circuits, one per stream, unrolled into the single-generator normal form.

    ``cphase-ladder``: each depth block is one parameterized Pauli rotation per
    qubit (axis drawn uniformly from X/Y/Z, independently per qubit per block)
    followed by a linear ladder of parameterized two-qubit phase couplings,
    realized as involutory ZZ generators so every layer is exp(i theta P) with
    P a Pauli string.  Parameter count per block: n + (n - 1).  Stream s draws
    the axes block by block, qubit by qubit.

    ``cnot-su2``: general single-qubit rotations as Z-Y-Z generator triplets on
    each qubit, followed by a fixed CNOT chain carried by the last rotation
    layer of the block.  Parameter count per block: 3n.  Nothing is drawn,
    so the circuits share their codes.

    The fixed layers are ``None`` (the identity) except the CNOT ladder, one
    permutation array shared by the blocks and the circuits: no dense matrix
    is built.
    """
    if n < 2:
        raise ValueError("hardware-efficient ansatz needs n >= 2 (no entangler otherwise)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # letter d (X=1, Y=2, Z=3) on qubit q alone has code d * place[q]; qubit 0 is the top digit
    place = [4 ** (n - 1 - q) for q in range(n)]
    if variant == "cphase-ladder":
        couplings = [3 * (place[q] + place[q + 1]) for q in range(n - 1)]

        def block(rng):
            return [(1 + int(rng.generator.integers(0, 3))) * p for p in place] + couplings

        codes = [[c for _ in range(depth) for c in block(rng)] for rng in streams]
        fixed = (None,) * len(codes[0])
    elif variant == "cnot-su2":
        codes = [[letter * p for p in place for letter in (3, 2, 3)] * depth]
        fixed = ((None,) * (3 * n - 1) + (cnot_ladder(n),)) * depth
    else:
        raise ValueError(f"unknown hardware-efficient variant {variant!r}")
    return CircuitBatch(n, len(streams), fixed, np.array(codes, dtype=np.int64))


def build_hardware_efficient(n: int, depth: int, variant: str, rng: RngStream) -> CircuitBatch:
    """One hardware-efficient circuit (:func:`sample_hardware_efficient` on one stream)."""
    return sample_hardware_efficient(n, depth, variant, [rng])


def uniform_angles(layers: int, rng: RngStream) -> np.ndarray:
    """Initial angles drawn independently and uniformly from [0, 2*pi)."""
    return rng.generator.uniform(0.0, 2.0 * np.pi, size=layers)


def ensemble_angles(layers: int, streams) -> np.ndarray:
    """Angles (L, S) of an ensemble chunk: circuit s draws from ``streams[s].substream(0)``."""
    return np.stack([uniform_angles(layers, s) for s in substreams(streams, 0)], axis=1)


__all__ = [
    "AnsatzSpec",
    "CircuitBatch",
    "build_hardware_efficient",
    "build_random_ansatz",
    "chunk_grid",
    "cnot_ladder",
    "dense_layer",
    "ensemble_angles",
    "sample_hardware_efficient",
    "sample_random_circuits",
    "samples_per_chunk",
    "uniform_angles",
    "zero_state",
]
