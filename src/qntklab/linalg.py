"""Dense complex linear algebra, Pauli strings as base-4 codes, and seeded random sampling.

Everything downstream (circuits, kernels, Monte-Carlo oracles) is built on the
primitives here.  A Pauli string is held as its base-4 code (I=0, X=1, Y=2,
Z=3, qubit 0 the most significant digit).  Letters are read and written only
at the edges (:func:`letters_code`, :func:`code_letters`); no dense Pauli
matrix is built here (``circuits.code_tables`` applies a string in O(D)).
The rest are Haar-distributed unitaries and reproducible random streams keyed
by a (master seed, stream index) pair, built one at a time or as a block.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

PAULI_LETTERS = "IXYZ"

UNITARY_ATOL = 1e-10

# Byte budget of one stack of dense matrices: Haar draws are QR'd and checked
# in blocks of at most this size, and ensembles are cut into chunks whose
# fixed-layer stacks fit in it.  A single matrix larger than the budget is
# handled on its own, as a stack of one.
STACK_BYTES = 1 << 18

# Streams of one stream block that draws matrices one after another: a stream
# holds about 1 KiB, so the block's generators fit in STACK_BYTES.
STREAMS_PER_BLOCK = STACK_BYTES >> 10


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

    @classmethod
    def _from_state(cls, seed: int, index: tuple[int, ...], state: np.ndarray) -> "RngStream":
        """The stream at (seed, index), given the four uint64 words its SeedSequence would generate."""
        stream = cls.__new__(cls)
        stream.seed, stream.index = seed, index
        stream._generator = np.random.Generator(np.random.PCG64(_StateWords(state)))
        return stream

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self):
        return f"RngStream(seed={self.seed}, index={self.index})"


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


class _StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 the state words SeedSequence would generate, precomputed.

    PCG64 asks its seed sequence for ``generate_state(4, np.uint64)`` once,
    when it is built, and seeds itself from those words.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _uint32_words(value: int) -> list[int]:
    """The uint32 words of a non-negative integer, least significant first, as SeedSequence splits it."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) uint32 pairs of hashes start .. start + count - 1 of a constant chain.

    SeedSequence's hash number i xors its value with c_i and multiplies it
    by c_(i+1), where c_0 = init and c_(i+1) = c_i * mult mod 2^32.
    """
    chain = [init]
    for _ in range(start + count):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain[start:], dtype=np.uint32)
    chain.setflags(write=False)  # cached: shared by every caller
    return chain[:-1], chain[1:]


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


def _mix_words(pool: np.ndarray, words: np.ndarray, start: int) -> np.ndarray:
    """Pools (K, 4) after mixing in words (K, m), from hash number ``start`` on.

    SeedSequence mixes every word past the pool size into each pool entry in
    turn; the word's hashes do not depend on the pool, so they are formed
    for all words at once.
    """
    xor, mult = _hash_constants(_INIT_A, _MULT_A, start, _POOL * words.shape[1])
    hashed = _hashmix(words[..., None], xor.reshape(-1, _POOL), mult.reshape(-1, _POOL))
    for j in range(words.shape[1]):
        pool = _mix(pool, hashed[:, j])
    return pool


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool (4,) after the words of ``seed``, and how many hashes they took.

    A spawn key makes SeedSequence pad the seed's words with zeros to the
    pool size.  The first four words fill the pool, which is then mixed
    entry by entry; any later seed words are mixed in as the address's are.
    """
    words = _uint32_words(seed)
    words = np.array(words + [0] * (_POOL - len(words)), dtype=np.uint32)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 0, _POOL * _POOL)
    pool = [_hashmix(words[i : i + 1], xor[i], mult[i]) for i in range(_POOL)]
    hashes = iter(zip(xor[_POOL:], mult[_POOL:]))
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(hashes)))
    pool = _mix_words(np.concatenate(pool)[None], words[None, _POOL:], _POOL * _POOL)[0]
    pool.setflags(write=False)  # cached: shared by every caller
    return pool, _POOL * len(words)


def _state_words(seed: int, words: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=a).generate_state(4, uint64)`` (K, 4) for address words (K, m)."""
    pool, hashes = _seed_pool(seed)
    pool = _mix_words(np.repeat(pool[None], len(words), axis=0), words, hashes)
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL)
    state = _hashmix(np.concatenate((pool, pool), axis=1), xor, mult)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def stream_block(seed: int, addresses) -> list[RngStream]:
    """``[RngStream(seed, a) for a in addresses]``, with the SeedSequence hashing vectorized.

    Bit-identical to the streams built one at a time: SeedSequence's uint32
    pool mixing is done for all addresses at once (the seed's part once per
    seed), and each stream's PCG64 is seeded by numpy from its precomputed
    state words.  The streams share no generator state.  Addresses are
    non-empty tuples of non-negative integers; those whose entries split into
    different numbers of uint32 words (entries of 2^32 and more) are hashed
    in one block per word count.
    """
    seed = int(seed)
    addresses = [tuple(map(int, a)) for a in addresses]
    if not addresses:
        return []
    if not all(addresses):
        raise ValueError("stream block addresses must be non-empty")
    flat = [i for a in addresses for i in a]
    # the common case: every entry is one uint32 word, so the addresses are the words
    if len({len(a) for a in addresses}) == 1 and 0 <= min(flat) and max(flat) <= _MASK32:
        words = np.array(addresses, dtype=np.uint32)
        return [RngStream._from_state(seed, a, w) for a, w in zip(addresses, _state_words(seed, words))]
    words = [[w for i in a for w in _uint32_words(i)] for a in addresses]
    streams = [None] * len(addresses)
    for count in {len(w) for w in words}:
        ks = [k for k, w in enumerate(words) if len(w) == count]
        state = _state_words(seed, np.array([words[k] for k in ks], dtype=np.uint32))
        for k, w in zip(ks, state):
            streams[k] = RngStream._from_state(seed, addresses[k], w)
    return streams


def substreams(streams, index: int) -> list[RngStream]:
    """``[s.substream(index) for s in streams]``, as one stream block when the streams share their seed."""
    seeds = {s.seed for s in streams}
    if len(seeds) != 1:
        return [s.substream(index) for s in streams]
    return stream_block(seeds.pop(), [s.index + (int(index),) for s in streams])


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


def code_letters(n: int, code: int) -> str:
    """Letters of the Pauli string with base-4 code ``code`` (I=0, X=1, Y=2, Z=3)."""
    letters = []
    for _ in range(n):
        letters.append(PAULI_LETTERS[code % 4])
        code //= 4
    return "".join(reversed(letters))


def letters_code(letters: str) -> int:
    """Base-4 code of a Pauli string's letters, the inverse of :func:`code_letters`.

    This is the one check of letters: a string that is empty or holds
    anything but I, X, Y and Z is refused.
    """
    if not letters or any(x not in PAULI_LETTERS for x in letters):
        raise ValueError(f"invalid Pauli string {letters!r}")
    return int("".join(str(PAULI_LETTERS.index(x)) for x in letters), 4)


def sample_pauli(n: int, rng: RngStream, exclude_identity: bool = True) -> int:
    """Base-4 code of a uniform Pauli string on n qubits.

    With ``exclude_identity`` (the default for circuit generators) the draw is
    uniform over the 4^n - 1 nontrivial strings; the all-identity string would
    be a dead parameter since it commutes with every observable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return int(rng.generator.integers(1 if exclude_identity else 0, 4**n))


def zero_state(n: int) -> np.ndarray:
    """|0...0> on n qubits."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
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
