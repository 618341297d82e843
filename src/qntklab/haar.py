"""Monte-Carlo verification of the Haar-moment identities behind the theory.

These estimators are the independent oracle for the closed forms: they never
call the closed-form algebra except to attach a target for the z-score.  Means
are reduced with compensated summation in sample-index order, so estimates are
bit-identical however the sample range is partitioned across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import chunk_grid, sample_random_circuits
from .kernels import Observable, ensemble_kernels
from .linalg import STREAMS_PER_BLOCK, RngStream, ginibre, haar_from_ginibre, kahan_sum, matrices_per_block
from .linalg import stream_block
from .theory import kbar_exact


@dataclass
class MomentEstimate:
    """Sample mean of an identity's integrand with its target and z-score."""

    mean: float
    std_error: float
    count: int
    target: float
    z_score: float

    @classmethod
    def from_samples(cls, values: np.ndarray, target: float) -> "MomentEstimate":
        values = np.asarray(values, dtype=float)
        count = len(values)
        mean = kahan_sum(values) / count
        if count > 1:
            var = kahan_sum((values - mean) ** 2) / (count - 1)
            std_error = float(np.sqrt(var / count))
        else:
            std_error = 0.0
        if std_error > 0.0:
            z = (mean - target) / std_error
        else:
            z = 0.0 if mean == target else float(np.inf)
        return cls(mean=float(mean), std_error=std_error, count=count, target=float(target), z_score=float(z))

    @property
    def consistent(self) -> bool:
        return abs(self.z_score) <= 3.0

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "count": self.count,
            "target": self.target,
            "z_score": self.z_score,
            "pass": self.consistent,
        }


def mc_second_moment(
    dim: int, psi: np.ndarray, op: np.ndarray, samples: int, rng: RngStream
) -> MomentEstimate:
    """Average of <psi|V' P V|psi>^2 over Haar V against Tr(P^2)/(D^2+D).

    Requires a traceless Hermitian P and a normalized pure state; this is the
    second-moment identity every kernel average rests on.
    """
    op = np.asarray(op, dtype=complex)
    if abs(np.trace(op)) > 1e-10:
        raise ValueError("operator must be traceless")
    if np.max(np.abs(op - op.conj().T)) > 1e-10:
        raise ValueError("operator must be Hermitian")
    target = float(np.real(np.trace(op @ op))) / (dim**2 + dim)
    values = np.empty(samples)
    for lo, v in _haar_blocks(dim, samples, rng):
        w = v @ psi
        values[lo : lo + len(v)] = np.real(np.sum(w.conj() * (w @ op.T), axis=1)) ** 2
    return MomentEstimate.from_samples(values, target)


def mc_commutator_trace(
    dim: int, x_op: np.ndarray, obs: np.ndarray, samples: int, rng: RngStream
) -> MomentEstimate:
    """Average of Tr([X, V' O V]^2) over Haar V against its 2-design value.

    The target is -2 (D Tr(O^2) - Tr^2 O)/(D^2-1) (Tr(X^2) - Tr^2 X / D); every
    sample is nonpositive since the commutator of Hermitians is anti-Hermitian.
    Requires an involutory X (X^2 = I).
    """
    x_op = np.asarray(x_op, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    if np.max(np.abs(x_op @ x_op - np.eye(dim))) > 1e-10:
        raise ValueError("X must square to the identity")
    tr_o = float(np.real(np.trace(obs)))
    tr_o2 = float(np.real(np.trace(obs @ obs)))
    tr_x = float(np.real(np.trace(x_op)))
    tr_x2 = float(np.real(np.trace(x_op @ x_op)))
    target = -2.0 * ((dim * tr_o2 - tr_o**2) / (dim**2 - 1)) * (tr_x2 - tr_x**2 / dim)
    values = np.empty(samples)
    for lo, v in _haar_blocks(dim, samples, rng):
        m = v.conj().swapaxes(1, 2) @ obs @ v
        comm = x_op @ m - m @ x_op
        # entrywise cancellation first, so commuting observables give ~0 exactly
        values[lo : lo + len(v)] = np.real(np.sum(comm.swapaxes(1, 2) * comm, axis=(1, 2)))
    return MomentEstimate.from_samples(values, target)


def _haar_blocks(dim: int, samples: int, rng: RngStream):
    """(lo, V) for blocks of Haar samples V_s = haar_unitary(dim, rng.substream(s)), s = lo, lo+1, ...

    Each block holds :func:`linalg.matrices_per_block` matrices, at most
    :data:`linalg.STREAMS_PER_BLOCK`, drawn from their own substreams (one
    stream block; real part before imaginary part) and QR'd as one stack, so
    every V_s is bit-identical to the unitary drawn alone.
    """
    step = min(matrices_per_block(dim), STREAMS_PER_BLOCK)
    real = np.empty((min(step, samples), dim, dim))
    imag = np.empty_like(real)
    for lo in range(0, samples, step):
        count = min(step, samples - lo)
        for i, sub in enumerate(stream_block(rng.seed, [rng.index + (s,) for s in range(lo, lo + count)])):
            sub.generator.standard_normal(out=real[i])
            sub.generator.standard_normal(out=imag[i])
        yield lo, haar_from_ginibre(ginibre(real[:count], imag[:count]))


def mc_kbar(
    n: int, layers: int, obs: Observable, psi0: np.ndarray, samples: int, rng: RngStream
) -> MomentEstimate:
    """Ensemble average of the exact kernel against the closed-form prediction.

    Every sample draws a fresh circuit (fresh Haar fixed unitaries, fresh
    Pauli generators) from ``rng.substream(s + 1)`` and fresh uniform angles:
    the ensemble the closed form describes.
    """
    dim = 1 << n
    target = kbar_exact(dim, layers, obs.trace_power(2), obs.trace_power(1))
    values = np.empty(samples)
    for lo, hi in chunk_grid(samples, dim, layers):
        streams = stream_block(rng.seed, [rng.index + (s + 1,) for s in range(lo, hi)])
        batch = sample_random_circuits(n, layers, streams)
        values[lo:hi] = ensemble_kernels(batch, streams, obs, psi0)
    return MomentEstimate.from_samples(values, target)


__all__ = [
    "MomentEstimate",
    "mc_commutator_trace",
    "mc_kbar",
    "mc_second_moment",
]
