"""Residual error, exact derivatives, QNTK, and supervised kernels.

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
The single-circuit functions (:func:`model_output`, :func:`gradient`,
:func:`hessian_residual`) take such a one-circuit :class:`CircuitBatch`.
The supervised kernel of a circuit over P training points
(:func:`supervised_kernels`) is the Gram matrix of its P gradient rows.
:func:`forward_adjoint` evaluates every circuit held as a
:class:`CircuitBatch`; :func:`haar_instance_kernels` evaluates random-Haar
circuits that are never held at all (below).  Every path forms O psi from
the observable's Pauli tables (:meth:`Observable.apply`), never from a D x D matrix.

The engine has two layer paths, chosen by size alone.  When the chunk's gates,
one dense (D, D) matrix per layer and circuit, fit ``STACK_BYTES`` (the
budget the chunk grid is cut by, so a random-Haar chunk fits whenever one of
its circuits does), each pass is one batched matmul per layer with the gates
G_l = cos(theta_l) W_l + i sin(theta_l) W_l X_l, whose angle-independent
factors are cached on the batch.  Because X_l commutes with its own rotation,
the component is then -2 Im <lam_{l-1}| X_l |psi_{l-1}>, where psi_{l-1} is
the input of layer l and lam_{l-1} is O U|psi0> pulled back to the same point.
Wider or deeper chunks apply each layer's rotation and fixed unitary in turn
instead, which needs no per-circuit dense gate.  There an identity layer is
skipped and a permutation layer is a gather (see ``circuits``), so the
hardware-efficient families cost O(L D) per row and pass.  That loop,
:func:`_layer_pass`, is the only per-layer loop besides the fused one.

A random-Haar ensemble whose circuits are each evaluated once (the
``instance`` kernels of ``qntk-stats``) draws its Haar layers lazily, with
no layer loop.  The adjoint method uses W_l on one vector in each direction,
a_l forward and the co-state y backward.  By the left and right invariance of
the Haar measure, W_l a_l is a uniform vector of norm |a_l|, and given
W_l a_l = x, W_l^dagger y = alpha a_l + |y_perp| v with y = alpha x + y_perp
and v uniform on the unit sphere orthogonal to a_l.  Both are drawn from
complex Gaussians in O(D), and both keep what the next layer needs in closed
form, so a circuit costs O(L D) with no QR, no D x D layer and no sequential
pass.  Such a circuit exists only as the vectors it was applied to, so
every path that applies a circuit to more than one vector (training,
``angle`` resampling, the Hessian, the P training points of ``eigen-scan``)
keeps the dense sampler, and so does ``haar.mc_kbar``, whose draws an
acceptance criterion fixes.

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

from .circuits import NOT_UNITARY, CircuitBatch, code_tables, ensemble_angles
from .linalg import STACK_BYTES, UNITARY_ATOL, RngStream, code_letters, letters_code, sample_pauli

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


@dataclass(frozen=True)
class Observable:
    """Hermitian operator on ``num_qubits`` qubits as a weighted Pauli sum, immutable, applied from cached tables.

    ``terms`` holds (coefficient, code) pairs, each code the base-4 code of a
    Pauli string (``linalg.code_letters``); :meth:`from_letters` builds one
    from letters and :meth:`as_dict` writes it back as letters.  ``target``
    is the scalar the expectation value is trained toward.  :meth:`apply`
    applies O from :meth:`tables`, which are computed on first use and kept
    outside the dataclass fields, so they can be neither passed in nor left
    stale.  Trace powers come from the Pauli terms alone.
    """

    num_qubits: int
    terms: tuple[tuple[float, int], ...]
    target: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(c), int(p)) for c, p in self.terms))
        if not self.terms:
            raise ValueError("observable needs at least one term")
        if self.num_qubits < 1:
            raise ValueError("observable needs num_qubits >= 1")
        if not all(np.isfinite(c) for c, _ in self.terms):
            raise ValueError("observable coefficients must be finite")
        if not all(0 <= p < 4**self.num_qubits for _, p in self.terms):
            raise ValueError(f"Pauli codes must lie in [0, 4^{self.num_qubits})")

    @classmethod
    def from_letters(cls, terms, target: float) -> "Observable":
        """The observable of (coefficient, letters) pairs, the inverse of :meth:`as_dict`."""
        widths = {len(letters) for _, letters in terms}
        if len(widths) > 1:
            raise ValueError("all terms must act on the same number of qubits")
        codes = tuple((c, letters_code(letters)) for c, letters in terms)
        return cls(max(widths, default=0), codes, target)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, weights), each (G, D): (O v)[j] = sum_g weights[g, j] v[index[g, j]], read-only.

        The terms are grouped by X mask in order of first appearance (G <= min(T, D)):
        index[g] = idx ^ flip_g, and weights[g] sums c_t phase_t over the group in
        term order, from ``circuits.code_tables`` run on blocks of codes that fit STACK_BYTES.
        """
        cache = self.__dict__
        if "_tables" not in cache:
            n, dim = self.num_qubits, self.dim
            flips: dict[int, int] = {}
            group = [flips.setdefault(_pauli_masks(code, n)[0], len(flips)) for _, code in self.terms]
            index = np.empty((len(flips), dim), dtype=np.intp)
            weights = np.zeros((len(flips), dim), dtype=complex)
            codes = np.array([[code for _, code in self.terms]], dtype=np.int64)
            step = max(1, STACK_BYTES // (24 * dim))
            for lo in range(0, len(self.terms), step):
                perms, phases = code_tables(n, codes[:, lo : lo + step])
                for t, perm, phase in zip(range(lo, lo + step), perms[:, 0], phases[:, 0]):
                    index[group[t]] = perm
                    phase *= self.terms[t][0]
                    weights[group[t]] += phase
            index.setflags(write=False)
            weights.setflags(write=False)
            cache["_tables"] = index, weights
        return cache["_tables"]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """O v for every row v of ``rows`` (R, D): one gather (R, G, D) and one weighted sum over the groups."""
        index, weights = self.tables()
        gathered = rows.take(index, axis=-1)
        gathered *= weights
        return gathered.sum(axis=-2)

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, M[j, index[g, j]] = weights[g, j] group by group (only ``haar-check`` reads it)."""
        index, weights = self.tables()
        matrix = np.zeros((self.dim, self.dim), dtype=complex)
        rows = np.arange(self.dim)
        for cols, values in zip(index, weights):
            matrix[rows, cols] += values
        return matrix

    def trace_power(self, k: int) -> float:
        """Tr(O^k) = D times the identity coefficient of O^k, by Pauli-product algebra.

        O^k is split as O^a O^b with a = k - k // 2 and b = k // 2, and both
        are expanded as Pauli sums.  Tr(P Q) = D [P == Q] for Pauli strings,
        so Tr O^k = D sum_P a_P b_P.  The cost depends on the number of terms,
        not on D.  Products are ``c * d`` on Python floats, so an overflow
        gives inf, never an error.
        """
        if k < 0:
            raise ValueError("trace power needs k >= 0")
        terms: dict[tuple[int, int], float] = {}
        for coef, code in self.terms:
            key = _pauli_masks(code, self.num_qubits)
            terms[key] = terms.get(key, 0.0) + coef
        left = _pauli_power(terms, k - k // 2)
        right = _pauli_power(terms, k // 2)
        return float(self.dim * sum(c * right[key] for key, c in left.items() if key in right))

    def as_dict(self) -> dict:
        return {
            "terms": [[c, code_letters(self.num_qubits, code)] for c, code in self.terms],
            "target": self.target,
        }


def _pauli_masks(code: int, n: int) -> tuple[int, int]:
    """(x, z) bit masks of a Pauli code: P = i^|x & z| X^x Z^z, qubit q on bit 2 (n - 1 - q).

    A digit is I=00, X=01, Y=10 or Z=11: z is its high bit and x the XOR of
    its two bits.
    """
    low = (4**n - 1) // 3  # the low bit of every digit
    z = (code >> 1) & low
    return z ^ (code & low), z


def _pauli_power(terms: dict, power: int) -> dict:
    """O^power as {(x, z): coefficient} for O = sum of coefficient * Pauli string.

    P1 P2 = i^e P3 with P3 = (x1 ^ x2, z1 ^ z2) and
    e = |x1 & z1| + |x2 & z2| + 2 |z1 & x2| - |x3 & z3|  (mod 4).
    A power of a Hermitian O has real coefficients, so the products with odd
    e, which anticommute, cancel in pairs and are skipped; e = 2 flips a sign.
    """
    result = {(0, 0): 1.0}
    for _ in range(power):
        product: dict[tuple[int, int], float] = {}
        for (x1, z1), c1 in result.items():
            for (x2, z2), c2 in terms.items():
                x3, z3 = x1 ^ x2, z1 ^ z2
                e = (x1 & z1).bit_count() + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count()
                e = (e - (x3 & z3).bit_count()) & 3
                if e & 1:
                    continue
                value = c1 * c2
                product[x3, z3] = product.get((x3, z3), 0.0) + (value if e == 0 else -value)
        result = product
    return result


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
        code = sample_pauli(n, rng, exclude_identity=False)
        coef = float(rng.generator.uniform(coeff_low, coeff_high))
        terms.append((coef, code))
    return Observable(n, tuple(terms), target)


def _check_inputs(dim: int, size: int, psi0, obs: Observable) -> np.ndarray:
    """Observable and input states fit D; states are one (D,) or P per circuit (S*P, D), normalized."""
    if obs.dim != dim:
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


def _apply(w, states: np.ndarray) -> np.ndarray:
    """W @ psi for every row of ``states``; W shared or one per circuit (S, D, D).

    A shared W is ``None`` (the identity: the rows come back unchanged), a
    permutation (a gather) or a dense (D, D) matrix.  A stacked W serves the
    P consecutive rows of its circuit, viewed as (S, P, D).
    """
    if w is None:
        return states
    if w.ndim == 1:
        return states.take(w, axis=1)
    if w.ndim == 2:
        return np.dot(states, w.T)
    size, dim = len(w), states.shape[1]
    rows = states.reshape(size, -1, dim).swapaxes(1, 2)
    return np.matmul(w, rows).swapaxes(1, 2).reshape(-1, dim)


def _apply_transpose(w, states: np.ndarray) -> np.ndarray:
    """W^T @ psi for every row of ``states`` (the backward pass runs on conjugates).

    ``w`` is a layer of :meth:`CircuitBatch.backward_layers`: a permutation
    there is already the inverse, W^T itself, and is applied as a gather.
    """
    if w is None or w.ndim == 1:
        return _apply(w, states)
    if w.ndim == 2:
        return np.dot(states, w)
    size, dim = len(w), states.shape[1]
    return np.matmul(states.reshape(size, -1, dim), w).reshape(-1, dim)


def forward_adjoint(
    batch: CircuitBatch, theta: np.ndarray, psi0: np.ndarray, obs: Observable
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and exact angle derivatives of S circuits in one forward and one backward pass.

    ``theta`` has shape (L, S); ``psi0`` is one input state (D,) for all
    circuits or P input states per circuit (S*P, D), circuit by circuit: the
    rows of the batch.  Returns the real expectations <psi0_r|U_s' O U_s|psi0_r>
    of every row r of circuit s, shape (S*P,), and their derivatives, shape
    (S*P, L).  This is the adjoint method vectorized over the rows: the
    forward pass keeps each layer's input state, the backward pass pulls
    O U|psi0> back through the layers.

    A batch whose gates, one dense (D, D) matrix per layer and circuit, fit
    STACK_BYTES is run on those gates (:func:`_fused_pass`); a wider or
    deeper one applies the rotation and the fixed unitary of each layer in
    turn (:func:`_layer_pass`).  The chunk grid keeps every chunk of an
    ensemble on the same side of that line.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (batch.num_layers, batch.size):
        raise ValueError(f"expected angles of shape {(batch.num_layers, batch.size)}, got {theta.shape}")
    return _engine(batch, theta, _check_inputs(batch.dim, batch.size, psi0, obs), obs)


def _engine(batch: CircuitBatch, theta: np.ndarray, psi0: np.ndarray, obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """:func:`forward_adjoint` on the inputs it has checked (``training.gd_batch`` checks them once)."""
    layers, size, dim = batch.num_layers, batch.size, batch.dim
    points = len(psi0) // size if psi0.ndim == 2 else 1
    if layers * size * dim * dim * 16 <= STACK_BYTES:
        return _fused_pass(batch, theta, psi0, obs, points)
    return _layer_pass(batch, theta, psi0, obs, points)


def _fused_pass(
    batch: CircuitBatch, theta: np.ndarray, psi0: np.ndarray, obs: Observable, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """The engine on whole gates G = cos(theta) W + i sin(theta) W X, one matmul per layer per pass."""
    layers, size, dim = batch.num_layers, batch.size, batch.dim
    rows = size * points
    w, wx = batch.gate_factors()
    turn = theta[:, :, None, None]
    gates = np.cos(turn) * w
    gates += (1j * np.sin(turn)) * wx
    # states[l] is the input of layer l+1 (rows viewed as (S, P, D)), states[L] the output
    states = np.empty((layers + 1, size, points, dim), dtype=complex)
    states[0].reshape(rows, dim)[...] = psi0
    for before, gate, after in zip(states, gates.swapaxes(2, 3), states[1:]):
        np.matmul(before, gate, out=after)
    psi = states[layers].reshape(rows, dim)
    lam = obs.apply(psi)
    outputs = _real_rows(np.sum(psi.conj() * lam, axis=1))
    # Backward on conjugate rows: mu = conj(lam) obeys mu_{l-1} = mu_l G_l.
    mus = np.empty_like(states)
    mus[layers] = lam.conj().reshape(size, points, dim)
    for after, gate, before in zip(mus[::-1], gates[::-1], mus[-2::-1]):
        np.matmul(after, gate, out=before)
    # X_l commutes with its own rotation, so d eps / d theta_l
    # = -2 Im <lam_{l-1}| X_l |psi_{l-1}> = -2 Im sum_j mu_{l-1}[j] phase[j] psi_{l-1}[perm[j]]
    offsets = (np.arange(layers * rows) * dim).reshape(layers, size, points, 1)
    flipped = states.take(offsets + batch.perms[:, :, None, :])
    grads = -2.0 * np.sum(mus[:layers] * batch.phases[:, :, None, :] * flipped, axis=3).imag
    return outputs, np.ascontiguousarray(grads.reshape(layers, rows).T)


def _layer_pass(
    batch: CircuitBatch, theta: np.ndarray, psi0: np.ndarray, obs: Observable, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """The engine one rotation and one fixed unitary at a time, for circuits too wide for dense gates.

    The only (L, rows, D) array it keeps is the state before each W.
    """
    fixed, pulled = batch.fixed, batch.backward_layers()
    layers, size = theta.shape
    rows, dim = size * points, batch.dim
    theta = np.repeat(theta, points, axis=1)
    cos = np.cos(theta)[:, :, None]
    isin = 1j * np.sin(theta)[:, :, None]
    offsets = (np.arange(rows) * dim)[:, None]

    def generator(k):
        """Gather indices on the flattened (rows, D) state array and phases of layer k's generator."""
        perm, phase = batch.perms[k], batch.phases[k]
        if points > 1 and len(perm) > 1:  # one table per circuit, each serving the circuit's P rows
            perm, phase = np.repeat(perm, points, axis=0), np.repeat(phase, points, axis=0)
        return perm + offsets, phase

    # Forward: psi <- W (cos psi + i sin X psi), keeping the state before each
    # W.  Backward: lam = O U|psi0> pulled back layer by layer; as a row
    # vector its conjugate mu obeys mu <- cos (mu W) + i sin conj(X)(mu W),
    # which needs neither W^dagger nor a conjugation per layer.
    tilted = np.empty((layers, rows, dim), dtype=complex)
    psi = np.array(np.broadcast_to(psi0, (rows, dim)), dtype=complex)
    for k, out in enumerate(tilted):
        index, phase = generator(k)
        np.multiply(cos[k], psi, out=out)
        out += isin[k] * phase * psi.take(index)
        psi = _apply(fixed[k], out)
    lam = obs.apply(psi)
    outputs = _real_rows(np.sum(psi.conj() * lam, axis=1))
    mu = lam.conj()
    grads = np.empty((rows, layers))
    for k in range(layers - 1, -1, -1):
        index, phase = generator(k)
        mu = _apply_transpose(pulled[k], mu)
        gathered = mu.take(index)
        conj_phase = phase.conj()
        # d eps / d theta_k = 2 Im <tilted_k| X lam_k> = -2 Im sum(tilted_k * conj(X lam_k))
        grads[:, k] = -2.0 * np.sum(tilted[k] * conj_phase * gathered, axis=1).imag
        mu = cos[k] * mu + isin[k] * conj_phase * gathered
    return outputs, grads


# Bytes per (circuit, layer, basis state) of a layer block of haar_instance_kernels at its peak
LAZY_ENTRY_BYTES = 128


def _haar_images(normals: np.ndarray, radius) -> np.ndarray:
    """W a for fresh Haar W and any a of norm ``radius``: radius z/|z|, z the complex Gaussian of ``normals``."""
    z = normals[..., 0, :] + 1j * normals[..., 1, :]
    z *= (radius / np.linalg.norm(z, axis=-1))[..., None]
    return z


def _haar_pullbacks(a: np.ndarray, normals: np.ndarray, alpha, beta) -> np.ndarray:
    """W^dagger y = alpha a + beta v for the Haar W with W a = x, where y = alpha x + y_perp and beta = |y_perp|.

    Given W a = x, W maps the complement of a to that of x by a Haar unitary,
    so W^dagger y_perp is uniform on the sphere of radius beta orthogonal to
    a: v is the complex Gaussian of ``normals`` with its a part projected out.
    """
    v = normals[..., 0, :] + 1j * normals[..., 1, :]
    v -= (np.sum(a.conj() * v, axis=-1) / np.sum(np.abs(a) ** 2, axis=-1))[..., None] * a
    v *= (beta / np.linalg.norm(v, axis=-1))[..., None]
    v += alpha[..., None] * a
    return v


def _check_norms(got: np.ndarray, want: np.ndarray):
    """The guard of lazily drawn layers: each vector keeps the norm a unitary would keep."""
    if not np.all(np.abs(got - want) <= UNITARY_ATOL * np.maximum(1.0, want)):
        raise ValueError(NOT_UNITARY)


def haar_instance_kernels(
    n: int, layers: int, streams, obs: Observable, psi0: np.ndarray, exclude_identity: bool = True
) -> np.ndarray:
    """QNTK of a fresh random-Haar circuit per stream, with every Haar layer drawn lazily.

    Circuit s has the distribution of ``sample_random_circuits(n, layers,
    streams)`` at angles ``ensemble_angles(layers, streams)``, but no Haar
    matrix is built.  The image x_k of layer k's rotated input
    a_k = exp(i theta_k X_k) x_{k-1} is |psi0| z_k/|z_k| whatever a_k is, and
    the co-state y_k = alpha x_k + y_perp keeps alpha = <psi_L|O|psi_L> and
    beta = |O psi_L - alpha psi_L| at every layer, so W_k^dagger y_k =
    alpha a_k + beta v_k and g_k = 2 Im <a_k| X_k |W_k^dagger y_k> for all k
    at once, over blocks of layers whose temporaries fit ``STACK_BYTES``.

    Stream s draws the L generator codes in one call, then the forward and
    the backward normals (2, L, 2, D) in one fill; the angles come from
    ``streams[s].substream(0)``.  With no matrix to check, the guard is on
    norms: every image keeps the norm of its input, every pulled-back
    co-state that of O psi_L.
    """
    if n < 1 or layers < 0:
        raise ValueError("need n >= 1 and layers >= 0")
    dim, size = 1 << n, len(streams)
    psi0 = _check_inputs(dim, 1, np.reshape(psi0, (1, -1)), obs)[0]
    codes = np.empty((size, layers), dtype=np.int64)
    normals = np.empty((size, 2, layers, 2, dim))
    for s, rng in enumerate(streams):
        codes[s] = rng.generator.integers(1 if exclude_identity else 0, 4**n, size=layers)
        rng.generator.standard_normal(out=normals[s])
    theta = ensemble_angles(layers, streams).T
    cos, isin = np.cos(theta)[..., None], 1j * np.sin(theta)[..., None]
    radius = np.linalg.norm(psi0)
    psi = _haar_images(normals[:, 0, -1], radius) if layers else np.broadcast_to(psi0, (size, dim))
    lam = obs.apply(psi)
    alpha = _real_rows(np.sum(psi.conj() * lam, axis=1)) / radius**2
    beta = np.linalg.norm(lam - alpha[:, None] * psi, axis=1)
    grads = np.empty((size, layers))
    step = max(1, STACK_BYTES // (size * dim * LAZY_ENTRY_BYTES))
    for lo in range(0, layers, step):
        hi = min(lo + step, layers)
        # the inputs x_lo .. x_{hi-1} of the block's layers and their images x_{lo+1} .. x_hi
        images = _haar_images(normals[:, 0, max(lo - 1, 0) : hi], radius)
        if lo == 0:
            inputs = np.concatenate([np.broadcast_to(psi0, (size, 1, dim)), images[:, :-1]], axis=1)
        else:
            inputs, images = images[:, :-1], images[:, 1:]
        perms, phases = code_tables(n, codes[:, lo:hi])
        flipped = np.take_along_axis(inputs, perms.transpose(1, 0, 2), axis=-1)
        flipped *= phases.transpose(1, 0, 2)
        del perms, phases
        # a_k = cos x + i sin X x, and X a_k = cos X x + i sin x because X^2 = I
        rotated = cos[:, lo:hi] * inputs
        rotated += isin[:, lo:hi] * flipped
        flipped *= cos[:, lo:hi]
        flipped += isin[:, lo:hi] * inputs
        _check_norms(np.linalg.norm(images, axis=-1), np.linalg.norm(rotated, axis=-1))
        del inputs, images
        pulled = _haar_pullbacks(rotated, normals[:, 1, lo:hi], alpha[:, None], beta[:, None])
        _check_norms(np.linalg.norm(pulled, axis=-1), np.linalg.norm(lam, axis=1)[:, None])
        # g_k = 2 Im <a_k| X_k |W_k^dagger y_k> = 2 Im <X_k a_k | W_k^dagger y_k>
        pulled *= flipped.conj()
        grads[:, lo:hi] = 2.0 * np.sum(pulled, axis=-1).imag
    return np.array([qntk(g) for g in grads])


def model_output(
    circuit: CircuitBatch, theta: np.ndarray, obs: Observable, phi: np.ndarray
) -> float:
    """Expectation of the observable in the circuit-evolved feature state."""
    theta = circuit.check_parameters(theta)
    outputs, _ = forward_adjoint(circuit, theta[:, None], phi, obs)
    return float(outputs[0])


def residual_error(
    circuit: CircuitBatch, theta: np.ndarray, obs: Observable, psi0: np.ndarray
) -> float:
    """Expectation value minus the observable's target."""
    return model_output(circuit, theta, obs, psi0) - obs.target


def gradient(
    circuit: CircuitBatch, theta: np.ndarray, obs: Observable, psi0: np.ndarray
) -> np.ndarray:
    """Exact derivative of the residual error w.r.t. every angle.

    The target is a constant shift, so this is also the derivative of the raw
    model output.
    """
    theta = circuit.check_parameters(theta)
    _, grads = forward_adjoint(circuit, theta[:, None], psi0, obs)
    return grads[0]


def qntk(grad: np.ndarray) -> float:
    """Sum of squared derivative components; non-negative by construction."""
    grad = np.asarray(grad, dtype=float)
    return float(grad @ grad)


def ensemble_kernels(batch: CircuitBatch, streams, obs: Observable, psi0: np.ndarray) -> np.ndarray:
    """QNTK of each circuit of an ensemble chunk, circuit s at angles drawn from ``streams[s]``."""
    theta = ensemble_angles(batch.num_layers, streams)
    _, grads = forward_adjoint(batch, theta, psi0, obs)
    return np.array([qntk(g) for g in grads])


def hessian_residual(
    circuit: CircuitBatch, theta: np.ndarray, obs: Observable, psi0: np.ndarray
) -> np.ndarray:
    """Exact symmetric L x L second-derivative matrix of the residual error.

    Row a is the shift rule g(theta + pi/4 e_a) - g(theta - pi/4 e_a) on exact
    adjoint gradients (see the module docstring), from one engine call on 2L
    copies of the circuit; the upper triangle is mirrored.
    """
    theta = circuit.check_parameters(theta)
    psi0 = _check_inputs(circuit.dim, 1, np.reshape(psi0, (1, -1)), obs)[0]
    layers = circuit.num_layers
    if layers == 0:
        return np.empty((0, 0))
    shifts = (np.pi / 4) * np.eye(layers)
    angles = theta[:, None] + np.concatenate([shifts, -shifts], axis=1)
    _, grads = forward_adjoint(circuit.repeat(2 * layers), angles, psi0, obs)
    pair = grads[:layers] - grads[layers:]
    return np.triu(pair) + np.triu(pair, 1).T


def supervised_kernels(
    batch: CircuitBatch, theta: np.ndarray, features: np.ndarray, obs: Observable
) -> np.ndarray:
    """Supervised kernels K_s[d, e] = grad z_s(x_d) . grad z_s(x_e) of S circuits over P points.

    ``theta`` has shape (L, S) and ``features`` (P, D) holds one normalized
    input state per training point; every circuit serves all P of them as its
    rows, in one engine call.  Returns (S, P, P) Gram matrices of the output
    gradients, symmetric positive semi-definite by construction.  For one
    circuit alone, pass it with ``theta[:, None]``.
    """
    features = np.asarray(features)
    points, layers = len(features), batch.num_layers
    psi0 = np.tile(features, (batch.size, 1))
    _, grads = forward_adjoint(batch, theta, psi0, obs)
    grads = grads.reshape(batch.size, points, layers)
    return grads @ grads.swapaxes(1, 2)


__all__ = [
    "IMAG_TOL",
    "NonRealExpectationError",
    "Observable",
    "ensemble_kernels",
    "forward_adjoint",
    "gradient",
    "haar_instance_kernels",
    "hessian_residual",
    "model_output",
    "qntk",
    "random_pauli_sum",
    "residual_error",
    "supervised_kernels",
]
