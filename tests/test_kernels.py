import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qntklab.kernels as kernels
from qntklab.circuits import (
    AnsatzSpec,
    CircuitBatch,
    build_hardware_efficient,
    build_random_ansatz,
    ensemble_angles,
    sample_random_circuits,
    uniform_angles,
)
from qntklab.kernels import (
    NonRealExpectationError,
    Observable,
    forward_adjoint,
    gradient,
    hessian_residual,
    model_output,
    qntk,
    random_pauli_sum,
    residual_error,
    supervised_kernels,
)
from qntklab.linalg import (
    RngStream,
    code_letters,
    haar_unitary,
    letters_code,
    sample_pauli,
    zero_state,
)

from helpers import (
    basis_state,
    circuit_layers,
    circuit_unitary,
    cnot_chain,
    dense_fixed,
    dense_output_and_gradient,
    fd_gradient,
    fd_hessian,
    gradient_close,
    meta_kernel,
    observable_matrix,
    parameter_shift_gradient,
    pauli_matrix,
    prefix_suffix,
)

ZZ = Observable.from_letters(((1.0, "ZZ"),), 0.0)


def random_setup(seed, n=2, layers=8, terms=10):
    rng = RngStream(seed)
    ansatz = build_random_ansatz(n, layers, rng.substream(0))
    obs = random_pauli_sum(n, terms, rng.substream(1))
    theta = uniform_angles(layers, rng.substream(2))
    return ansatz, theta, obs, zero_state(n)


def test_observable_dense_matches_term_sum():
    rng = RngStream(1)
    obs = random_pauli_sum(3, 10, rng)
    expected = sum(c * pauli_matrix(code_letters(3, p)) for c, p in obs.terms)
    assert np.max(np.abs(obs.matrix - expected)) <= 1e-12
    assert np.max(np.abs(obs.matrix - obs.matrix.conj().T)) <= 1e-12


def test_observable_matrix_is_scattered_with_no_dense_temporary():
    # the matrix is scattered from the tables group by group, so a 10-term
    # build at n = 9 holds the matrix and O(G D) more; the kron build of each
    # term peaked at 2.32 times the matrix, and 3 times before that
    obs = random_pauli_sum(9, 10, RngStream(4))
    expected = np.zeros((512, 512), dtype=complex)
    for coef, code in obs.terms:
        expected += coef * pauli_matrix(code_letters(9, code))
    tracemalloc.start()
    try:
        matrix = obs.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(matrix, expected)
    assert peak <= 1.1 * matrix.nbytes


def test_one_qubit_observable_leaves_the_pauli_constants_alone():
    # at n = 1 the kron chain is a single letter: its matrix must be a copy
    before = pauli_matrix("X").copy()
    assert np.array_equal(Observable.from_letters(((0.5, "X"),), 0.0).matrix, 0.5 * before)
    assert np.array_equal(pauli_matrix("X"), before)
    assert pauli_matrix("X") is not pauli_matrix("X")


def _pauli_sum(n, gen, terms):
    # drawn codes with repeats, an identity term, a zero and negative coefficients
    codes = [int(c) for c in gen.integers(0, 4**n, size=terms)]
    codes += codes[:2] + [0]
    coefs = gen.uniform(-2.0, 2.0, size=len(codes))
    coefs[1] = 0.0
    return Observable(n, tuple(zip(coefs, codes)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 6), terms=st.integers(1, 12), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_observable_apply_matches_the_kron_oracle(n, terms, rows, seed):
    gen = np.random.default_rng(seed)
    obs = _pauli_sum(n, gen, terms)
    index, weights = obs.tables()
    assert len(index) <= min(len(obs.terms), obs.dim) and weights.shape == index.shape
    vecs = gen.standard_normal((rows, obs.dim)) + 1j * gen.standard_normal((rows, obs.dim))
    tol = 1e-12 * sum(abs(c) for c, _ in obs.terms) * np.max(np.abs(vecs))
    assert np.max(np.abs(obs.apply(vecs) - vecs @ observable_matrix(obs).T)) <= tol


@pytest.mark.parametrize("n", range(1, 10))
def test_observable_matrix_is_the_kron_sum_bit_for_bit(n):
    gen = np.random.default_rng(70 + n)
    for obs in (_pauli_sum(n, gen, 8), random_pauli_sum(n, 10, RngStream(71, (n,)))):
        assert np.array_equal(obs.matrix, observable_matrix(obs))


def test_observable_tables_group_the_terms_by_flip():
    # ZZ, ZI and II share the flip 0; XY and YX flip both qubits; XI flips qubit 0
    obs = Observable.from_letters(((1.0, "ZZ"), (2.0, "XY"), (0.5, "ZI"), (-1.0, "YX"), (3.0, "XI"), (1.0, "II")), 0.0)
    index, weights = obs.tables()
    assert index.tolist() == [[0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]]
    assert np.array_equal(weights[0], [2.5, 0.5, -0.5, 1.5])
    # the weights of 2 XY - YX, read off the kron oracle's entries (j, j ^ 3)
    assert np.array_equal(weights[1], observable_matrix(obs)[np.arange(4), index[1]])
    assert np.array_equal(weights[2], [3.0, 3.0, 3.0, 3.0])
    assert not index.flags.writeable and not weights.flags.writeable


def test_observable_trace_powers():
    obs = Observable.from_letters(((0.7, "ZZ"), (0.2, "XI")), 0.0)
    mat = observable_matrix(obs)
    for k in (1, 2, 3, 4, 6):
        direct = np.trace(np.linalg.matrix_power(mat, k)).real
        assert obs.trace_power(k) == pytest.approx(direct, abs=1e-10)
    # repeated strings, an identity term, signs and Y letters, against the spectrum
    for n in range(1, 6):
        drawn = random_pauli_sum(n, 12, RngStream(40, (n,)), coeff_low=-1.0, coeff_high=1.0).terms
        terms = drawn + drawn[:3] + ((0.4, letters_code("I" * n)), (-0.3, letters_code("Y" * n)))
        obs = Observable(n, terms)
        spectrum = np.linalg.eigvalsh(observable_matrix(obs))
        for k in range(1, 7):
            direct = float(np.sum(spectrum**k))
            assert abs(obs.trace_power(k) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_trace_power_overflow_is_inf():
    huge = Observable.from_letters(((1e160, "ZZ"), (1e160, "XI")), 0.0)
    assert huge.trace_power(2) == float("inf")
    assert huge.trace_power(1) == 0.0


def test_observable_is_frozen_and_caches_outside_its_fields():
    # a cache passed to the constructor used to be trusted: trace_power(2) gave 0
    with pytest.raises(TypeError):
        Observable(2, ((1.0, 15),), _tables=(np.zeros((1, 4), dtype=int), np.zeros((1, 4))))
    obs = Observable(2, ((1.0, 15),))
    assert obs.trace_power(2) == 4.0
    # reassigning the terms after a matrix read used to leave the old matrix
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.terms = ((1.0, 5),)
    assert np.array_equal(obs.matrix, pauli_matrix("ZZ"))
    with pytest.raises(ValueError, match="finite"):
        Observable(2, ((float("nan"), 15),))


def test_observable_checks_its_codes_and_width():
    for code in (-1, 16, 4**3):
        with pytest.raises(ValueError, match="codes"):
            Observable(2, ((1.0, code),))
    assert Observable(2, ((1.0, 0), (0.5, 15))).terms == ((1.0, 0), (0.5, 15))
    for n in (0, -1):
        with pytest.raises(ValueError, match="num_qubits"):
            Observable(n, ((1.0, 0),))
    with pytest.raises(ValueError, match="at least one term"):
        Observable(2, ())
    with pytest.raises(ValueError, match="same number of qubits"):
        Observable.from_letters(((1.0, "ZZ"), (0.5, "Z")), 0.0)
    with pytest.raises(ValueError, match="invalid Pauli string 'ZQ'"):
        Observable.from_letters(((1.0, "ZQ"),), 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_observable_letters_round_trip(n):
    for k in range(4):
        obs = random_pauli_sum(n, 7, RngStream(60, (n, k)), coeff_low=-2.0, coeff_high=2.0, target=0.3 * k)
        assert all(isinstance(c, float) and isinstance(p, int) for c, p in obs.terms)
        d = obs.as_dict()
        assert all(len(letters) == n for _, letters in d["terms"])
        back = Observable.from_letters(d["terms"], d["target"])
        assert back.num_qubits == n
        assert back.terms == obs.terms and back.target == obs.target


def test_observable_coefficients_in_range():
    obs = random_pauli_sum(2, 10, RngStream(2))
    assert len(obs.terms) == 10
    assert all(0.0 < c < 1.0 for c, _ in obs.terms)


def test_residual_error_basis_cases():
    empty = build_random_ansatz(2, 0, RngStream(3))
    assert residual_error(empty, np.empty(0), ZZ, zero_state(2)) == pytest.approx(1.0)
    shifted = Observable(2, ZZ.terms, -1.0)
    assert residual_error(empty, np.empty(0), shifted, basis_state(2, 1)) == pytest.approx(0.0)


def test_residual_error_matches_dense_conjugation():
    ansatz, theta, obs, psi = random_setup(4)
    u = circuit_unitary(ansatz, theta)
    expected = np.vdot(psi, u.conj().T @ observable_matrix(obs) @ u @ psi).real - obs.target
    assert residual_error(ansatz, theta, obs, psi) == pytest.approx(expected, abs=1e-12)


def test_model_output_identity_with_residual():
    ansatz, theta, _, psi = random_setup(5)
    obs = random_pauli_sum(2, 5, RngStream(55), target=0.37)
    assert model_output(ansatz, theta, obs, psi) == pytest.approx(
        residual_error(ansatz, theta, obs, psi) + obs.target
    )


def test_gradient_empty_circuit():
    empty = build_random_ansatz(2, 0, RngStream(6))
    assert gradient(empty, np.empty(0), ZZ, zero_state(2)).size == 0


def test_gradient_zero_for_commuting_generator():
    # [Z1, ZZ] = 0, so the single angle is a dead direction
    ansatz = AnsatzSpec(2, ("ZI",), (np.eye(4, dtype=complex),))
    g = gradient(ansatz, np.array([0.9]), ZZ, (basis_state(2, 0) + basis_state(2, 3)) / np.sqrt(2))
    assert abs(g[0]) <= 1e-14


@pytest.mark.parametrize("n,layers", [(2, 4), (2, 8), (3, 4), (3, 8)])
def test_gradient_matches_finite_differences(n, layers):
    for seed in range(3):
        rng = RngStream(100 + seed, (n, layers))
        ansatz = build_random_ansatz(n, layers, rng.substream(0))
        obs = random_pauli_sum(n, 10, rng.substream(1))
        theta = uniform_angles(layers, rng.substream(2))
        psi = zero_state(n)
        assert gradient_close(gradient(ansatz, theta, obs, psi), fd_gradient(ansatz, theta, obs, psi))


def test_gradient_equals_prefix_suffix_commutator_sandwich():
    # derivative ell as -i <psi| [C' X C, U' O U] |psi> with C the prefix
    # through layer ell-1, all built from dense prefix/suffix factors
    ansatz, theta, obs, psi = random_setup(17, n=2, layers=5)
    g = gradient(ansatz, theta, obs, psi)
    u = circuit_unitary(ansatz, theta)
    heis = u.conj().T @ observable_matrix(obs) @ u
    for ell in range(1, 6):
        if ell == 1:
            prefix = np.eye(4, dtype=complex)
        else:
            prefix, _ = prefix_suffix(ansatz, theta, ell - 1)
        frame_gen = prefix.conj().T @ pauli_matrix(circuit_layers(ansatz)[ell - 1][0]) @ prefix
        comm = frame_gen @ heis - heis @ frame_gen
        value = -1j * np.vdot(psi, comm @ psi)
        assert abs(value.imag) <= 1e-10
        assert g[ell - 1] == pytest.approx(value.real, abs=1e-10)


def test_gradient_matches_parameter_shift_exactly():
    ansatz, theta, obs, psi = random_setup(7, n=3, layers=6)
    shift = parameter_shift_gradient(ansatz, theta, obs, psi)
    assert np.max(np.abs(gradient(ansatz, theta, obs, psi) - shift)) <= 1e-10


def test_global_phase_invariance():
    ansatz, theta, obs, psi = random_setup(8)
    phased = np.exp(1.3j) * psi
    assert residual_error(ansatz, theta, obs, phased) == pytest.approx(
        residual_error(ansatz, theta, obs, psi), abs=1e-12
    )
    assert np.max(np.abs(gradient(ansatz, theta, obs, phased) - gradient(ansatz, theta, obs, psi))) <= 1e-12


def test_qntk_basics():
    assert qntk(np.zeros(5)) == 0.0
    assert qntk(np.array([3.0, 4.0])) == pytest.approx(25.0)
    gen = np.random.default_rng(0)
    g = gen.standard_normal(12)
    assert qntk(g) == pytest.approx(qntk(g[::-1]))
    assert qntk(g) >= 0.0


def test_zero_layer_supervised_kernel_is_zero():
    empty = build_random_ansatz(2, 0, RngStream(3))
    for obs in (ZZ, Observable.from_letters(((1.0, "XX"),), 0.0)):
        feats = np.eye(4, dtype=complex)[:3]
        kernel = supervised_kernels(empty.repeat(2), np.empty((0, 2)), feats, obs)
        assert kernel.shape == (2, 3, 3) and not np.any(kernel)


def test_hessian_empty_circuit():
    empty = build_random_ansatz(2, 0, RngStream(9))
    assert hessian_residual(empty, np.empty(0), ZZ, zero_state(2)).shape == (0, 0)


def test_hessian_matches_finite_differences():
    setups = [random_setup(seed, n=2, layers=4) for seed in (10, 11, 12)]
    # a structured circuit: shared identity layers and a CNOT chain
    rng = RngStream(15)
    hea = build_hardware_efficient(3, 1, "cnot-su2", rng.substream(0))
    theta = uniform_angles(hea.num_layers, rng.substream(2))
    setups.append((hea, theta, random_pauli_sum(3, 10, rng.substream(1)), zero_state(3)))
    for ansatz, theta, obs, psi in setups:
        exact = hessian_residual(ansatz, theta, obs, psi)
        approx = fd_hessian(ansatz, theta, obs, psi)
        assert np.max(np.abs(exact - exact.T)) <= 1e-10
        assert np.linalg.norm(exact - approx) / np.linalg.norm(approx) <= 1e-4


def test_hessian_diagonal_double_commutator_identity():
    # every entry a <= b equals the nested commutator -<psi0|[Y_a, [Y_b, M]]|psi0>
    # with Y_l = C' X_l C (C the dense prefix through layer l-1) and M = U' O U
    ansatz, theta, obs, psi = random_setup(13, n=2, layers=5)
    exact = hessian_residual(ansatz, theta, obs, psi)
    u = circuit_unitary(ansatz, theta)
    heis = u.conj().T @ observable_matrix(obs) @ u
    frame = []
    for ell in range(1, 6):
        c = np.eye(4, dtype=complex) if ell == 1 else prefix_suffix(ansatz, theta, ell - 1)[0]
        frame.append(c.conj().T @ pauli_matrix(circuit_layers(ansatz)[ell - 1][0]) @ c)
    for a in range(5):
        for b in range(a, 5):
            inner = frame[b] @ heis - heis @ frame[b]
            nested = -np.vdot(psi, (frame[a] @ inner - inner @ frame[a]) @ psi)
            assert abs(nested.imag) <= 1e-10
            assert exact[a, b] == pytest.approx(nested.real, abs=1e-10)
    # diagonal entries also equal the conjugated double-commutator sandwich
    for ell in range(1, 6):
        prefix, suffix = prefix_suffix(ansatz, theta, ell)
        gen, w = circuit_layers(ansatz)[ell - 1]
        xhat = w @ pauli_matrix(gen) @ w.conj().T
        pulled = suffix.conj().T @ observable_matrix(obs) @ suffix
        inner = xhat @ pulled - pulled @ xhat
        double = xhat @ inner - inner @ xhat
        phi = prefix @ psi
        sandwich = -np.vdot(phi, double @ phi)
        assert abs(sandwich.imag) <= 1e-10
        assert exact[ell - 1, ell - 1] == pytest.approx(sandwich.real, abs=1e-10)


def test_meta_kernel_basics():
    assert meta_kernel(np.zeros(4), np.eye(4)) == 0.0
    g = np.array([1.0, -2.0, 0.5])
    assert meta_kernel(g, np.eye(3)) == pytest.approx(qntk(g))
    with pytest.raises(ValueError):
        meta_kernel(g, np.eye(4))


def test_real_expectation_guard():
    # the engine's guard on the imaginary residue of every output row: a Pauli
    # sum is Hermitian, so the guard is reached through a patched table, X's
    # with one weight zeroed, which is the matrix [[0, 1], [0, 0]]
    obs = Observable(1, ((1.0, 1),))
    index, weights = obs.tables()
    assert index.tolist() == [[1, 0]] and weights.tolist() == [[1.0, 1.0]]
    obs.__dict__["_tables"] = index, np.array([[1.0, 0.0]], dtype=complex)
    vec = np.array([1.0, 1.0j]) / np.sqrt(2)
    empty = build_random_ansatz(1, 0, RngStream(20))
    with pytest.raises(NonRealExpectationError):
        forward_adjoint(empty, np.empty((0, 1)), vec, obs)


def test_supervised_single_pair_reduces_to_qntk():
    rng = RngStream(14)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    theta = uniform_angles(6, rng.substream(1))
    kernel = supervised_kernels(ansatz, theta[:, None], np.eye(4, dtype=complex)[:1], ZZ)
    g = gradient(ansatz, theta, ZZ, basis_state(2, 0))
    assert kernel.shape == (1, 1, 1)
    assert kernel[0, 0, 0] == qntk(g)


def test_supervised_duplicate_samples_give_equal_rows():
    rng = RngStream(15)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    theta = uniform_angles(6, rng.substream(1))
    feats = np.stack([basis_state(2, 1), basis_state(2, 1)])
    kernel = supervised_kernels(ansatz, theta[:, None], feats, ZZ)[0]
    assert np.allclose(kernel[0], kernel[1], atol=1e-12)
    assert abs(np.linalg.det(kernel)) <= 1e-10


@pytest.mark.parametrize("n,size", [(2, 3), (2, 4), (4, 6)])
def test_supervised_kernel_symmetric_psd(n, size):
    for seed in range(10):
        rng = RngStream(200 + seed, (n, size))
        ansatz = build_random_ansatz(n, 8, rng.substream(0))
        obs = random_pauli_sum(n, 6, rng.substream(1))
        theta = uniform_angles(8, rng.substream(2))
        feats = np.eye(1 << n, dtype=complex)[:size]
        kernel = supervised_kernels(ansatz, theta[:, None], feats, obs)[0]
        assert np.max(np.abs(kernel - kernel.T)) <= 1e-10
        assert np.linalg.eigvalsh(kernel)[0] >= -1e-10


def test_supervised_multi_output_index_order():
    # kernels[s, d, e] pairs the outputs of circuit s on points d and e
    streams = [RngStream(16, (k,)) for k in range(3)]
    batch = sample_random_circuits(2, 5, streams)
    theta = ensemble_angles(5, streams)
    obs = Observable.from_letters(((1.0, "XI"),), 0.0)
    gram = supervised_kernels(batch, theta, np.eye(4, dtype=complex)[:3], obs)
    assert gram.shape == (3, 3, 3)
    for s in range(3):
        ansatz = build_random_ansatz(2, 5, RngStream(16, (s,)))
        grads = [gradient(ansatz, theta[:, s], obs, basis_state(2, d)) for d in range(3)]
        for d in range(3):
            for e in range(3):
                assert gram[s, d, e] == pytest.approx(grads[d] @ grads[e], abs=1e-12)


def test_empty_training_set_rejected():
    ansatz = build_random_ansatz(2, 3, RngStream(21))
    with pytest.raises(ValueError):
        supervised_kernels(ansatz, np.zeros((3, 1)), np.empty((0, 4), dtype=complex), ZZ)


def test_unnormalized_state_rejected():
    ansatz = build_random_ansatz(2, 3, RngStream(21))
    with pytest.raises(ValueError, match="normalized"):
        residual_error(ansatz, np.zeros(3), ZZ, 2.0 * zero_state(2))


# The three forms of a fixed layer: None, a permutation, a dense matrix
LAYER_FORMS = ("identity", "permutation", "dense")

# Budgets for kernels.STACK_BYTES that force each engine path: every batch
# fits the first (dense per-circuit gates), none fits the second (one
# rotation and one fixed unitary at a time), not even one without layers.
PATH_BUDGETS = {"fused": 1 << 62, "per-layer": -1}


@pytest.mark.parametrize(
    "points, path",
    [(1, "fused"), (3, "fused"), (1, "per-layer"), (3, "per-layer")],
    # this batch fits the budget, so the fused runs take the path it takes by default
    ids=["1", "3", "1-per-layer", "3-per-layer"],
)
def test_mixed_engine_call_matches_single_circuit_oracle(points, path, monkeypatch):
    # layers 1 and 3 carry one Haar matrix per circuit, layer 2 one Haar
    # matrix shared by all, layer 4 the shared CNOT chain; every circuit has
    # its own generators and angles, and serves `points` rows, each with its
    # own input state
    monkeypatch.setattr(kernels, "STACK_BYTES", PATH_BUDGETS[path])
    n, size, layers = 2, 5, 4
    dim = 1 << n
    rng = RngStream(31)
    own = [np.stack([haar_unitary(dim, rng.substream(100 * k + s)) for s in range(size)]) for k in (0, 2)]
    fixed = (own[0], haar_unitary(dim, rng.substream(7)), own[1], cnot_chain(n))
    codes = np.array([[sample_pauli(n, rng.substream(1000 + s)) for _ in range(layers)] for s in range(size)])
    letters = [[code_letters(n, int(c)) for c in row] for row in codes]
    batch = CircuitBatch(n, size, fixed, codes)
    theta = rng.substream(2).generator.uniform(0.0, 2.0 * np.pi, size=(layers, size))
    states = rng.substream(3).generator.standard_normal((size * points, dim, 2)) @ np.array([1.0, 1.0j])
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    obs = random_pauli_sum(n, 10, rng.substream(4))
    outputs, grads = forward_adjoint(batch, theta, states, obs)
    assert outputs.shape == (size * points,) and grads.shape == (size * points, layers)
    for r in range(size * points):
        s = r // points
        per_layer = [w if w.ndim == 2 else w[s] for w in fixed]
        value, grad = dense_output_and_gradient(letters[s], per_layer, theta[:, s], states[r], observable_matrix(obs))
        assert abs(outputs[r] - value) <= 1e-12
        assert np.max(np.abs(grads[r] - grad)) <= 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    layers=st.integers(0, 12),
    size=st.integers(1, 4),
    points=st.integers(1, 3),
    stacked=st.lists(st.booleans(), min_size=12, max_size=12),
    kinds=st.lists(st.sampled_from(LAYER_FORMS), min_size=12, max_size=12),
    own_generators=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    n=1, layers=0, size=3, points=2, stacked=[False] * 12, kinds=["dense"] * 12, own_generators=True, seed=0
)
@example(
    n=2, layers=0, size=1, points=1, stacked=[False] * 12, kinds=["dense"] * 12, own_generators=False, seed=0
)
@example(
    n=3,
    layers=6,
    size=3,
    points=2,
    stacked=[False, True] * 6,
    kinds=list(LAYER_FORMS) * 4,
    own_generators=True,
    seed=1,
)
def test_engine_paths_agree_with_each_other_and_the_dense_oracle(
    n, layers, size, points, stacked, kinds, own_generators, seed
):
    # per layer, one fixed entry shared by all circuits (an identity, a
    # permutation or a Haar matrix), or one per circuit, each of a form drawn
    # per circuit; generators shared or per circuit; P input states per circuit
    dim = 1 << n
    gen = np.random.default_rng(seed)
    rng = RngStream(seed)

    def entry(form, k):
        if form == "identity":
            return None
        if form == "permutation":
            return gen.permutation(dim)
        return haar_unitary(dim, rng.substream(k))

    fixed = [
        [entry(LAYER_FORMS[gen.integers(3)], 100 * k + s) for s in range(size)]
        if stacked[k]
        else [entry(kinds[k], 100 * k + 99)] * size
        for k in range(layers)
    ]
    owners = size if own_generators else 1
    letters = [
        ["".join(gen.choice(list("IXYZ"), size=n)) for _ in range(layers)] for _ in range(owners)
    ]
    # base-4 codes: the letters' indices in "IXYZ", qubit 0 the top digit
    digits = {"I": "0", "X": "1", "Y": "2", "Z": "3"}
    codes = np.array([[int("".join(map(digits.get, x)), 4) for x in row] for row in letters], dtype=np.int64)
    # a stacked layer holds one dense matrix per circuit, whatever form each was drawn in
    layer_arrays = tuple(
        np.stack([dense_fixed(w, dim) for w in fixed[k]]) if stacked[k] else fixed[k][0] for k in range(layers)
    )
    batch = CircuitBatch(n, size, layer_arrays, codes)
    theta = gen.uniform(0.0, 2.0 * np.pi, size=(layers, size))
    states = gen.standard_normal((size * points, dim)) + 1j * gen.standard_normal((size * points, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    obs = random_pauli_sum(n, 4, rng.substream(1))

    results = {}
    for path, budget in PATH_BUDGETS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "STACK_BYTES", budget)
            results[path] = forward_adjoint(batch, theta, states, obs)
    (fused_out, fused_grad), (layer_out, layer_grad) = results["fused"], results["per-layer"]
    assert fused_out.shape == (size * points,) and fused_grad.shape == (size * points, layers)
    assert layer_grad.shape == fused_grad.shape
    assert np.max(np.abs(fused_out - layer_out)) <= 1e-12
    assert np.max(np.abs(fused_grad - layer_grad), initial=0.0) <= 1e-12
    for r in range(size * points):
        s = r // points
        per_layer = [fixed[k][s] for k in range(layers)]
        value, grad = dense_output_and_gradient(
            letters[s if own_generators else 0], per_layer, theta[:, s], states[r], observable_matrix(obs)
        )
        for out, grads in results.values():
            assert abs(out[r] - value) <= 1e-12
            assert np.max(np.abs(grads[r] - grad), initial=0.0) <= 1e-12


@pytest.mark.parametrize("path", sorted(PATH_BUDGETS))
def test_both_engine_paths_apply_the_observable_as_the_dense_oracle(path, monkeypatch):
    # identity layers and the CNOT permutation at n = 4, and an observable
    # with repeated codes, an identity term, a zero and negative coefficients
    monkeypatch.setattr(kernels, "STACK_BYTES", PATH_BUDGETS[path])
    n, rows = 4, 3
    gen = np.random.default_rng(80)
    obs = _pauli_sum(n, gen, 10)
    circuit = build_hardware_efficient(n, 1, "cnot-su2", RngStream(81))
    theta = uniform_angles(circuit.num_layers, RngStream(82))
    states = gen.standard_normal((rows, 1 << n)) + 1j * gen.standard_normal((rows, 1 << n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    outputs, grads = forward_adjoint(circuit.repeat(rows), np.repeat(theta[:, None], rows, axis=1), states, obs)
    letters, fixed = zip(*circuit_layers(circuit))
    tol = 1e-12 * sum(abs(c) for c, _ in obs.terms)
    for r in range(rows):
        # helpers.dense_output and its shift-rule gradient
        value, grad = dense_output_and_gradient(letters, fixed, theta, states[r], observable_matrix(obs))
        assert abs(outputs[r] - value) <= tol and np.max(np.abs(grads[r] - grad)) <= tol


def test_engine_rejects_unnormalized_row():
    ansatz = build_random_ansatz(2, 3, RngStream(32))
    states = np.stack([zero_state(2), 2.0 * basis_state(2, 1)])
    with pytest.raises(ValueError, match="normalized"):
        forward_adjoint(ansatz.repeat(2), np.zeros((3, 2)), states, ZZ)
