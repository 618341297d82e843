import dataclasses

import numpy as np
import pytest

from qntklab.circuits import (
    AnsatzSpec,
    CircuitBatch,
    build_hardware_efficient,
    build_random_ansatz,
    cnot_chain,
    uniform_angles,
)
from qntklab.kernels import (
    NonRealExpectationError,
    Observable,
    SupervisedProblem,
    forward_adjoint,
    gradient,
    hessian_residual,
    meta_kernel,
    model_output,
    outputs_and_gradients,
    qntk,
    random_pauli_sum,
    real_expectation,
    residual_error,
    supervised_kernel,
)
from qntklab.linalg import (
    PauliString,
    RngStream,
    _pauli_action,
    basis_state,
    haar_unitary,
    pauli_matrix,
    sample_pauli,
    zero_state,
)

from helpers import (
    circuit_unitary,
    dense_output_and_gradient,
    fd_gradient,
    fd_hessian,
    gradient_close,
    parameter_shift_gradient,
    prefix_suffix,
)

ZZ = Observable(((1.0, PauliString("ZZ")),))


def random_setup(seed, n=2, layers=8, terms=10):
    rng = RngStream(seed)
    ansatz = build_random_ansatz(n, layers, rng.substream(0))
    obs = random_pauli_sum(n, terms, rng.substream(1))
    theta = uniform_angles(layers, rng.substream(2))
    return ansatz, theta, obs, zero_state(n)


def test_observable_dense_matches_term_sum():
    rng = RngStream(1)
    obs = random_pauli_sum(3, 10, rng)
    expected = sum(c * pauli_matrix(p) for c, p in obs.terms)
    assert np.max(np.abs(obs.matrix - expected)) <= 1e-12
    assert np.max(np.abs(obs.matrix - obs.matrix.conj().T)) <= 1e-12


def test_observable_trace_powers():
    obs = Observable(((0.7, PauliString("ZZ")), (0.2, PauliString("XI"))))
    mat = np.asarray(obs.matrix)
    for k in (1, 2, 3, 4, 6):
        direct = np.trace(np.linalg.matrix_power(mat, k)).real
        assert obs.trace_power(k) == pytest.approx(direct, abs=1e-10)


def test_observable_is_frozen_and_caches_outside_its_fields():
    # a cache passed to the constructor used to be trusted: trace_power(2) gave 0
    with pytest.raises(TypeError):
        Observable(((1.0, PauliString("ZZ")),), _matrix=np.zeros((4, 4)))
    obs = Observable(((1.0, PauliString("ZZ")),))
    assert obs.trace_power(2) == 4.0
    # reassigning the terms after a matrix read used to leave the old matrix
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.terms = ((1.0, PauliString("XX")),)
    assert np.array_equal(obs.matrix, pauli_matrix("ZZ"))
    with pytest.raises(ValueError, match="finite"):
        Observable(((float("nan"), PauliString("ZZ")),))


def test_observable_coefficients_in_range():
    obs = random_pauli_sum(2, 10, RngStream(2))
    assert len(obs.terms) == 10
    assert all(0.0 < c < 1.0 for c, _ in obs.terms)


def test_residual_error_basis_cases():
    empty = build_random_ansatz(2, 0, RngStream(3))
    assert residual_error(empty, np.empty(0), ZZ, zero_state(2)) == pytest.approx(1.0)
    shifted = Observable(ZZ.terms, target=-1.0)
    assert residual_error(empty, np.empty(0), shifted, basis_state(2, 1)) == pytest.approx(0.0)


def test_residual_error_matches_dense_conjugation():
    ansatz, theta, obs, psi = random_setup(4)
    u = circuit_unitary(ansatz, theta)
    expected = np.vdot(psi, u.conj().T @ obs.matrix @ u @ psi).real - obs.target
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
    ansatz = AnsatzSpec(2, (PauliString("ZI"),), (np.eye(4, dtype=complex),))
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
    heis = u.conj().T @ obs.matrix @ u
    for ell in range(1, 6):
        if ell == 1:
            prefix = np.eye(4, dtype=complex)
        else:
            prefix, _ = prefix_suffix(ansatz, theta, ell - 1)
        frame_gen = prefix.conj().T @ pauli_matrix(ansatz.generators[ell - 1]) @ prefix
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
    second = Observable(((1.0, PauliString("XX")),))
    prob = SupervisedProblem.with_basis_features(2, np.zeros((3, 2)), (ZZ, second))
    outputs, grads = outputs_and_gradients(empty, np.empty(0), prob)
    assert outputs.shape == (6,) and grads.shape == (6, 0)
    kernel = supervised_kernel(empty, np.empty(0), prob)
    assert kernel.shape == (6, 6) and not np.any(kernel)


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
    heis = u.conj().T @ obs.matrix @ u
    frame = []
    for ell in range(1, 6):
        c = np.eye(4, dtype=complex) if ell == 1 else prefix_suffix(ansatz, theta, ell - 1)[0]
        frame.append(c.conj().T @ pauli_matrix(ansatz.generators[ell - 1]) @ c)
    for a in range(5):
        for b in range(a, 5):
            inner = frame[b] @ heis - heis @ frame[b]
            nested = -np.vdot(psi, (frame[a] @ inner - inner @ frame[a]) @ psi)
            assert abs(nested.imag) <= 1e-10
            assert exact[a, b] == pytest.approx(nested.real, abs=1e-10)
    # diagonal entries also equal the conjugated double-commutator sandwich
    for ell in range(1, 6):
        prefix, suffix = prefix_suffix(ansatz, theta, ell)
        w = ansatz.fixed_unitaries[ell - 1]
        xhat = w @ pauli_matrix(ansatz.generators[ell - 1]) @ w.conj().T
        pulled = suffix.conj().T @ obs.matrix @ suffix
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
    non_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    vec = np.array([1.0, 1.0j]) / np.sqrt(2)
    with pytest.raises(NonRealExpectationError):
        real_expectation(non_hermitian, vec)


def test_supervised_single_pair_reduces_to_qntk():
    rng = RngStream(14)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    theta = uniform_angles(6, rng.substream(1))
    prob = SupervisedProblem.with_basis_features(2, np.array([0.0]), (ZZ,))
    kernel = supervised_kernel(ansatz, theta, prob)
    g = gradient(ansatz, theta, ZZ, basis_state(2, 0))
    assert kernel.shape == (1, 1)
    assert kernel[0, 0] == qntk(g)


def test_supervised_duplicate_samples_give_equal_rows():
    rng = RngStream(15)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    theta = uniform_angles(6, rng.substream(1))
    feats = np.stack([basis_state(2, 1), basis_state(2, 1)])
    prob = SupervisedProblem(feats, np.zeros((2, 1)), (ZZ,), (0, 1))
    kernel = supervised_kernel(ansatz, theta, prob)
    assert np.allclose(kernel[0], kernel[1], atol=1e-12)
    assert abs(np.linalg.det(kernel)) <= 1e-10


@pytest.mark.parametrize("n,size", [(2, 3), (2, 4), (4, 6)])
def test_supervised_kernel_symmetric_psd(n, size):
    for seed in range(10):
        rng = RngStream(200 + seed, (n, size))
        ansatz = build_random_ansatz(n, 8, rng.substream(0))
        obs = random_pauli_sum(n, 6, rng.substream(1))
        theta = uniform_angles(8, rng.substream(2))
        prob = SupervisedProblem.with_basis_features(n, np.zeros(size), (obs,))
        kernel = supervised_kernel(ansatz, theta, prob)
        assert np.max(np.abs(kernel - kernel.T)) <= 1e-10
        assert np.linalg.eigvalsh(kernel)[0] >= -1e-10


def test_supervised_multi_output_index_order():
    rng = RngStream(16)
    ansatz = build_random_ansatz(2, 5, rng.substream(0))
    theta = uniform_angles(5, rng.substream(1))
    obs2 = Observable(((1.0, PauliString("XI")),))
    prob = SupervisedProblem.with_basis_features(2, np.zeros((2, 2)), (ZZ, obs2))
    kernel = supervised_kernel(ansatz, theta, prob)
    assert kernel.shape == (4, 4)
    # row 0 is (sample 0, first observable)
    g = gradient(ansatz, theta, ZZ, basis_state(2, 0))
    assert kernel[0, 0] == pytest.approx(qntk(g))


def test_basis_features_require_room():
    with pytest.raises(ValueError):
        SupervisedProblem.with_basis_features(1, np.zeros(3), (Observable(((1.0, PauliString("Z")),)),))


def test_empty_training_set_rejected():
    feats = np.stack([basis_state(2, 0)])
    with pytest.raises(ValueError):
        SupervisedProblem(feats, np.zeros((1, 1)), (ZZ,), ())


def test_unnormalized_state_rejected():
    ansatz = build_random_ansatz(2, 3, RngStream(21))
    with pytest.raises(ValueError, match="normalized"):
        residual_error(ansatz, np.zeros(3), ZZ, 2.0 * zero_state(2))


@pytest.mark.parametrize("points", [1, 3])
def test_mixed_engine_call_matches_single_circuit_oracle(points):
    # layers 1 and 3 carry one Haar matrix per circuit, layer 2 one Haar
    # matrix shared by all, layer 4 the shared CNOT chain; every circuit has
    # its own generators and angles, and serves `points` rows, each with its
    # own input state
    n, size, layers = 2, 5, 4
    dim = 1 << n
    rng = RngStream(31)
    own = [np.stack([haar_unitary(dim, rng.substream(100 * k + s)) for s in range(size)]) for k in (0, 2)]
    fixed = (own[0], haar_unitary(dim, rng.substream(7)), own[1], cnot_chain(n))
    letters = [[sample_pauli(n, rng.substream(1000 + s)).letters for _ in range(layers)] for s in range(size)]
    actions = [[_pauli_action(x) for x in row] for row in letters]
    perms = np.array([[actions[s][k][0] for s in range(size)] for k in range(layers)])
    phases = np.array([[actions[s][k][1] for s in range(size)] for k in range(layers)])
    batch = CircuitBatch(n, size, fixed, perms, phases)
    theta = rng.substream(2).generator.uniform(0.0, 2.0 * np.pi, size=(layers, size))
    states = rng.substream(3).generator.standard_normal((size * points, dim, 2)) @ np.array([1.0, 1.0j])
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    obs = random_pauli_sum(n, 10, rng.substream(4))
    outputs, grads = forward_adjoint(batch, theta, states, obs.matrix)
    assert outputs.shape == (size * points,) and grads.shape == (size * points, layers)
    for r in range(size * points):
        s = r // points
        per_layer = [w if w.ndim == 2 else w[s] for w in fixed]
        value, grad = dense_output_and_gradient(letters[s], per_layer, theta[:, s], states[r], obs.matrix)
        assert abs(outputs[r] - value) <= 1e-12
        assert np.max(np.abs(grads[r] - grad)) <= 1e-12


def test_engine_rejects_unnormalized_row():
    ansatz = build_random_ansatz(2, 3, RngStream(32))
    states = np.stack([zero_state(2), 2.0 * basis_state(2, 1)])
    with pytest.raises(ValueError, match="normalized"):
        forward_adjoint(ansatz.batch(2), np.zeros((3, 2)), states, ZZ.matrix)


def test_supervised_points_are_batched_within_the_byte_budget(monkeypatch):
    import qntklab.kernels as kernels

    rng = RngStream(33)
    ansatz = build_random_ansatz(3, 5, rng.substream(0))
    theta = uniform_angles(5, rng.substream(1))
    obs = random_pauli_sum(3, 6, rng.substream(2))
    second = Observable(((1.0, PauliString("ZZI")),))
    prob = SupervisedProblem.with_basis_features(3, np.zeros((8, 2)), (obs, second))
    whole = kernels.outputs_and_gradients(ansatz, theta, prob)
    sizes = []
    engine = kernels.forward_adjoint

    def record(batch, theta, psi, obs_matrix):
        # (circuits, state rows) of each engine call: the points are rows of one circuit
        sizes.append((batch.size, len(psi)))
        return engine(batch, theta, psi, obs_matrix)

    monkeypatch.setattr(kernels, "forward_adjoint", record)
    monkeypatch.setattr(kernels, "STACK_BYTES", 3 * 5 * 8 * 16)
    blocks = kernels.outputs_and_gradients(ansatz, theta, prob)
    assert sizes == [(1, 3), (1, 3), (1, 3), (1, 3), (1, 2), (1, 2)]
    assert np.max(np.abs(blocks[0] - whole[0])) <= 1e-12
    assert np.max(np.abs(blocks[1] - whole[1])) <= 1e-12
