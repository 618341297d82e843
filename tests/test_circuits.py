import numpy as np
import pytest

from qntklab import Observable, residual_error
import qntklab.circuits as circuits
from qntklab.circuits import (
    AnsatzSpec,
    CircuitBatch,
    build_hardware_efficient,
    build_random_ansatz,
    chunk_grid,
    cnot_chain,
    sample_random_circuits,
    uniform_angles,
    y_tilted_state,
)
from qntklab.linalg import (
    PauliString,
    RngStream,
    _pauli_action,
    haar_unitary,
    sample_pauli,
    zero_state,
)

from helpers import circuit_unitary, evolve_state, expm_pauli, prefix_suffix


def brute_force_unitary(ansatz, theta):
    # independent route: eigendecomposition exponentials, explicit product
    u = np.eye(ansatz.dim, dtype=complex)
    for gen, w, t in zip(ansatz.generators, ansatz.fixed_unitaries, theta):
        u = w @ expm_pauli(gen.letters, t) @ u
    return u


def test_empty_ansatz_is_identity():
    a = build_random_ansatz(2, 0, RngStream(1))
    assert np.array_equal(circuit_unitary(a, np.empty(0)), np.eye(4))


def test_random_ansatz_shapes():
    a = build_random_ansatz(2, 64, RngStream(2))
    assert a.num_layers == 64
    assert len(a.generators) == 64
    assert all(w.shape == (4, 4) for w in a.fixed_unitaries)
    assert all(not g.is_identity for g in a.generators)


def test_same_stream_same_spec():
    a = build_random_ansatz(2, 6, RngStream(3, 7))
    b = build_random_ansatz(2, 6, RngStream(3, 7))
    assert [g.letters for g in a.generators] == [g.letters for g in b.generators]
    for wa, wb in zip(a.fixed_unitaries, b.fixed_unitaries):
        assert np.array_equal(wa, wb)


def test_zero_angles_give_fixed_unitary_product():
    a = build_random_ansatz(2, 5, RngStream(4))
    expected = np.eye(4, dtype=complex)
    for w in a.fixed_unitaries:
        expected = w @ expected
    assert np.max(np.abs(circuit_unitary(a, np.zeros(5)) - expected)) <= 1e-12


def test_circuit_matches_brute_force_product():
    rng = RngStream(5)
    a = build_random_ansatz(2, 8, rng)
    theta = uniform_angles(8, rng.substream(0))
    assert np.max(np.abs(circuit_unitary(a, theta) - brute_force_unitary(a, theta))) <= 1e-12


def test_circuit_unitarity():
    rng = RngStream(6)
    for k in range(20):
        a = build_random_ansatz(3, 6, rng.substream(k))
        theta = uniform_angles(6, rng.substream(1000 + k))
        u = circuit_unitary(a, theta)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10


def test_length_mismatch_rejected():
    a = build_random_ansatz(2, 4, RngStream(7))
    with pytest.raises(ValueError):
        circuit_unitary(a, np.zeros(3))


def test_prefix_suffix_boundaries():
    rng = RngStream(8)
    a = build_random_ansatz(2, 5, rng)
    theta = uniform_angles(5, rng.substream(0))
    prefix, suffix = prefix_suffix(a, theta, 5)
    assert np.array_equal(suffix, np.eye(4))
    prefix1, _ = prefix_suffix(a, theta, 1)
    expected = a.fixed_unitaries[0] @ expm_pauli(a.generators[0].letters, theta[0])
    assert np.max(np.abs(prefix1 - expected)) <= 1e-12


def test_prefix_suffix_recomposition():
    rng = RngStream(9)
    a = build_random_ansatz(2, 6, rng)
    theta = uniform_angles(6, rng.substream(0))
    u = circuit_unitary(a, theta)
    for ell in range(1, 7):
        prefix, suffix = prefix_suffix(a, theta, ell)
        assert np.max(np.abs(suffix @ prefix - u)) <= 1e-12


def test_prefix_suffix_index_out_of_range():
    a = build_random_ansatz(2, 3, RngStream(10))
    theta = np.zeros(3)
    for bad in (0, 4, -1):
        with pytest.raises(IndexError):
            prefix_suffix(a, theta, bad)


def test_evolve_matches_dense_unitary():
    rng = RngStream(11)
    a = build_random_ansatz(3, 7, rng)
    theta = uniform_angles(7, rng.substream(0))
    psi = zero_state(3)
    assert np.max(np.abs(evolve_state(a, theta, psi) - circuit_unitary(a, theta) @ psi)) <= 1e-12


def test_expectation_two_pi_periodicity():
    rng = RngStream(12)
    a = build_random_ansatz(2, 5, rng)
    theta = uniform_angles(5, rng.substream(0))
    obs = Observable(((1.0, PauliString("ZZ")), (0.4, PauliString("XY"))))
    psi = zero_state(2)
    base = residual_error(a, theta, obs, psi)
    for ell in range(5):
        shifted = theta.copy()
        shifted[ell] += 2 * np.pi
        assert abs(residual_error(a, shifted, obs, psi) - base) <= 1e-12


def test_cphase_ladder_parameter_count():
    a = build_hardware_efficient(4, 1, "cphase-ladder", RngStream(13))
    assert a.num_layers == 4 + 3
    b = build_hardware_efficient(4, 3, "cphase-ladder", RngStream(13))
    assert b.num_layers == 3 * 7


def test_cphase_ladder_axes_are_single_qubit():
    a = build_hardware_efficient(3, 2, "cphase-ladder", RngStream(14))
    for k, gen in enumerate(a.generators):
        weight = sum(c != "I" for c in gen.letters)
        assert weight in (1, 2)
    # every fixed unitary is trivial; the couplings themselves carry the angles
    for w in a.fixed_unitaries:
        assert np.array_equal(w, np.eye(8))


def test_cnot_su2_structure():
    a = build_hardware_efficient(2, 1, "cnot-su2", RngStream(15))
    assert a.num_layers == 6
    chain = cnot_chain(2)
    theta = uniform_angles(6, RngStream(16))
    rotations = np.eye(4, dtype=complex)
    for gen, t in zip(a.generators, theta):
        rotations = expm_pauli(gen.letters, t) @ rotations
    assert np.max(np.abs(circuit_unitary(a, theta) - chain @ rotations)) <= 1e-12
    # all-zero angles leave just the entangler
    assert np.max(np.abs(circuit_unitary(a, np.zeros(6)) - chain)) <= 1e-12


def test_hardware_efficient_rejects_single_qubit():
    with pytest.raises(ValueError):
        build_hardware_efficient(1, 1, "cphase-ladder", RngStream(17))
    with pytest.raises(ValueError):
        build_hardware_efficient(3, 1, "no-such-variant", RngStream(17))


def test_hardware_efficient_layerwise_evolution_roundtrip():
    rng = RngStream(18)
    for variant in ("cphase-ladder", "cnot-su2"):
        a = build_hardware_efficient(3, 2, variant, rng.substream(hash(variant) % 100))
        theta = uniform_angles(a.num_layers, rng.substream(50))
        psi = zero_state(3)
        assert np.max(np.abs(evolve_state(a, theta, psi) - circuit_unitary(a, theta) @ psi)) <= 1e-12


def test_cnot_chain_matrix():
    chain = cnot_chain(2)
    # control qubit 0, target qubit 1 in the leftmost-is-qubit-0 convention
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(chain, expected)


def test_y_tilted_state():
    psi = y_tilted_state(4)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    single = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    expected = np.kron(np.kron(single, single), np.kron(single, single))
    assert np.allclose(psi, expected, atol=1e-14)


def test_spec_arrays_are_read_only():
    a = build_random_ansatz(2, 2, RngStream(19))
    with pytest.raises(ValueError):
        a.fixed_unitaries[0][0, 0] = 0.0


def test_mismatched_layer_lists_rejected():
    with pytest.raises(ValueError):
        AnsatzSpec(1, (PauliString("Z"),), tuple())


def test_non_unitary_fixed_layer_rejected():
    with pytest.raises(ValueError):
        AnsatzSpec(1, (PauliString("Z"),), (2.0 * np.eye(2, dtype=complex),))


@pytest.mark.parametrize("n,layers", [(2, 6), (3, 0), (7, 3)])
def test_batched_sampler_matches_circuits_built_alone(n, layers):
    # at n=7 one matrix fills a QR block, at n=2 many circuits share one
    streams = [RngStream(20, (k,)) for k in range(3)]
    batch = sample_random_circuits(n, layers, streams)
    assert batch.size == 3 and batch.num_layers == layers
    for s in range(3):
        alone = build_random_ansatz(n, layers, RngStream(20, (s,)))
        # one draw after the other from the circuit's own stream, as drawn alone
        rng = RngStream(20, (s,))
        for k in range(layers):
            gen = sample_pauli(n, rng)
            w = haar_unitary(1 << n, rng)
            assert gen == alone.generators[k]
            assert np.array_equal(alone.fixed_unitaries[k], w)
            assert np.array_equal(batch.fixed[k][s], w)
            perm, phase = _pauli_action(gen.letters)
            assert np.array_equal(batch.perms[k, s], perm)
            assert np.array_equal(batch.phases[k, s], phase)


def test_batch_shares_equal_layers_without_copies():
    specs = [build_hardware_efficient(3, 2, "cphase-ladder", RngStream(21, (k,))) for k in range(3)]
    batch = CircuitBatch.from_specs(specs)
    assert all(w.shape == (8, 8) for w in batch.fixed)
    assert batch.fixed[0] is specs[0].fixed_unitaries[0]
    shared = build_random_ansatz(2, 4, RngStream(22)).batch(5)
    assert shared.size == 5 and shared.perms.shape == (4, 1, 4)


def test_each_fixed_array_is_checked_once(monkeypatch):
    calls = []
    original = circuits.is_unitary
    monkeypatch.setattr(circuits, "is_unitary", lambda w: calls.append(w) or original(w))
    a = build_hardware_efficient(3, 3, "cnot-su2", RngStream(23))
    assert a.num_layers == 27
    assert len(calls) == 2  # the shared identity and the CNOT chain


def test_chunk_grid_is_fixed_by_size():
    grid = chunk_grid(40, 4, 64)
    assert grid == [(0, 16), (16, 32), (32, 40)]
    assert chunk_grid(3, 256, 16) == [(0, 1), (1, 2), (2, 3)]
