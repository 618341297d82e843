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
    cnot_ladder,
    dense_layer,
    sample_hardware_efficient,
    sample_random_circuits,
    uniform_angles,
)
from qntklab.linalg import (
    RngStream,
    code_letters,
    haar_unitary,
    sample_pauli,
    zero_state,
)

from helpers import (
    circuit_layers,
    circuit_unitary,
    cnot_chain,
    dense_fixed,
    evolve_state,
    expm_pauli,
    pauli_action,
    pauli_matrix,
    prefix_suffix,
)


def brute_force_unitary(ansatz, theta):
    # independent route: eigendecomposition exponentials, explicit product
    u = np.eye(ansatz.dim, dtype=complex)
    for (gen, w), t in zip(circuit_layers(ansatz), theta):
        u = w @ expm_pauli(gen, t) @ u
    return u


def letters(circuit, s=0):
    return [gen for gen, _ in circuit_layers(circuit, s)]


def test_empty_ansatz_is_identity():
    a = build_random_ansatz(2, 0, RngStream(1))
    assert np.array_equal(circuit_unitary(a, np.empty(0)), np.eye(4))


def test_random_ansatz_shapes():
    a = build_random_ansatz(2, 64, RngStream(2))
    assert a.num_layers == 64 and a.size == 1
    assert a.codes.shape == (1, 64)
    assert all(w.shape == (4, 4) for w in a.fixed)
    assert all(gen != "II" for gen in letters(a))


def test_same_stream_same_spec():
    a = build_random_ansatz(2, 6, RngStream(3, 7))
    b = build_random_ansatz(2, 6, RngStream(3, 7))
    assert np.array_equal(a.codes, b.codes)
    for wa, wb in zip(a.fixed, b.fixed):
        assert np.array_equal(wa, wb)


def test_zero_angles_give_fixed_unitary_product():
    a = build_random_ansatz(2, 5, RngStream(4))
    expected = np.eye(4, dtype=complex)
    for w in a.fixed:
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
    expected = a.fixed[0] @ expm_pauli(letters(a)[0], theta[0])
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
    obs = Observable.from_letters(((1.0, "ZZ"), (0.4, "XY")), 0.0)
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
    for gen in letters(a):
        weight = sum(c != "I" for c in gen)
        assert weight in (1, 2)
    # every fixed layer is the identity; the couplings themselves carry the angles
    assert all(w is None for w in a.fixed)


def test_cnot_su2_structure():
    a = build_hardware_efficient(2, 1, "cnot-su2", RngStream(15))
    assert a.num_layers == 6
    chain = cnot_chain(2)
    theta = uniform_angles(6, RngStream(16))
    rotations = np.eye(4, dtype=complex)
    for gen, t in zip(letters(a), theta):
        rotations = expm_pauli(gen, t) @ rotations
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


def test_spec_arrays_are_read_only():
    a = build_random_ansatz(2, 2, RngStream(19))
    with pytest.raises(ValueError):
        a.fixed[0][0, 0] = 0.0


def test_batch_arrays_are_read_only():
    # the cached gate factors are built from them, so an in-place write must fail
    sampled = sample_random_circuits(2, 3, [RngStream(24, (k,)) for k in range(2)])
    repeated = build_random_ansatz(2, 3, RngStream(24, (0,))).repeat(2)
    assert sampled.fixed[0].shape == (2, 4, 4) and repeated.fixed[0].shape == (4, 4)
    arrays = [
        sampled.fixed[0],
        sampled.codes,
        sampled.perms,
        sampled.phases,
        repeated.fixed[1],
        repeated.codes,
        repeated.perms,
        repeated.phases,
        *sampled.gate_factors(),
    ]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_gate_factors_are_the_fixed_unitary_and_its_product_with_the_generator():
    # stacked layers with per-circuit generators, and shared ones
    streams = [RngStream(25, (k,)) for k in range(3)]
    for batch in (sample_random_circuits(3, 4, streams), build_random_ansatz(3, 4, streams[0]).repeat(2)):
        w, wx = batch.gate_factors()
        assert w.shape == wx.shape == (4, batch.size, 8, 8)
        assert batch.gate_factors()[1] is wx  # built once
        for s in range(batch.size):
            for k, (gen, fixed) in enumerate(circuit_layers(batch, s)):
                assert np.array_equal(w[k, s], fixed)
                assert np.max(np.abs(wx[k, s] - fixed @ pauli_matrix(gen))) <= 1e-15


def test_hand_built_circuit_is_a_one_circuit_batch():
    w = haar_unitary(4, RngStream(27))
    a = AnsatzSpec(2, ("XZ", "IY", "ZI"), (w, None, cnot_ladder(2)))
    assert isinstance(a, CircuitBatch) and a.size == 1 and a.num_layers == 3
    assert letters(a) == ["XZ", "IY", "ZI"]
    assert a.fixed[0] is w and a.fixed[1] is None
    theta = np.array([0.3, -1.1, 2.0])
    expected = cnot_chain(2) @ expm_pauli("ZI", 2.0) @ expm_pauli("IY", -1.1) @ w @ expm_pauli("XZ", 0.3)
    assert np.max(np.abs(circuit_unitary(a, theta) - expected)) <= 1e-12


def test_generator_of_the_wrong_width_rejected():
    with pytest.raises(ValueError, match="act on 2 qubits"):
        AnsatzSpec(2, ("XZ", "XYZ"), (None, None))


@pytest.mark.parametrize("num_qubits, letters", [(1, "Q"), (2, "xz"), (2, "X-")])
def test_generator_with_invalid_letters_rejected(num_qubits, letters):
    with pytest.raises(ValueError, match=f"invalid Pauli string '{letters}'"):
        AnsatzSpec(num_qubits, (letters,), (None,))


def test_single_circuit_calls_reject_a_larger_batch():
    batch = sample_random_circuits(2, 3, [RngStream(28, (k,)) for k in range(2)])
    with pytest.raises(ValueError, match="one circuit"):
        residual_error(batch, np.zeros(3), Observable.from_letters(((1.0, "ZZ"),), 0.0), zero_state(2))


def test_mismatched_layer_lists_rejected():
    with pytest.raises(ValueError):
        AnsatzSpec(1, ("Z",), tuple())


def test_non_unitary_fixed_layer_rejected():
    with pytest.raises(ValueError):
        AnsatzSpec(1, ("Z",), (2.0 * np.eye(2, dtype=complex),))


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
            assert gen == alone.codes[0, k]
            assert np.array_equal(alone.fixed[k], w)
            assert np.array_equal(batch.fixed[k][s], w)
            perm, phase = pauli_action(code_letters(n, gen))
            assert np.array_equal(batch.perms[k, s], perm)
            assert np.array_equal(batch.phases[k, s], phase)


@pytest.mark.parametrize("variant", ["cphase-ladder", "cnot-su2"])
def test_hardware_efficient_sampler_matches_circuits_built_alone(variant):
    streams = [RngStream(21, (k,)) for k in range(3)]
    batch = sample_hardware_efficient(3, 2, variant, streams)
    assert batch.size == 3 and batch.num_layers == 2 * {"cphase-ladder": 5, "cnot-su2": 9}[variant]
    for s in range(3):
        alone = build_hardware_efficient(3, 2, variant, RngStream(21, (s,)))
        assert alone.size == 1
        assert np.array_equal(batch.codes[min(s, len(batch.codes) - 1)], alone.codes[0])
        for w, v in zip(batch.fixed, alone.fixed):
            assert (w is None and v is None) or np.array_equal(w, v)
    # nothing is drawn for cnot-su2, so its circuits share one row of codes
    assert batch.codes.shape == ((1, 18) if variant == "cnot-su2" else (3, 10))


def test_batches_share_layers_without_copies():
    # the ladder is one array for every block and every circuit
    batch = sample_hardware_efficient(3, 2, "cnot-su2", [RngStream(21, (k,)) for k in range(3)])
    assert batch.fixed[8] is batch.fixed[17] and batch.fixed[8].shape == (8,)
    assert all(w is None for k, w in enumerate(batch.fixed) if k not in (8, 17))
    cphase = sample_hardware_efficient(3, 2, "cphase-ladder", [RngStream(21, (k,)) for k in range(3)])
    assert all(w is None for w in cphase.fixed)
    # a repeated circuit passes its codes and every layer on as they are
    for one in (build_random_ansatz(2, 4, RngStream(22)), build_hardware_efficient(3, 2, "cnot-su2", RngStream(22))):
        shared = one.repeat(5)
        assert shared.size == 5 and shared.perms.shape == (one.num_layers, 1, one.dim)
        assert shared.codes is one.codes
        assert all(w is v for w, v in zip(shared.fixed, one.fixed))
    # a per-circuit layer of a one-circuit batch is passed on as its (D, D) view
    single = sample_random_circuits(2, 3, [RngStream(22)])
    assert single.fixed[0].shape == (1, 4, 4)
    repeated = single.repeat(2)
    assert repeated.fixed[0].shape == (4, 4) and np.shares_memory(repeated.fixed[0], single.fixed[0])


def test_only_one_circuit_is_repeated():
    with pytest.raises(ValueError, match="only one circuit"):
        sample_random_circuits(2, 3, [RngStream(23, (k,)) for k in range(2)]).repeat(4)


def test_each_fixed_array_is_checked_once(monkeypatch):
    calls = []
    original = circuits.is_unitary
    monkeypatch.setattr(circuits, "is_unitary", lambda w: calls.append(w) or original(w))
    w = haar_unitary(8, RngStream(23))
    gens = ("XII", "IZI", "IIY", "ZZI", "XYZ")
    a = AnsatzSpec(3, gens, (w, None, w, cnot_ladder(3), w))
    assert a.num_layers == 5
    assert len(calls) == 1  # the repeated dense layer; identity and permutation need no check


def test_hardware_efficient_circuit_holds_no_dense_layer(monkeypatch):
    calls = []
    monkeypatch.setattr(circuits, "is_unitary", lambda w: calls.append(w) or True)
    a = build_hardware_efficient(9, 1, "cnot-su2", RngStream(26))
    assert a.num_layers == 27 and calls == []
    assert all(w is None for w in a.fixed[:-1])
    assert a.fixed[-1].shape == (512,)
    b = build_hardware_efficient(9, 1, "cphase-ladder", RngStream(26))
    assert all(w is None for w in b.fixed) and calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cnot_ladder_is_the_dense_chain(n):
    assert np.array_equal(dense_layer(cnot_ladder(n), 1 << n), cnot_chain(n))
    assert np.array_equal(dense_fixed(cnot_ladder(n), 1 << n), cnot_chain(n))


@pytest.mark.parametrize(
    "perm, message",
    [
        ([0, 1, 1, 3], "each index"),
        ([0, 1, 2, 4], "each index"),
        ([0, -1, 2, 3], "each index"),
        ([0, 2, 1], "length 3"),
        ([1, 0, 3, 2, 4, 5, 6, 7], "length 8"),
        ([0.0, 1.0, 2.0, 3.0], "integer"),
    ],
    ids=["repeated", "out-of-range", "negative", "short", "long", "float"],
)
def test_bad_permutation_layer_rejected(perm, message):
    with pytest.raises(ValueError, match=message):
        AnsatzSpec(2, ("XZ",), (np.array(perm),))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_code_tables_match_the_letter_by_letter_oracle_bit_for_bit(n):
    # every code of n qubits, in one (S, L) array; signed zeros included
    codes = np.arange(4**n).reshape(4, -1)
    perms, phases = circuits.code_tables(n, codes)
    assert perms.shape == phases.shape == (4 ** (n - 1), 4, 1 << n)
    for s, row in enumerate(codes):
        for k, code in enumerate(row):
            perm, phase = pauli_action(code_letters(n, int(code)))
            assert perms[k, s].dtype == perm.dtype and np.array_equal(perms[k, s], perm)
            assert phases[k, s].tobytes() == phase.tobytes()


def test_chunk_grid_is_fixed_by_size():
    grid = chunk_grid(40, 4, 64)
    assert grid == [(0, 16), (16, 32), (32, 40)]
    assert chunk_grid(3, 256, 16) == [(0, 1), (1, 2), (2, 3)]
