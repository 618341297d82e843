import numpy as np
import pytest

from qntklab.haar import mc_second_moment
from qntklab.linalg import (
    PauliString,
    RngStream,
    basis_state,
    haar_unitary,
    is_unitary,
    kahan_sum,
    matrices_per_block,
    pauli_matrix,
    sample_pauli,
    zero_state,
)

from helpers import expm_pauli, pauli_rotation, rotate_state


def random_letters(n, gen):
    return "".join(gen.choice(list("IXYZ")) for _ in range(n))


def test_pauli_matrix_zz_diagonal():
    assert np.allclose(pauli_matrix("ZZ"), np.diag([1, -1, -1, 1]))


def test_pauli_matrix_identity():
    assert np.array_equal(pauli_matrix("II"), np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_trace_and_involution(n):
    gen = np.random.default_rng(2 * n)
    for _ in range(40):
        letters = random_letters(n, gen)
        mat = pauli_matrix(letters)
        assert np.allclose(mat @ mat, np.eye(2**n), atol=1e-14)
        assert np.allclose(mat, mat.conj().T, atol=1e-14)
        assert abs(np.trace(mat @ mat) - 2**n) < 1e-12
        if set(letters) != {"I"}:
            assert abs(np.trace(mat)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_apply_matches_dense(n):
    gen = np.random.default_rng(n + 10)
    for _ in range(25):
        p = PauliString(random_letters(n, gen))
        vec = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
        assert np.allclose(p.apply(vec), pauli_matrix(p) @ vec, atol=1e-13)
        mat = gen.standard_normal((2**n, 2**n)) + 1j * gen.standard_normal((2**n, 2**n))
        assert np.allclose(p.apply(mat), pauli_matrix(p) @ mat, atol=1e-13)


def test_pauli_string_rejects_bad_letters():
    with pytest.raises(ValueError):
        PauliString("XQ")
    with pytest.raises(ValueError):
        PauliString("")


def test_rotation_at_zero_is_identity():
    assert np.allclose(pauli_rotation("XY", 0.0), np.eye(4), atol=1e-15)


def test_rotation_at_half_pi_is_i_times_pauli():
    p = "ZX"
    assert np.allclose(pauli_rotation(p, np.pi / 2), 1j * pauli_matrix(p), atol=1e-14)


def test_rotation_matches_dense_exponential_oracle():
    gen = np.random.default_rng(7)
    for _ in range(100):
        n = int(gen.integers(1, 4))
        letters = random_letters(n, gen)
        theta = float(gen.uniform(-2 * np.pi, 2 * np.pi))
        assert np.max(np.abs(pauli_rotation(letters, theta) - expm_pauli(letters, theta))) <= 1e-12


def test_rotation_single_z_example():
    # (p="Z", theta=0.3) against the eigendecomposition exponential
    assert np.max(np.abs(pauli_rotation("Z", 0.3) - expm_pauli("Z", 0.3))) <= 1e-12


def test_rotate_state_matches_matrix():
    gen = np.random.default_rng(3)
    p = PauliString("YZ")
    vec = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    assert np.allclose(rotate_state(p, 0.77, vec), pauli_rotation(p, 0.77) @ vec, atol=1e-13)


def test_haar_dim_one_is_phase():
    for k in range(20):
        u = haar_unitary(1, RngStream(5, k))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_haar_unitarity(dim):
    for k in range(100):
        u = haar_unitary(dim, RngStream(11, (dim, k)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10


def test_haar_first_moment():
    # E[U rho U'] = I/D entrywise and E|U00|^2 = 1/D, both within 3 MC errors
    dim, samples = 4, 100_000
    rng = RngStream(123)
    psi = zero_state(2)
    acc = np.zeros((dim, dim), dtype=complex)
    acc2 = np.zeros((dim, dim))
    p00 = np.empty(samples)
    for s in range(samples):
        u = haar_unitary(dim, rng.substream(s))
        w = u @ psi
        outer = np.outer(w, w.conj())
        acc += outer
        acc2 += np.abs(outer) ** 2
        p00[s] = abs(u[0, 0]) ** 2
    mean = acc / samples
    se = np.sqrt(np.maximum(acc2 / samples - np.abs(mean) ** 2, 0.0) / samples)
    resid = np.abs(mean - np.eye(dim) / dim)
    assert np.all(resid <= 3 * se + 1e-12)
    z = (p00.mean() - 1 / dim) / (p00.std(ddof=1) / np.sqrt(samples))
    assert abs(z) <= 3


def test_haar_second_moment_invariant():
    # Tr(P^2)/(D^2+D) identity for a traceless Pauli at D=4
    est = mc_second_moment(4, zero_state(2), pauli_matrix("ZI"), 100_000, RngStream(9))
    assert est.target == pytest.approx(4 / 20)
    assert abs(est.z_score) <= 3


def test_sample_pauli_single_qubit_frequencies():
    rng = RngStream(17)
    counts = {"X": 0, "Y": 0, "Z": 0}
    samples = 100_000
    for _ in range(samples):
        counts[sample_pauli(1, rng).letters] += 1
    se = np.sqrt((1 / 3) * (2 / 3) / samples)
    for letter in "XYZ":
        assert abs(counts[letter] / samples - 1 / 3) <= 3 * se


def test_sample_pauli_full_support_with_identity():
    rng = RngStream(23)
    seen = {sample_pauli(2, rng, exclude_identity=False).letters for _ in range(2000)}
    assert len(seen) == 16


def test_sample_pauli_excludes_identity():
    rng = RngStream(29)
    for _ in range(500):
        assert not sample_pauli(3, rng).is_identity


def test_stream_reset_reproduces_sequence():
    rng = RngStream(31, 4)
    first = [sample_pauli(2, rng).letters for _ in range(10)]
    fresh = rng.reset()
    again = [sample_pauli(2, fresh).letters for _ in range(10)]
    assert first == again


def test_identical_addresses_are_bit_identical():
    a = RngStream(99, (1, 2)).generator.standard_normal(50)
    b = RngStream(99, (1, 2)).generator.standard_normal(50)
    assert np.array_equal(a, b)
    c = RngStream(99, (1, 3)).generator.standard_normal(50)
    assert not np.array_equal(a, c)


def test_basis_state_bounds():
    assert np.array_equal(basis_state(2, 3), np.array([0, 0, 0, 1], dtype=complex))
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_kahan_sum_compensates():
    values = [1e16, 1.0, -1e16] * 10
    assert kahan_sum(values) == 10.0


def test_is_unitary_checks_every_matrix_of_a_stack():
    block = matrices_per_block(4)
    stack = np.stack([haar_unitary(4, RngStream(40, k)) for k in range(block + 3)])
    assert is_unitary(stack)
    assert is_unitary(stack[0])
    stack[-1, 0, 0] += 1e-8  # beyond the first block
    assert not is_unitary(stack)
    assert not is_unitary(np.full((2, 2), np.nan))
