import numpy as np
import pytest

from qntklab.circuits import build_hardware_efficient, build_random_ansatz, uniform_angles
from qntklab.haar import MomentEstimate, mc_commutator_trace, mc_kbar, mc_second_moment
from qntklab.kernels import Observable, gradient, qntk, supervised_kernels
from qntklab.linalg import RngStream, haar_unitary, zero_state
from qntklab.theory import delta_k, kbar_exact, supervised_kbar

from helpers import pauli_matrix

ZZ = Observable.from_letters(((1.0, "ZZ"),), 0.0)


def test_estimate_from_constant_samples():
    est = MomentEstimate.from_samples(np.full(100, 0.5), 0.5)
    assert est.mean == 0.5
    assert est.std_error == 0.0
    assert est.z_score == 0.0
    assert est.consistent


def test_second_moment_zero_operator():
    est = mc_second_moment(4, zero_state(2), np.zeros((4, 4)), 200, RngStream(1))
    assert est.mean == 0.0
    assert est.std_error == 0.0
    assert est.target == 0.0


def test_second_moment_single_qubit_z():
    est = mc_second_moment(2, np.array([1.0, 0.0], dtype=complex), pauli_matrix("Z"), 20_000, RngStream(2))
    assert est.target == pytest.approx(2 / 6)
    assert abs(est.z_score) <= 3


def test_second_moment_composite_traceless_operator():
    # Tr(P^2) = 8 for ZI + XX, so the identity evaluates to 8/20
    op = pauli_matrix("ZI") + pauli_matrix("XX")
    est = mc_second_moment(4, zero_state(2), op, 20_000, RngStream(3))
    assert est.target == pytest.approx(0.4)
    assert abs(est.z_score) <= 3


def test_second_moment_rejects_bad_operators():
    with pytest.raises(ValueError):
        mc_second_moment(2, np.array([1.0, 0.0], dtype=complex), np.eye(2), 10, RngStream(4))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        mc_second_moment(2, np.array([1.0, 0.0], dtype=complex), skew, 10, RngStream(4))


def test_commutator_trace_identity_observable():
    est = mc_commutator_trace(4, pauli_matrix("ZI"), 0.7 * np.eye(4), 100, RngStream(5))
    assert est.mean == pytest.approx(0.0, abs=1e-25)
    assert est.target == pytest.approx(0.0, abs=1e-12)


def test_commutator_trace_reference_value():
    est = mc_commutator_trace(4, pauli_matrix("ZI"), np.asarray(ZZ.matrix), 20_000, RngStream(6))
    assert est.target == pytest.approx(-128 / 15)
    assert abs(est.z_score) <= 3


def test_commutator_trace_samples_are_nonpositive():
    # Tr of the square of an anti-Hermitian commutator can never be positive
    x = pauli_matrix("ZI")
    obs = np.asarray(ZZ.matrix)
    for k in range(30):
        v = haar_unitary(4, RngStream(7, k))
        m = v.conj().T @ obs @ v
        comm = x @ m - m @ x
        assert np.trace(comm @ comm).real <= 1e-12


def test_commutator_trace_requires_involution():
    with pytest.raises(ValueError):
        mc_commutator_trace(4, 0.5 * pauli_matrix("ZI"), np.asarray(ZZ.matrix), 10, RngStream(8))


def test_mc_kbar_empty_circuit():
    est = mc_kbar(2, 0, ZZ, zero_state(2), 50, RngStream(9))
    assert est.mean == 0.0
    assert est.target == 0.0


def test_mc_kbar_instance_mode_matches_closed_form():
    est = mc_kbar(2, 16, ZZ, zero_state(2), 3000, RngStream(10))
    assert est.target == pytest.approx(1024 / 150)
    assert abs(est.z_score) <= 3


def test_supervised_kernel_entry_means_match_closed_forms():
    # diagonal (overlapping features) and off-diagonal (orthogonal features)
    # entries of the ensemble-averaged kernel against the exact formulas
    features = np.eye(4, dtype=complex)[:2]
    rng = RngStream(401)
    diag = np.empty(1500)
    off = np.empty(1500)
    for s in range(1500):
        sub = rng.substream(s)
        ansatz = build_random_ansatz(2, 16, sub)
        theta = uniform_angles(16, sub.substream(0))
        kernel = supervised_kernels(ansatz, theta[:, None], features, ZZ)[0]
        diag[s] = kernel[0, 0]
        off[s] = kernel[0, 1]
    z_diag = (diag.mean() - supervised_kbar(4, 16, 1.0, 4.0).exact) / (diag.std(ddof=1) / np.sqrt(1500))
    z_off = (off.mean() - supervised_kbar(4, 16, 0.0, 4.0).exact) / (off.std(ddof=1) / np.sqrt(1500))
    assert abs(z_diag) <= 3
    assert abs(z_off) <= 3
    assert off.mean() < 0  # orthogonal features anticorrelate


def test_kernel_std_tracks_leading_order_at_large_dimension():
    # the leading-order fluctuation formula is a large-D statement; at D=16
    # the ensemble standard deviation lands within the loose 25 percent band
    obs = Observable.from_letters(((1.0, "ZZII"),), 0.0)
    psi = zero_state(4)
    values = np.empty(1200)
    for s in range(1200):
        sub = RngStream(402, (s,))
        ansatz = build_random_ansatz(4, 16, sub)
        theta = uniform_angles(16, sub.substream(0))
        values[s] = qntk(gradient(ansatz, theta, obs, psi))
    predicted = delta_k(16, 16, 16.0, 16.0)
    assert abs(values.std(ddof=1) / predicted - 1.0) <= 0.25


@pytest.mark.parametrize("variant", ["cphase-ladder", "cnot-su2"])
def test_hardware_efficient_kernel_approaches_haar_average(variant):
    # at depth 16 both layered families scramble enough that the angle-ensemble
    # kernel mean sits near the Haar-circuit closed form
    obs = Observable.from_letters(((1.0, "ZZII"),), 0.0)
    psi = zero_state(4)
    ansatz = build_hardware_efficient(4, 16, variant, RngStream(403))
    layers = ansatz.num_layers
    predicted = kbar_exact(16, layers, 16.0, 0.0)
    values = np.empty(100)
    for s in range(100):
        theta = uniform_angles(layers, RngStream(404, (s,)))
        values[s] = qntk(gradient(ansatz, theta, obs, psi))
    assert abs(values.mean() / predicted - 1.0) <= 0.20
