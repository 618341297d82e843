import numpy as np
import pytest

from qntklab.circuits import (
    build_random_ansatz,
    ensemble_angles,
    sample_random_circuits,
    uniform_angles,
)
from qntklab.kernels import (
    Observable,
    SupervisedProblem,
    gradient,
    hessian_residual,
    meta_kernel,
    qntk,
    random_pauli_sum,
    residual_error,
)
from qntklab.linalg import PauliString, RngStream, zero_state
from qntklab.training import (
    TrainingConfig,
    TrainingDivergenceError,
    fit_decay_rate,
    gd_batch,
    gd_optimize,
    gd_supervised,
)

ZZ = Observable(((1.0, PauliString("ZZ")),))


def test_zero_residual_is_a_fixed_point():
    rng = RngStream(1)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    theta0 = uniform_angles(6, rng.substream(1))
    psi = zero_state(2)
    start = residual_error(ansatz, theta0, ZZ, psi) + ZZ.target
    tuned = Observable(ZZ.terms, target=start)
    cfg = TrainingConfig(learning_rate=0.5, steps=20, init_angles=theta0)
    traj = gd_optimize(ansatz, tuned, psi, cfg)
    assert np.max(np.abs(traj.errors)) <= 1e-12
    assert len(traj.errors) == 21


def test_empty_circuit_trajectory_is_flat():
    ansatz = build_random_ansatz(2, 0, RngStream(2))
    cfg = TrainingConfig(learning_rate=1e-2, steps=5, init_angles=np.empty(0))
    traj = gd_optimize(ansatz, ZZ, zero_state(2), cfg)
    assert np.allclose(traj.errors, traj.errors[0])
    assert np.allclose(traj.kernels, 0.0)


def test_single_step_second_order_expansion():
    # |delta_eps + eta K eps - 0.5 eta^2 eps^2 mu| should shrink like eta^3
    rng = RngStream(3)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    obs = random_pauli_sum(2, 10, rng.substream(1))
    theta0 = uniform_angles(6, rng.substream(2))
    psi = zero_state(2)
    eps0 = residual_error(ansatz, theta0, obs, psi)
    g = gradient(ansatz, theta0, obs, psi)
    kernel = qntk(g)
    mu = meta_kernel(g, hessian_residual(ansatz, theta0, obs, psi))
    rates = []
    for eta in (2e-2, 1e-2, 5e-3):
        cfg = TrainingConfig(learning_rate=eta, steps=1, init_angles=theta0)
        traj = gd_optimize(ansatz, obs, psi, cfg)
        delta = traj.errors[1] - traj.errors[0]
        err = abs(delta + eta * kernel * eps0 - 0.5 * eta**2 * eps0**2 * mu)
        rates.append(err / eta**3)
    rates = np.array(rates)
    if np.max(rates) > 1e-9:  # degenerate instances make every term vanish
        assert np.max(rates) / np.min(rates) < 5.0


def test_trajectory_records_parameters_when_asked():
    rng = RngStream(4)
    ansatz = build_random_ansatz(2, 5, rng.substream(0))
    cfg = TrainingConfig(
        learning_rate=1e-3, steps=7, init_angles=uniform_angles(5, rng.substream(1)), record_parameters=True
    )
    traj = gd_optimize(ansatz, ZZ, zero_state(2), cfg)
    assert traj.parameters.shape == (8, 5)
    assert not np.array_equal(traj.parameters[0], traj.parameters[-1])


def test_determinism_same_seed_bit_identical():
    rng = RngStream(5)
    ansatz = build_random_ansatz(2, 8, rng.substream(0))
    obs = random_pauli_sum(2, 10, rng.substream(1))
    cfg = TrainingConfig(learning_rate=1e-3, steps=30, seed=77)
    a = gd_optimize(ansatz, obs, zero_state(2), cfg)
    b = gd_optimize(ansatz, obs, zero_state(2), cfg)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.kernels, b.kernels)


def test_frozen_kernel_step_ratio():
    # at L=64 and small eta the kernel is nearly constant and the per-step
    # contraction tracks 1 - eta K(t)
    rng = RngStream(6)
    ansatz = build_random_ansatz(2, 64, rng.substream(0))
    obs = random_pauli_sum(2, 10, rng.substream(1))
    cfg = TrainingConfig(
        learning_rate=1e-5, steps=60, init_angles=uniform_angles(64, rng.substream(2))
    )
    traj = gd_optimize(ansatz, obs, zero_state(2), cfg)
    span = traj.kernels.max() - traj.kernels.min()
    assert span / traj.kernels.mean() < 0.01
    ratios = traj.errors[1:] / traj.errors[:-1]
    predicted = 1.0 - cfg.learning_rate * traj.kernels[:-1]
    assert np.max(np.abs(ratios - predicted)) <= 0.01


def test_supervised_reduction_matches_single_target_exactly():
    rng = RngStream(7)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    theta0 = uniform_angles(6, rng.substream(1))
    label = 0.25
    prob = SupervisedProblem.with_basis_features(2, np.array([label]), (ZZ,))
    cfg = TrainingConfig(learning_rate=2e-3, steps=40, init_angles=theta0, record_parameters=True)
    sup = gd_supervised(ansatz, prob, cfg)
    single = gd_optimize(ansatz, Observable(ZZ.terms, target=label), zero_state(2), cfg)
    assert np.array_equal(sup.residuals[:, 0], single.errors)
    assert np.array_equal(sup.kernels, single.kernels)
    assert np.array_equal(sup.parameters, single.parameters)
    assert np.allclose(sup.errors, 0.5 * single.errors**2)


def test_supervised_zero_update_when_labels_match_outputs():
    rng = RngStream(8)
    ansatz = build_random_ansatz(2, 5, rng.substream(0))
    theta0 = uniform_angles(5, rng.substream(1))
    obs = random_pauli_sum(2, 4, rng.substream(2))
    from qntklab.kernels import outputs_and_gradients

    probe = SupervisedProblem.with_basis_features(2, np.zeros(3), (obs,))
    z, _ = outputs_and_gradients(ansatz, theta0, probe)
    prob = SupervisedProblem.with_basis_features(2, z.reshape(3, 1), (obs,))
    cfg = TrainingConfig(learning_rate=1e-2, steps=10, init_angles=theta0, record_parameters=True)
    traj = gd_supervised(ansatz, prob, cfg)
    assert np.max(np.abs(traj.errors)) <= 1e-24
    assert np.array_equal(traj.parameters[0], traj.parameters[-1])


def test_supervised_loss_decays_exponentially():
    # small version of the 2-qubit, L=64 supervised protocol; the multi-term
    # observable keeps the +-1 labels inside the model's achievable range
    rng = RngStream(9)
    obs = random_pauli_sum(2, 10, RngStream(12))
    label_gen = RngStream(10)
    final_over_initial = []
    for trial in range(5):
        sub = rng.substream(trial)
        ansatz = build_random_ansatz(2, 64, sub)
        labels = 2.0 * label_gen.generator.integers(0, 2, size=3) - 1.0
        prob = SupervisedProblem.with_basis_features(2, labels.reshape(3, 1), (obs,))
        cfg = TrainingConfig(
            learning_rate=1e-3, steps=150, init_angles=uniform_angles(64, sub.substream(0))
        )
        traj = gd_supervised(ansatz, prob, cfg)
        final_over_initial.append(traj.errors[-1] / traj.errors[0])
    assert np.mean(final_over_initial) < 0.05


def test_divergence_detected():
    rng = RngStream(11)
    ansatz = build_random_ansatz(2, 4, rng.substream(0))
    huge = Observable(((1e160, PauliString("ZZ")), (1e160, PauliString("XI"))))
    cfg = TrainingConfig(learning_rate=1.0, steps=50, init_angles=uniform_angles(4, rng.substream(1)))
    with pytest.raises(TrainingDivergenceError):
        gd_optimize(ansatz, huge, zero_state(2), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0, steps=5)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=1e-3, steps=0)


def test_fit_decay_rate_exact_exponential():
    t = np.arange(200)
    rate, r2 = fit_decay_rate(np.exp(-0.01 * t))
    assert rate == pytest.approx(0.01, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_rate_geometric_contraction():
    t = np.arange(500)
    rate, _ = fit_decay_rate((1 - 0.001) ** t)
    assert rate == pytest.approx(-np.log(1 - 0.001), abs=1e-12)


def test_fit_decay_rate_burn_in_and_floor():
    t = np.arange(100)
    series = np.exp(-0.05 * t)
    series[:10] = 5.0  # transient the burn-in should drop
    rate, _ = fit_decay_rate(series, burn_in=10)
    assert rate == pytest.approx(0.05, abs=1e-10)
    clipped = np.where(series < 1e-3, 0.0, series)
    rate2, _ = fit_decay_rate(clipped, burn_in=10, floor=1e-12)
    assert rate2 == pytest.approx(0.05, abs=1e-10)


def test_fit_decay_rate_needs_points():
    with pytest.raises(ValueError):
        fit_decay_rate(np.exp(-0.1 * np.arange(5)))
    with pytest.raises(ValueError):
        fit_decay_rate(np.full(50, 1e-15), floor=1e-12)


def test_batched_divergence_matches_solo_runs():
    streams = [RngStream(12, (k,)) for k in range(3)]
    batch = sample_random_circuits(2, 6, streams)
    theta0 = ensemble_angles(6, streams).T
    obs = random_pauli_sum(2, 10, RngStream(13))
    psi = zero_state(2)

    def solo(k, init, observable):
        cfg = TrainingConfig(learning_rate=1e-2, steps=30, init_angles=init)
        return gd_optimize(build_random_ansatz(2, 6, RngStream(12, (k,))), observable, psi, cfg)

    healthy = gd_batch(batch, obs.matrix, obs.target, psi, theta0, 1e-2, 30)
    assert healthy[3] == {}
    poisoned = theta0.copy()
    poisoned[1, 2] = np.inf
    errors, kernels, _, diverged = gd_batch(batch, obs.matrix, obs.target, psi, poisoned, 1e-2, 30)
    with pytest.raises(TrainingDivergenceError) as alone:
        solo(1, poisoned[1], obs)
    assert diverged == {1: str(alone.value)}
    for k in (0, 2):
        assert np.array_equal(errors[k], healthy[0][k])
        assert np.array_equal(kernels[k], healthy[1][k])
        reference = solo(k, theta0[k], obs)
        assert np.max(np.abs(errors[k, :, 0] - reference.errors)) <= 1e-12

    # divergence during the run: every trial overflows, each at its own step
    huge = Observable(((1e160, PauliString("ZZ")), (1e160, PauliString("XI"))))
    _, _, _, diverged = gd_batch(batch, huge.matrix, 0.0, psi, theta0, 1.0, 30)
    assert sorted(diverged) == [0, 1, 2]
    for k in range(3):
        with pytest.raises(TrainingDivergenceError) as alone:
            cfg = TrainingConfig(learning_rate=1.0, steps=30, init_angles=theta0[k])
            gd_optimize(build_random_ansatz(2, 6, RngStream(12, (k,))), huge, psi, cfg)
        assert diverged[k] == str(alone.value)


def test_batched_supervised_rows_match_solo_runs_and_divergence():
    # three circuits with their own Haar layers, three basis points each, two
    # observables: 6 rows per circuit; trial 1 starts at a non-finite angle
    streams = [RngStream(14, (k,)) for k in range(3)]
    batch = sample_random_circuits(2, 6, streams)
    theta0 = ensemble_angles(6, streams).T
    observables = (random_pauli_sum(2, 10, RngStream(15)), Observable(((1.0, PauliString("ZI")),)))
    labels = np.array([[1.0, -0.5], [-1.0, 0.25], [1.0, 0.0]])
    prob = SupervisedProblem.with_basis_features(2, labels, observables)
    matrices = [o.matrix for o in observables]
    psi0 = np.tile(prob.features, (3, 1))

    def solo(k, init):
        cfg = TrainingConfig(learning_rate=1e-2, steps=30, init_angles=init)
        return gd_supervised(build_random_ansatz(2, 6, RngStream(14, (k,))), prob, cfg)

    healthy = gd_batch(batch, matrices, labels, psi0, theta0, 1e-2, 30)
    assert healthy[0].shape == (3, 31, 6) and healthy[3] == {}
    poisoned = theta0.copy()
    poisoned[1, 4] = np.nan
    residuals, kernels, _, diverged = gd_batch(batch, matrices, labels, psi0, poisoned, 1e-2, 30)
    with pytest.raises(TrainingDivergenceError) as alone:
        solo(1, poisoned[1])
    assert diverged == {1: str(alone.value)}
    for k in (0, 2):
        assert np.array_equal(residuals[k], healthy[0][k])
        assert np.array_equal(kernels[k], healthy[1][k])
        reference = solo(k, theta0[k])
        scale = np.max(np.abs(reference.residuals))
        assert np.max(np.abs(residuals[k] - reference.residuals)) <= 1e-12 * scale
        assert np.max(np.abs(kernels[k] / reference.kernels - 1.0)) <= 1e-12
