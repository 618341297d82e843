import numpy as np
import pytest

from qntklab.circuits import (
    build_random_ansatz,
    ensemble_angles,
    sample_random_circuits,
    uniform_angles,
)
import qntklab.kernels as kernels
from qntklab.kernels import (
    Observable,
    forward_adjoint,
    gradient,
    hessian_residual,
    qntk,
    random_pauli_sum,
    residual_error,
)
from qntklab.linalg import RngStream, zero_state
from qntklab.training import (
    TrainingConfig,
    TrainingDivergenceError,
    fit_decay_rate,
    gd_batch,
    gd_optimize,
    squared_loss,
)

from helpers import meta_kernel

ZZ = Observable.from_letters(((1.0, "ZZ"),), 0.0)


def test_zero_residual_is_a_fixed_point():
    rng = RngStream(1)
    ansatz = build_random_ansatz(2, 6, rng.substream(0))
    theta0 = uniform_angles(6, rng.substream(1))
    psi = zero_state(2)
    start = residual_error(ansatz, theta0, ZZ, psi) + ZZ.target
    tuned = Observable(2, ZZ.terms, start)
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
    residuals, kernels, params, diverged = gd_batch(
        ansatz, ZZ, np.array([label]), np.eye(4, dtype=complex)[:1], theta0[None, :], 2e-3, 40, True
    )
    cfg = TrainingConfig(learning_rate=2e-3, steps=40, init_angles=theta0, record_parameters=True)
    single = gd_optimize(ansatz, Observable(2, ZZ.terms, label), zero_state(2), cfg)
    assert diverged == {}
    assert np.array_equal(residuals[0, :, 0], single.errors)
    assert np.array_equal(kernels[0], single.kernels)
    assert np.array_equal(params[0], single.parameters)
    assert np.allclose(squared_loss(residuals[0]), 0.5 * single.errors**2)


def test_supervised_zero_update_when_labels_match_outputs():
    rng = RngStream(8)
    ansatz = build_random_ansatz(2, 5, rng.substream(0))
    theta0 = uniform_angles(5, rng.substream(1))
    obs = random_pauli_sum(2, 4, rng.substream(2))
    feats = np.eye(4, dtype=complex)[:3]
    z, _ = forward_adjoint(ansatz, theta0[:, None], feats, obs)
    residuals, _, params, _ = gd_batch(ansatz, obs, z, feats, theta0[None, :], 1e-2, 10, True)
    assert np.max(np.abs(squared_loss(residuals[0]))) <= 1e-24
    assert np.array_equal(params[0, 0], params[0, -1])


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
        theta0 = uniform_angles(64, sub.substream(0))
        feats = np.eye(4, dtype=complex)[:3]
        residuals, _, _, _ = gd_batch(ansatz, obs, labels, feats, theta0[None, :], 1e-3, 150)
        losses = squared_loss(residuals[0])
        final_over_initial.append(losses[-1] / losses[0])
    assert np.mean(final_over_initial) < 0.05


def test_divergence_detected():
    rng = RngStream(11)
    ansatz = build_random_ansatz(2, 4, rng.substream(0))
    huge = Observable.from_letters(((1e160, "ZZ"), (1e160, "XI")), 0.0)
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

    healthy = gd_batch(batch, obs, obs.target, psi, theta0, 1e-2, 30)
    assert healthy[3] == {}
    poisoned = theta0.copy()
    poisoned[1, 2] = np.inf
    errors, kernels, _, diverged = gd_batch(batch, obs, obs.target, psi, poisoned, 1e-2, 30)
    with pytest.raises(TrainingDivergenceError) as alone:
        solo(1, poisoned[1], obs)
    assert diverged == {1: str(alone.value)}
    for k in (0, 2):
        assert np.array_equal(errors[k], healthy[0][k])
        assert np.array_equal(kernels[k], healthy[1][k])
        reference = solo(k, theta0[k], obs)
        assert np.max(np.abs(errors[k, :, 0] - reference.errors)) <= 1e-12

    # divergence during the run: every trial overflows, each at its own step
    huge = Observable.from_letters(((1e160, "ZZ"), (1e160, "XI")), 0.0)
    _, _, _, diverged = gd_batch(batch, huge, 0.0, psi, theta0, 1.0, 30)
    assert sorted(diverged) == [0, 1, 2]
    for k in range(3):
        with pytest.raises(TrainingDivergenceError) as alone:
            cfg = TrainingConfig(learning_rate=1.0, steps=30, init_angles=theta0[k])
            gd_optimize(build_random_ansatz(2, 6, RngStream(12, (k,))), huge, psi, cfg)
        assert diverged[k] == str(alone.value)


def test_batched_supervised_rows_match_solo_runs_and_divergence():
    # three circuits with their own Haar layers, three basis points each,
    # one label per point; trial 1 starts at a non-finite angle
    streams = [RngStream(14, (k,)) for k in range(3)]
    batch = sample_random_circuits(2, 6, streams)
    theta0 = ensemble_angles(6, streams).T
    obs = random_pauli_sum(2, 10, RngStream(15))
    labels = np.array([1.0, -1.0, 0.25])
    feats = np.eye(4, dtype=complex)[:3]
    psi0 = np.tile(feats, (3, 1))

    def solo(k, init):
        ansatz = build_random_ansatz(2, 6, RngStream(14, (k,)))
        return gd_batch(ansatz, obs, labels, feats, init[None, :], 1e-2, 30)

    healthy = gd_batch(batch, obs, labels, psi0, theta0, 1e-2, 30)
    assert healthy[0].shape == (3, 31, 3) and healthy[3] == {}
    poisoned = theta0.copy()
    poisoned[1, 4] = np.nan
    residuals, kernels, _, diverged = gd_batch(batch, obs, labels, psi0, poisoned, 1e-2, 30)
    assert diverged == {1: solo(1, poisoned[1])[3][0]}
    for k in (0, 2):
        assert np.array_equal(residuals[k], healthy[0][k])
        assert np.array_equal(kernels[k], healthy[1][k])
        reference, reference_kernels, _, _ = solo(k, theta0[k])
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(residuals[k] - reference[0])) <= 1e-12 * scale
        assert np.max(np.abs(kernels[k] / reference_kernels[0] - 1.0)) <= 1e-12


def test_gd_batch_checks_its_inputs_once():
    # the engine's checks run before the first step, not at every step, and
    # still refuse an input state that is not normalized
    ansatz = build_random_ansatz(2, 3, RngStream(33))
    theta0 = uniform_angles(3, RngStream(34))[None, :]
    with pytest.raises(ValueError, match="normalized"):
        gd_batch(ansatz, ZZ, 0.0, 2.0 * zero_state(2), theta0, 1e-2, 5)
    with pytest.raises(ValueError, match="expected angles of shape"):
        gd_batch(ansatz, ZZ, 0.0, zero_state(2), theta0.T, 1e-2, 5)
    calls = []
    check = kernels._check_inputs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_check_inputs", lambda *args: calls.append(1) or check(*args))
        residuals, _, _, diverged = gd_batch(ansatz, ZZ, 0.0, zero_state(2), theta0, 1e-2, 5)
    assert len(calls) == 1 and residuals.shape == (1, 6, 1) and not diverged
