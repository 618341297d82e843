"""The lazy Haar sampler of ``kernels.haar_instance_kernels`` against the dense one.

No existing test or acceptance criterion runs on the lazy sampler; these
tests check it on its own terms: per draw (the two vectors it samples are
consistent with one unitary), in its Haar moments, and in distribution
against ``sample_random_circuits`` + ``ensemble_kernels``.  The bands were
fixed before the first run.
"""

import numpy as np
import pytest

from qntklab import kernels
from qntklab.circuits import chunk_grid, sample_random_circuits, uniform_angles
from qntklab.experiments import _LANE_TRIALS, run_experiment, validate_config
from qntklab.haar import MomentEstimate
from qntklab.kernels import Observable, ensemble_kernels, haar_instance_kernels, random_pauli_sum
from qntklab.linalg import PauliString, RngStream, code_letters, pauli_matrix, zero_state
from qntklab.theory import kbar_exact

# distribution bands: mean and variance differences within this many of their
# standard errors, quantiles within this many binomial standard errors
BAND_SE = 4.0
# two-sample Kolmogorov-Smirnov critical coefficient at significance 0.001
KS_COEFFICIENT = 1.95


def _unit_rows(rng, rows: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _dense_kernels(n, layers, streams, obs_matrix):
    values = np.empty(len(streams))
    for lo, hi in chunk_grid(len(streams), 1 << n, layers):
        batch = sample_random_circuits(n, layers, streams[lo:hi])
        values[lo:hi] = ensemble_kernels(batch, streams[lo:hi], obs_matrix, zero_state(n))
    return values


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between the two empirical distribution functions."""
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), points, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), points, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.mark.parametrize("n, layers", [(2, 16), (3, 8), (4, 4)])
def test_lazy_kernels_match_the_dense_sampler_in_distribution(n, layers):
    samples = 2000
    obs = random_pauli_sum(n, 10, RngStream(500 + n))
    dense = _dense_kernels(n, layers, [RngStream(501, (k,)) for k in range(samples)], obs.matrix)
    lazy = haar_instance_kernels(n, layers, [RngStream(502, (k,)) for k in range(samples)], obs.matrix, zero_state(n))

    mean_se = np.sqrt(dense.var(ddof=1) / samples + lazy.var(ddof=1) / samples)
    assert abs(lazy.mean() - dense.mean()) <= BAND_SE * mean_se

    def var_of_var(v):
        centred = v - v.mean()
        return (np.mean(centred**4) - v.var() ** 2) / samples

    var_se = np.sqrt(var_of_var(dense) + var_of_var(lazy))
    assert abs(lazy.var(ddof=1) - dense.var(ddof=1)) <= BAND_SE * var_se

    for p in (0.1, 0.5, 0.9):
        slack = BAND_SE * np.sqrt(2 * p * (1 - p) / samples)
        low, high = np.quantile(dense, [p - slack, p + slack])
        assert low <= np.quantile(lazy, p) <= high

    assert _ks_statistic(lazy, dense) <= KS_COEFFICIENT * np.sqrt(2 / samples)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_layer_lazy_mean_is_the_exact_closed_form(n):
    samples = 4000
    obs = random_pauli_sum(n, 10, RngStream(510 + n))
    streams = [RngStream(511, (n, k)) for k in range(samples)]
    values = haar_instance_kernels(n, 1, streams, obs.matrix, zero_state(n))
    target = kbar_exact(1 << n, 1, obs.trace_power(2), obs.trace_power(1))
    assert MomentEstimate.from_samples(values, target).consistent


def test_each_draw_is_consistent_with_one_unitary():
    rng = np.random.default_rng(520)
    rows, dim = 64, 8
    a = _unit_rows(rng, rows, dim)
    y = 3.0 * _unit_rows(rng, rows, dim) + 0.5 * a
    x = kernels._haar_image(a, rng.standard_normal((rows, 2, dim)))
    pulled = kernels._haar_pullback(a, x, y, rng.standard_normal((rows, 2, dim)))
    # W a = x and W^dagger y for one unitary W: norms and the overlap are kept
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(pulled, axis=1), np.linalg.norm(y, axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        np.sum(a.conj() * pulled, axis=1), np.sum(x.conj() * y, axis=1), rtol=0, atol=1e-12
    )


def test_lazy_draws_have_the_haar_moments():
    # for Haar W and unit a, x = W a is uniform on the unit sphere of C^D:
    # E|x_j|^2 = 1/D and E|x_j|^4 = 2/(D(D+1)); W^dagger y is uniform on the
    # sphere of radius |y|, so E|(W^dagger y)_j|^2 = |y|^2/D; and
    # E<W a, W^dagger y> = a^dagger E[W^dagger W^dagger] y = 0, which fails if
    # W^dagger y is not drawn independently of W a beyond what W a = x fixes
    rng = np.random.default_rng(530)
    draws, dim = 20000, 4
    a = np.tile(_unit_rows(rng, 1, dim), (draws, 1))
    y = np.tile(2.0 * _unit_rows(rng, 1, dim), (draws, 1))
    x = kernels._haar_image(a, rng.standard_normal((draws, 2, dim)))
    pulled = kernels._haar_pullback(a, x, y, rng.standard_normal((draws, 2, dim)))
    for j in range(dim):
        for values, target in (
            (np.abs(x[:, j]) ** 2, 1.0 / dim),
            (np.abs(x[:, j]) ** 4, 2.0 / (dim * (dim + 1))),
            (np.abs(pulled[:, j]) ** 2, 4.0 / dim),
        ):
            assert abs(MomentEstimate.from_samples(values, target).z_score) <= BAND_SE
    overlap = np.sum(x.conj() * pulled, axis=1)
    for values in (overlap.real, overlap.imag):
        assert abs(MomentEstimate.from_samples(values, 0.0).z_score) <= BAND_SE


def test_a_kernel_depends_only_on_its_own_stream():
    obs = random_pauli_sum(3, 10, RngStream(540))
    streams = [RngStream(541, (k,)) for k in range(10)]
    whole = haar_instance_kernels(3, 6, streams, obs.matrix, zero_state(3))
    split = np.concatenate(
        [haar_instance_kernels(3, 6, [s.reset() for s in part], obs.matrix, zero_state(3)) for part in (streams[:3], streams[3:])]
    )
    np.testing.assert_allclose(split, whole, rtol=1e-12, atol=0)


def _one_lazy_kernel(n, layers, stream, obs_matrix):
    """The kernel of one circuit from its stream, one layer at a time with dense rotations."""
    dim = 1 << n
    codes = stream.generator.integers(1, 4**n, size=layers)
    forward = stream.generator.standard_normal((layers, 2, dim))
    backward = stream.generator.standard_normal((layers, 2, dim))
    theta = uniform_angles(layers, stream.substream(0))
    gens = [pauli_matrix(code_letters(n, int(c))) for c in codes]
    psi, inputs, images = zero_state(n), [], []
    for gen, t, normals in zip(gens, theta, forward):
        inputs.append(np.cos(t) * psi + 1j * np.sin(t) * gen @ psi)
        images.append(kernels._haar_image(inputs[-1][None], normals[None])[0])
        psi = images[-1]
    y, grads = obs_matrix @ psi, []
    for k in range(layers - 1, -1, -1):
        pulled = kernels._haar_pullback(inputs[k][None], images[k][None], y[None], backward[k][None])[0]
        grads.append(-2.0 * np.vdot(pulled, gens[k] @ inputs[k]).imag)
        y = np.cos(theta[k]) * pulled - 1j * np.sin(theta[k]) * gens[k] @ pulled
    return float(np.dot(grads, grads))


def test_each_kernel_follows_its_documented_stream_layout():
    # per stream: L generator codes, forward normals (L, 2, D), backward
    # normals (L, 2, D), then the angles from substream 0
    obs = random_pauli_sum(3, 10, RngStream(545))
    values = haar_instance_kernels(3, 5, [RngStream(546, (k,)) for k in range(4)], obs.matrix, zero_state(3))
    expected = [_one_lazy_kernel(3, 5, RngStream(546, (k,)), obs.matrix) for k in range(4)]
    np.testing.assert_allclose(values, expected, rtol=1e-10, atol=0)


def test_zero_layers_give_exactly_zero():
    obs = random_pauli_sum(2, 10, RngStream(550))
    values = haar_instance_kernels(2, 0, [RngStream(551, (k,)) for k in range(5)], obs.matrix, zero_state(2))
    assert values.tolist() == [0.0] * 5


@pytest.mark.parametrize("step", ["_haar_image", "_haar_pullback"])
def test_norm_guard_rejects_a_draw_that_is_not_unitary(step, monkeypatch):
    # the forward guard sees the final state, the backward one the pulled-back co-state
    original = getattr(kernels, step)
    monkeypatch.setattr(kernels, step, lambda *args: (1.0 + 1e-8) * original(*args))
    obs = random_pauli_sum(2, 10, RngStream(560))
    with pytest.raises(ValueError, match="not unitary"):
        haar_instance_kernels(2, 4, [RngStream(561, (k,)) for k in range(3)], obs.matrix, zero_state(2))


def test_qntk_stats_instance_ensemble_runs_on_the_lazy_sampler(tmp_path):
    cfg = validate_config(
        {"kind": "qntk-stats", "qubits": 2, "layers": [4], "samples": 20, "seed": 570,
         "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]}}
    )
    assert run_experiment(cfg, tmp_path) == 0
    rows = (tmp_path / "trials" / "trial_0.csv").read_text().splitlines()[2:]
    written = [float(row.split(",")[1]) for row in rows]
    streams = [RngStream(570, (_LANE_TRIALS, 0, k)) for k in range(20)]
    obs = Observable(((1.0, PauliString("ZZ")),))
    assert written == haar_instance_kernels(2, 4, streams, obs.matrix, zero_state(2)).tolist()
