"""The lazy Haar sampler of ``kernels.haar_instance_kernels`` against the dense one.

No existing test or acceptance criterion runs on the lazy sampler; these
tests check it on its own terms: per draw (the two vectors it samples are
consistent with one unitary), in its Haar moments, in distribution against
``sample_random_circuits`` + ``ensemble_kernels``, and kernel by kernel
against its sequential form (``helpers.lazy_haar_sequential``), together with
the two conserved overlaps its closed form rests on.  The bands were fixed
before the first run.
"""

import json

import numpy as np
import pytest

from qntklab import kernels
from qntklab.circuits import chunk_grid, sample_random_circuits
from qntklab.experiments import _LANE_TRIALS, run_experiment, validate_config
from qntklab.haar import MomentEstimate
from qntklab.kernels import Observable, ensemble_kernels, haar_instance_kernels, qntk, random_pauli_sum
from qntklab.linalg import RngStream, code_letters, zero_state
from qntklab.theory import kbar_exact

from helpers import fresh_stream, lazy_haar_sequential, observable_matrix

# distribution bands: mean and variance differences within this many of their
# standard errors, quantiles within this many binomial standard errors
BAND_SE = 4.0
# two-sample Kolmogorov-Smirnov critical coefficient at significance 0.001
KS_COEFFICIENT = 1.95


def _unit_rows(rng, rows: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _dense_kernels(n, layers, streams, obs):
    values = np.empty(len(streams))
    for lo, hi in chunk_grid(len(streams), 1 << n, layers):
        batch = sample_random_circuits(n, layers, streams[lo:hi])
        values[lo:hi] = ensemble_kernels(batch, streams[lo:hi], obs, zero_state(n))
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
    dense = _dense_kernels(n, layers, [RngStream(501, (k,)) for k in range(samples)], obs)
    lazy = haar_instance_kernels(n, layers, [RngStream(502, (k,)) for k in range(samples)], obs, zero_state(n))

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
    values = haar_instance_kernels(n, 1, streams, obs, zero_state(n))
    target = kbar_exact(1 << n, 1, obs.trace_power(2), obs.trace_power(1))
    assert MomentEstimate.from_samples(values, target).consistent


def _draw(a, y, rng):
    """x = W a and W^dagger y for one lazily drawn W, by the library's two steps; y = alpha x + y_perp."""
    rows, dim = a.shape
    x = kernels._haar_images(rng.standard_normal((rows, 2, dim)), np.linalg.norm(a, axis=1))
    alpha = np.sum(x.conj() * y, axis=1) / np.sum(np.abs(x) ** 2, axis=1)
    beta = np.linalg.norm(y - alpha[:, None] * x, axis=1)
    return x, kernels._haar_pullbacks(a, rng.standard_normal((rows, 2, dim)), alpha, beta)


def test_each_draw_is_consistent_with_one_unitary():
    rng = np.random.default_rng(520)
    rows, dim = 64, 8
    a = _unit_rows(rng, rows, dim)
    y = 3.0 * _unit_rows(rng, rows, dim) + 0.5 * a
    x, pulled = _draw(a, y, rng)
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
    x, pulled = _draw(a, y, rng)
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
    whole = haar_instance_kernels(3, 6, streams, obs, zero_state(3))
    split = np.concatenate(
        [haar_instance_kernels(3, 6, [fresh_stream(s) for s in part], obs, zero_state(3)) for part in (streams[:3], streams[3:])]
    )
    np.testing.assert_allclose(split, whole, rtol=1e-12, atol=0)


@pytest.mark.parametrize("block", [None, 1, 4], ids=["default-blocks", "one-layer-blocks", "four-layer-blocks"])
@pytest.mark.parametrize("exclude_identity", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("layers", [0, 1, 5, 17])
def test_each_kernel_follows_its_documented_stream_layout(n, layers, exclude_identity, block, monkeypatch):
    # per stream: L generator codes, forward normals (L, 2, D), backward
    # normals (L, 2, D), then the angles from substream 0; ``block`` forces
    # layer blocks of that many layers on the six circuits (None: the default
    # budget, one block but at n = 5 and L = 17)
    if block is not None:
        monkeypatch.setattr(kernels, "STACK_BYTES", block * 6 * (1 << n) * kernels.LAZY_ENTRY_BYTES)
    _check_against_the_sequential_form(n, layers, exclude_identity)


def _exactly_zero(n, codes) -> bool:
    """Whether a kernel is zero in exact arithmetic: every generator is the identity,
    except that layer 1's may be diagonal (only I and Z), since it acts on |0>."""
    return len(codes) > 0 and not np.any(codes[1:]) and code_letters(n, int(codes[0])).strip("IZ") == ""


def _check_against_the_sequential_form(n, layers, exclude_identity):
    """Six kernels against the sequential oracle to rtol 1e-10, from streams RngStream(546, (k,)).

    A kernel that is zero in exact arithmetic comes out near 1e-32 on either
    side, so it is compared on the ensemble's scale, the mean kernel, instead.
    """
    obs = random_pauli_sum(n, 10, RngStream(545))
    streams = [RngStream(546, (k,)) for k in range(6)]
    values = haar_instance_kernels(n, layers, streams, obs, zero_state(n), exclude_identity)
    expected = np.array(
        [qntk(lazy_haar_sequential(n, layers, fresh_stream(s), observable_matrix(obs), exclude_identity)[0]) for s in streams]
    )
    low = 1 if exclude_identity else 0
    zero = np.array([_exactly_zero(n, fresh_stream(s).generator.integers(low, 4**n, size=layers)) for s in streams])
    np.testing.assert_allclose(values[~zero], expected[~zero], rtol=1e-10, atol=0)
    if zero.any():
        scale = kbar_exact(1 << n, layers, obs.trace_power(2), obs.trace_power(1))
        assert np.all(np.abs(values[zero]) <= 1e-10 * scale)
        assert np.all(np.abs(expected[zero]) <= 1e-10 * scale)


def test_the_co_state_keeps_its_overlap_and_orthogonal_norm_at_every_layer():
    # the closed form rests on this: y_k = alpha x_k + y_perp with
    # alpha = <psi_L|O|psi_L> and |y_perp| = |O psi_L - alpha psi_L| for all k
    for n, layers in ((1, 9), (2, 17), (3, 6)):
        obs = random_pauli_sum(n, 10, RngStream(547 + n))
        for k in range(5):
            _, images, costates = lazy_haar_sequential(n, layers, RngStream(548, (n, k)), observable_matrix(obs))
            psi, lam = images[-1], observable_matrix(obs) @ images[-1]
            eps = np.vdot(psi, lam)
            beta = np.linalg.norm(lam - eps * psi)
            np.testing.assert_allclose(np.sum(images.conj() * costates, axis=1), eps, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                np.linalg.norm(costates - eps * images, axis=1), beta, rtol=0, atol=1e-12
            )


def test_zero_layers_give_exactly_zero():
    obs = random_pauli_sum(2, 10, RngStream(550))
    values = haar_instance_kernels(2, 0, [RngStream(551, (k,)) for k in range(5)], obs, zero_state(2))
    assert values.tolist() == [0.0] * 5


@pytest.mark.parametrize("step, scale", [("_haar_images", 0.0), ("_haar_pullbacks", 1.0)])
def test_norm_guard_rejects_a_draw_that_is_not_unitary(step, scale, monkeypatch):
    # the forward guard sees every image, the backward one every pulled-back
    # co-state; the image case runs with O = 0, whose co-state is 0, so that
    # only the forward guard can see it
    original = getattr(kernels, step)
    monkeypatch.setattr(kernels, step, lambda *args: (1.0 + 1e-8) * original(*args))
    obs = random_pauli_sum(2, 10, RngStream(560))
    obs = Observable(2, tuple((scale * c, p) for c, p in obs.terms))
    with pytest.raises(ValueError, match="not unitary"):
        haar_instance_kernels(2, 4, [RngStream(561, (k,)) for k in range(3)], obs, zero_state(2))


def test_qntk_stats_instance_ensemble_runs_on_the_lazy_sampler(tmp_path):
    cfg = validate_config(
        {"kind": "qntk-stats", "qubits": 2, "layers": [4], "samples": 20, "seed": 570,
         "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]}}
    )
    assert run_experiment(cfg, tmp_path) == 0
    rows = (tmp_path / "trials" / "trial_0.csv").read_text().splitlines()[2:]
    written = [float(row.split(",")[1]) for row in rows]
    streams = [RngStream(570, (_LANE_TRIALS, 0, k)) for k in range(20)]
    obs = Observable.from_letters(((1.0, "ZZ"),), 0.0)
    assert written == haar_instance_kernels(2, 4, streams, obs, zero_state(2)).tolist()


@pytest.mark.parametrize("exclude_identity", [False, True])
def test_mean_kernel_matches_its_column_with_and_without_identity_generators(tmp_path, exclude_identity):
    # n = 2, L = 16, 20 000 lazy samples: with identity generators allowed the
    # mean is (1 - 4^-n) kbar_exact, and the summary's kbar_exact says so
    cfg = validate_config(
        {"kind": "qntk-stats", "qubits": 2, "layers": [16], "samples": 20000, "seed": 3,
         "exclude_identity": exclude_identity, "observable": {"kind": "random-pauli-sum"}}
    )
    assert run_experiment(cfg, tmp_path) == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
    written = json.loads((tmp_path / "observable.json").read_text())
    obs = Observable.from_letters(written["terms"], written["target"])
    factor = 1.0 if exclude_identity else 15 / 16
    assert row["kbar_exact"] == factor * kbar_exact(4, 16, obs.trace_power(2), obs.trace_power(1))
    z = (row["kernel_mean"] - row["kbar_exact"]) / (row["kernel_std"] / np.sqrt(20000))
    assert abs(z) <= BAND_SE
