"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all).
Statistical checks run against 3-standard-error bands with one permitted
rerun on an independent seed; every seed below is fixed, so the suite is
deterministic in practice.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from qntklab import (
    Observable,
    RngStream,
    build_random_ansatz,
    fit_decay_rate,
    gradient,
    hessian_residual,
    mc_commutator_trace,
    mc_kbar,
    mc_second_moment,
    random_pauli_sum,
    uniform_angles,
    zero_state,
)
from qntklab.circuits import chunk_grid, ensemble_angles, sample_random_circuits
from qntklab.experiments import run_experiment, validate_config
from qntklab.kernels import ensemble_kernels, supervised_kernels
from qntklab.theory import kbar_exact, kernel_eigenvalues
from qntklab.training import gd_batch

from helpers import fd_gradient, fd_hessian, gradient_close, meta_kernel, pauli_matrix

ZZ = Observable.from_letters(((1.0, "ZZ"),), 0.0)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    bad = 0
    configs = [(n, layers) for n in (2, 3) for layers in (4, 8)] * 25
    for k, (n, layers) in enumerate(configs):
        rng = RngStream(1001, (k,))
        ansatz = build_random_ansatz(n, layers, rng.substream(0))
        obs = random_pauli_sum(n, 10, rng.substream(1))
        theta = uniform_angles(layers, rng.substream(2))
        psi = zero_state(n)
        if not gradient_close(
            gradient(ansatz, theta, obs, psi), fd_gradient(ansatz, theta, obs, psi)
        ):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 30.0
    assert report(
        1,
        "analytic gradient vs central finite differences",
        ok,
        f"{len(configs) - bad}/{len(configs)} configs within tolerance in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_frozen_kernel_mean():
    start = time.perf_counter()
    target = kbar_exact(4, 16, 4.0, 0.0)
    assert target == pytest.approx(6.8267, abs=5e-5)

    def attempt(seed):
        return mc_kbar(2, 16, ZZ, zero_state(2), 10_000, RngStream(seed))

    est = attempt(2101)
    reran = False
    if not est.consistent:
        est = attempt(2102)
        reran = True
    elapsed = time.perf_counter() - start
    ok = est.consistent and elapsed < 60.0
    assert report(
        2,
        "instance-ensemble kernel mean vs exact closed form",
        ok,
        f"mean={est.mean:.4f} target={est.target:.4f} z={est.z_score:+.2f}"
        f"{' (after rerun)' if reran else ''} in {elapsed:.1f}s (< 1min)",
    )


def test_criterion_3_concentration_scaling():
    start = time.perf_counter()
    layer_grid = (4, 8, 16, 32, 64)
    samples = 2000
    obs = random_pauli_sum(2, 10, RngStream(3301))
    psi = zero_state(2)
    ratios = []
    for li, layers in enumerate(layer_grid):
        values = np.empty(samples)
        # circuit s from stream (li, s), its angles from that stream's substream 0
        for lo, hi in chunk_grid(samples, 4, layers):
            streams = [RngStream(3302, (li, s)) for s in range(lo, hi)]
            batch = sample_random_circuits(2, layers, streams)
            values[lo:hi] = ensemble_kernels(batch, streams, obs, psi)
        ratios.append(values.std(ddof=1) / values.mean())
    slope = float(np.polyfit(np.log(layer_grid), np.log(ratios), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(slope + 0.5) <= 0.1 and elapsed < 300.0
    assert report(
        3,
        "fluctuation-to-mean ratio slope vs log depth",
        ok,
        f"slope={slope:+.3f} (required -0.5 +/- 0.1), ratios="
        f"{[round(float(r), 3) for r in ratios]} in {elapsed:.0f}s (< 5min)",
    )


def _decay_protocol(seed: int):
    layers, eta, steps, trials = 64, 1e-4, 1000, 50
    rng = RngStream(seed)
    obs = random_pauli_sum(2, 10, rng.substream(999))
    psi = zero_state(2)
    target = eta * kbar_exact(4, layers, obs.trace_power(2), obs.trace_power(1))
    rates, fits = [], []
    # trial t from stream t, its initial angles from that stream's substream 0
    for lo, hi in chunk_grid(trials, 4, layers):
        streams = [rng.substream(t) for t in range(lo, hi)]
        batch = sample_random_circuits(2, layers, streams)
        theta0 = ensemble_angles(layers, streams).T
        residuals, _, _, diverged = gd_batch(batch, obs, obs.target, psi, theta0, eta, steps)
        assert not diverged
        for errors in residuals[:, :, 0]:
            rate, r2 = fit_decay_rate(errors)
            rates.append(rate)
            fits.append(r2)
    good_fits = int(np.sum(np.asarray(fits) > 0.99))
    ratio = float(np.mean(rates)) / target
    return good_fits, ratio


def test_criterion_4_exponential_decay():
    start = time.perf_counter()
    good_fits, ratio = _decay_protocol(31)
    reran = False
    if good_fits < 45 or abs(ratio - 1.0) > 0.2:
        good_fits, ratio = _decay_protocol(32)
        reran = True
    elapsed = time.perf_counter() - start
    ok = good_fits >= 45 and abs(ratio - 1.0) <= 0.2 and elapsed < 300.0
    assert report(
        4,
        "per-trial exponential decay and fitted rate vs theory",
        ok,
        f"R^2>0.99 for {good_fits}/50 trials, mean rate / (eta kbar_exact) = {ratio:.3f}"
        f"{' (after rerun)' if reran else ''} in {elapsed:.0f}s (< 5min)",
    )


def _eigen_protocol(seed: int):
    n, layers, dim = 4, 64, 16
    obs = Observable.from_letters(((1.0, "ZZII"),), 0.0)
    rng = RngStream(seed)
    worst = 0.0
    rows = []
    for size in range(2, 11):
        theory = kernel_eigenvalues(dim, layers, size, 16.0, 0.0).lowest
        acc = np.zeros((size, size))
        for t in range(50):
            sub = rng.substream(size * 1000 + t)
            ansatz = build_random_ansatz(n, layers, sub)
            theta = uniform_angles(layers, sub.substream(0))
            acc += supervised_kernels(ansatz, theta[:, None], np.eye(dim)[:size], obs)[0]
        lowest = float(np.linalg.eigvalsh(acc / 50)[0])
        rel = abs(lowest - theory) / theory if theory > 0 else abs(lowest)
        worst = max(worst, rel)
        rows.append((size, lowest, theory))
    return worst, rows


def test_criterion_5_supervised_eigenvalue_line():
    start = time.perf_counter()
    assert kernel_eigenvalues(16, 64, 10, 16.0, 0.0).lowest == pytest.approx(3.0236, abs=5e-5)
    worst, rows = _eigen_protocol(17)
    reran = False
    if worst > 0.10:
        worst, rows = _eigen_protocol(99)
        reran = True
    elapsed = time.perf_counter() - start
    ok = worst <= 0.10 and elapsed < 600.0
    at_ten = next(r for r in rows if r[0] == 10)
    assert report(
        5,
        "lowest kernel eigenvalue vs predicted linear law",
        ok,
        f"worst relative deviation {worst:.1%} over sizes 2..10, at size 10: "
        f"{at_ten[1]:.4f} vs {at_ten[2]:.4f}{' (after rerun)' if reran else ''} "
        f"in {elapsed:.0f}s (< 10min)",
    )


def test_criterion_6_haar_moment_identities():
    start = time.perf_counter()
    samples = 100_000
    plans = [
        ("second-moment D=2", lambda seed: mc_second_moment(
            2, np.array([1.0, 0.0], dtype=complex), pauli_matrix("Z"), samples, RngStream(seed)
        )),
        ("second-moment D=4", lambda seed: mc_second_moment(
            4, zero_state(2), pauli_matrix("ZI") + pauli_matrix("XX"), samples, RngStream(seed)
        )),
        ("commutator-trace D=2", lambda seed: mc_commutator_trace(
            2, pauli_matrix("Z"), 0.8 * pauli_matrix("X") + 0.3 * pauli_matrix("Z"), samples, RngStream(seed)
        )),
        ("commutator-trace D=4", lambda seed: mc_commutator_trace(
            4, pauli_matrix("ZI"), np.asarray(ZZ.matrix), samples, RngStream(seed)
        )),
    ]
    details = []
    all_ok = True
    for k, (name, attempt) in enumerate(plans):
        est = attempt(6101 + k)
        if not est.consistent:
            est = attempt(6201 + k)
        details.append(f"{name} z={est.z_score:+.2f}")
        all_ok = all_ok and est.consistent
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 120.0
    assert report(
        6, "Haar moment identities", ok, "; ".join(details) + f" in {elapsed:.0f}s (< 2min)"
    )


def _meta_kernel_mean(seed: int):
    rng = RngStream(seed)
    obs = random_pauli_sum(2, 10, rng.substream(999))
    psi = zero_state(2)
    values = np.empty(2000)
    for s in range(2000):
        sub = rng.substream(s)
        ansatz = build_random_ansatz(2, 8, sub)
        theta = uniform_angles(8, sub.substream(0))
        g = gradient(ansatz, theta, obs, psi)
        values[s] = meta_kernel(g, hessian_residual(ansatz, theta, obs, psi))
    mean = values.mean()
    se = values.std(ddof=1) / np.sqrt(len(values))
    return mean, se


def test_criterion_7_meta_kernel_mean_and_hessian():
    start = time.perf_counter()
    mean, se = _meta_kernel_mean(7101)
    reran = False
    if abs(mean) > 3 * se:
        mean, se = _meta_kernel_mean(7102)
        reran = True
    hessian_bad = 0
    for k in range(20):
        rng = RngStream(7301, (k,))
        ansatz = build_random_ansatz(2, 4, rng.substream(0))
        obs = random_pauli_sum(2, 10, rng.substream(1))
        theta = uniform_angles(4, rng.substream(2))
        psi = zero_state(2)
        exact = hessian_residual(ansatz, theta, obs, psi)
        approx = fd_hessian(ansatz, theta, obs, psi)
        if np.linalg.norm(exact - approx) / np.linalg.norm(approx) > 1e-4:
            hessian_bad += 1
    elapsed = time.perf_counter() - start
    ok = abs(mean) <= 3 * se and hessian_bad == 0 and elapsed < 300.0
    assert report(
        7,
        "meta-kernel ensemble mean and exact second derivatives",
        ok,
        f"mean={mean:+.3f} (3SE={3 * se:.3f}){' (after rerun)' if reran else ''}, "
        f"{20 - hessian_bad}/20 Hessians within 1e-4 in {elapsed:.0f}s (< 5min)",
    )


def test_criterion_8_kernel_psd_and_symmetry():
    start = time.perf_counter()
    worst_eig = 0.0
    worst_asym = 0.0
    count = 0
    for n in (2, 4):
        dim = 1 << n
        for k in range(50):
            rng = RngStream(8101, (n, k))
            ansatz = build_random_ansatz(n, 12, rng.substream(0))
            obs = random_pauli_sum(n, 6, rng.substream(1))
            theta = uniform_angles(12, rng.substream(2))
            size = 1 + int(rng.substream(3).generator.integers(0, dim))
            kernel = supervised_kernels(ansatz, theta[:, None], np.eye(dim)[:size], obs)[0]
            worst_asym = max(worst_asym, float(np.max(np.abs(kernel - kernel.T))))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(kernel)[0]))
            count += 1
    elapsed = time.perf_counter() - start
    ok = count == 100 and worst_eig >= -1e-10 and worst_asym <= 1e-10
    assert report(
        8,
        "supervised kernel symmetry and positivity",
        ok,
        f"{count} instances, min eigenvalue {worst_eig:.2e}, max asymmetry {worst_asym:.2e} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_9_byte_determinism(tmp_path: Path):
    start = time.perf_counter()
    base = {
        "kind": "qntk-stats",
        "qubits": 2,
        "layers": [4, 8],
        "samples": 300,
        "seed": 9101,
        "observable": {"kind": "random-pauli-sum", "num_terms": 10},
    }
    train = {
        "kind": "train",
        "qubits": 2,
        "layers": 16,
        "eta": 1e-3,
        "steps": 40,
        "trials": 3,
        "seed": 9102,
        "observable": {"kind": "random-pauli-sum", "num_terms": 10},
    }

    def tree(root: Path):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    identical = True
    for name, cfg in (("stats", base), ("train", train)):
        run_experiment(validate_config(dict(cfg)), tmp_path / f"{name}_a")
        run_experiment(validate_config(dict(cfg)), tmp_path / f"{name}_b")
        run_experiment(validate_config(dict(cfg, threads=2)), tmp_path / f"{name}_c")
        ta = tree(tmp_path / f"{name}_a")
        identical = identical and ta == tree(tmp_path / f"{name}_b") == tree(tmp_path / f"{name}_c")
    elapsed = time.perf_counter() - start
    ok = identical
    assert report(
        9,
        "byte-identical outputs across repeats and worker counts",
        ok,
        f"two experiment kinds, repeat and threads=2 comparisons in {elapsed:.0f}s",
    )
