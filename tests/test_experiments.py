import ast
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qntklab
from qntklab.experiments import (
    EXIT_ALL_DIVERGED,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    ConfigError,
    config_hash,
    experiment_identity,
    load_config,
    realize_observable,
    run_experiment,
    validate_config,
)
from qntklab.circuits import build_random_ansatz, chunk_grid, samples_per_chunk, uniform_angles
from qntklab.experiments import _ALLOWED_KEYS, _LANE_TRIALS, _dense_matrices, _descent_chunk, _eigen_chunk, _map_chunks
from qntklab.experiments import _engine_entry_bytes, _qntk_chunk, _restrict_observable, _shared_circuit
from qntklab.kernels import Observable, supervised_kernels
from qntklab.linalg import RngStream
from qntklab.theory import delta_k, kbar_exact, kernel_eigenvalues
from qntklab.training import gd_batch, squared_loss
from qntklab.cli import main as cli_main
from qntklab.haar import MomentEstimate


def qntk_cfg(**overrides):
    cfg = {
        "kind": "qntk-stats",
        "qubits": 2,
        "layers": [0, 4],
        "samples": 30,
        "seed": 7,
        "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]},
    }
    cfg.update(overrides)
    return cfg


def read_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(qntk_cfg(bogus=1))


def test_seed_is_mandatory():
    cfg = qntk_cfg()
    del cfg["seed"]
    with pytest.raises(ConfigError, match="seed"):
        validate_config(cfg)


def test_zero_samples_rejected():
    with pytest.raises(ConfigError, match="samples"):
        validate_config(qntk_cfg(samples=0))


def test_kind_mismatch_rejected():
    with pytest.raises(ConfigError, match="kind"):
        validate_config(qntk_cfg(), kind="train")


def test_bad_observable_term_rejected():
    with pytest.raises(ConfigError, match="terms"):
        validate_config(qntk_cfg(observable={"kind": "pauli-sum", "terms": [[1.0, "ZQ"]]}))
    for i, bad in enumerate(["", "zz", "Z?"]):
        terms = [[1.0, "ZZ"]] * i + [[1.0, bad]]
        with pytest.raises(ConfigError) as err:
            validate_config(qntk_cfg(observable={"kind": "pauli-sum", "terms": terms}))
        assert str(err.value) == f"config key 'observable.terms[{i}]': invalid Pauli string {bad!r}"
    with pytest.raises(ConfigError, match="observable"):
        validate_config(qntk_cfg(observable={"kind": "mystery"}))


def test_eigen_scan_range_validated():
    cfg = {
        "kind": "eigen-scan",
        "qubits": 2,
        "layers": 8,
        "trials": 2,
        "train_sizes": [2, 5],
        "seed": 1,
        "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]},
    }
    with pytest.raises(ConfigError, match="train_sizes"):
        validate_config(cfg)


def test_supervised_train_size_bounded_by_dimension():
    cfg = {
        "kind": "train-supervised",
        "qubits": 2,
        "layers": 8,
        "eta": 1e-3,
        "steps": 3,
        "trials": 1,
        "train_size": 5,
        "seed": 1,
        "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]},
    }
    with pytest.raises(ConfigError, match="train_size"):
        validate_config(cfg)


def test_config_round_trip(tmp_path):
    cfg = validate_config(qntk_cfg(threads=3, out="somewhere"))
    run_experiment(cfg, tmp_path)
    echoed = json.loads((tmp_path / "config.echo.json").read_text())
    reparsed = validate_config(echoed)
    assert experiment_identity(reparsed) == experiment_identity(cfg)
    assert config_hash(reparsed) == config_hash(cfg)


def test_realized_observable_is_seed_deterministic():
    cfg = validate_config(qntk_cfg(observable={"kind": "random-pauli-sum", "num_terms": 10}))
    a = realize_observable(cfg)
    b = realize_observable(cfg)
    assert a.as_dict() == b.as_dict()
    assert len(a.terms) == 10


def test_qntk_stats_zero_layers_exact_zero(tmp_path):
    cfg = validate_config(qntk_cfg(layers=[0]))
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    row = lines[2].split(",")
    assert float(row[1]) == 0.0
    assert float(row[2]) == 0.0


def test_outputs_byte_identical_across_runs_and_threads(tmp_path):
    cfg = validate_config(qntk_cfg())
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    cfg2 = validate_config(qntk_cfg(threads=2))
    run_experiment(cfg2, tmp_path / "c")
    tree_a = read_tree(tmp_path / "a")
    assert tree_a == read_tree(tmp_path / "b")
    assert tree_a == read_tree(tmp_path / "c")


def test_csv_headers_and_hash_comment(tmp_path):
    cfg = validate_config(qntk_cfg())
    run_experiment(cfg, tmp_path)
    text = (tmp_path / "summary.csv").read_text()
    first, header = text.splitlines()[:2]
    assert first.startswith("# config_sha256=")
    assert "tool_version=" in first
    assert header.split(",")[0] == "layers"
    assert (tmp_path / "trials" / "trial_0.csv").exists()
    assert (tmp_path / "observable.json").exists()


def train_cfg(**overrides):
    cfg = {
        "kind": "train",
        "qubits": 2,
        "layers": 8,
        "eta": 1e-3,
        "steps": 25,
        "trials": 2,
        "seed": 5,
        "observable": {"kind": "random-pauli-sum", "num_terms": 10},
    }
    cfg.update(overrides)
    return cfg


def test_train_outputs_and_determinism(tmp_path):
    cfg = validate_config(train_cfg())
    assert run_experiment(cfg, tmp_path / "a") == EXIT_OK
    run_experiment(cfg, tmp_path / "b")
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["diverged_trials"] == []
    assert len(report["per_trial_gamma"]) == 2
    assert report["gamma_theory_exact"] > report["gamma_theory_leading"] > 0
    trial = (tmp_path / "a" / "trials" / "trial_0.csv").read_text().splitlines()
    assert trial[1] == "step,residual,kernel"
    assert len(trial) == 2 + 26  # comment, header, steps 0..25


def test_train_all_diverged_exit_code(tmp_path):
    cfg = validate_config(
        train_cfg(
            eta=1.0,
            steps=60,
            trials=2,
            observable={"kind": "pauli-sum", "terms": [[1e160, "ZZ"], [1e160, "XI"]]},
        )
    )
    assert run_experiment(cfg, tmp_path) == EXIT_ALL_DIVERGED


def test_train_report_gives_the_reason_of_each_failed_fit(tmp_path):
    assert run_experiment(validate_config(train_cfg()), tmp_path / "fit") == EXIT_OK
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    assert report["per_trial_fit_error"] == [None, None]
    assert report["diverged_messages"] == {}
    # 6 steps leave too few points for a decay fit
    assert run_experiment(validate_config(train_cfg(steps=5)), tmp_path / "short") == EXIT_OK
    report = json.loads((tmp_path / "short" / "report.json").read_text())
    assert report["per_trial_gamma"] == [None, None]
    reason = "only 6 usable points above floor 1e-12; need at least 10"
    assert report["per_trial_fit_error"] == [reason, reason]


def test_train_report_keeps_each_divergence_message(tmp_path):
    cfg = validate_config(
        train_cfg(
            eta=1.0,
            steps=60,
            trials=2,
            observable={"kind": "pauli-sum", "terms": [[1e160, "ZZ"], [1e160, "XI"]]},
        )
    )
    assert run_experiment(cfg, tmp_path) == EXIT_ALL_DIVERGED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["diverged_trials"] == [0, 1]
    assert sorted(report["diverged_messages"]) == ["0", "1"]
    for message in report["diverged_messages"].values():
        assert re.fullmatch(r"non-finite residual or parameters at step \d+; reduce the learning rate", message)
    assert report["per_trial_gamma"] == report["per_trial_fit_error"] == []


def supervised_cfg(**overrides):
    cfg = {
        "kind": "train-supervised",
        "qubits": 3,
        "layers": 64,
        "eta": 1e-3,
        "steps": 12,
        "trials": 5,
        "train_size": 5,
        "seed": 9,
        "observable": {"kind": "random-pauli-sum", "num_terms": 10},
    }
    cfg.update(overrides)
    return cfg


def scan_cfg(**overrides):
    cfg = {
        "kind": "eigen-scan",
        "qubits": 3,
        "layers": 64,
        "trials": 5,
        "train_sizes": [2, 6],
        "seed": 9,
        "observable": {"kind": "random-pauli-sum", "num_terms": 10},
    }
    cfg.update(overrides)
    return cfg


def test_train_supervised_report_keeps_each_divergence_message(tmp_path):
    cfg = validate_config(
        supervised_cfg(
            qubits=2,
            layers=8,
            eta=1.0,
            steps=60,
            trials=2,
            train_size=2,
            observable={"kind": "pauli-sum", "terms": [[1e160, "ZZ"], [1e160, "XI"]]},
        )
    )
    assert run_experiment(cfg, tmp_path) == EXIT_ALL_DIVERGED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["diverged_trials"] == [0, 1]
    assert sorted(report["diverged_messages"]) == ["0", "1"]
    for message in report["diverged_messages"].values():
        assert re.fullmatch(r"non-finite residual or parameters at step \d+; reduce the learning rate", message)
    assert run_experiment(validate_config(supervised_cfg(trials=2)), tmp_path / "ok") == EXIT_OK
    assert json.loads((tmp_path / "ok" / "report.json").read_text())["diverged_messages"] == {}


def test_train_supervised_trials_match_the_library(tmp_path):
    # 5 trials at n=3, L=64 run in chunks of 4 and 1
    cfg = validate_config(supervised_cfg())
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    obs = realize_observable(cfg)
    labels = np.array(json.loads((tmp_path / "report.json").read_text())["labels"])
    features = np.eye(8, dtype=complex)[:5]
    for k in range(cfg["trials"]):
        stream = RngStream(cfg["seed"], (_LANE_TRIALS, k))
        batch = build_random_ansatz(3, 64, stream)
        theta0 = uniform_angles(64, stream.substream(0))[None, :]
        residuals, kernels, _, _ = gd_batch(batch, obs, labels, features, theta0, cfg["eta"], cfg["steps"])
        lines = (tmp_path / "trials" / f"trial_{k}.csv").read_text().splitlines()[2:]
        table = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
        assert np.max(np.abs(table[:, 0] / squared_loss(residuals[0]) - 1.0)) <= 1e-12
        assert np.max(np.abs(table[:, 1] / kernels[0] - 1.0)) <= 1e-12


def test_eigen_scan_trials_match_the_library(tmp_path):
    cfg = validate_config(scan_cfg())
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    obs = realize_observable(cfg)
    for si, size in enumerate(cfg["train_sizes"]):
        payload = {"cfg": cfg, "observable": obs, "train_size": size, "size_index": si}
        chunked = _eigen_chunk(payload, 0, cfg["trials"])
        features = np.eye(8, dtype=complex)[:size]
        lines = (tmp_path / "trials" / f"trial_{si}.csv").read_text().splitlines()[2:]
        for k, (lowest, kernel) in enumerate(chunked):
            stream = RngStream(cfg["seed"], (_LANE_TRIALS, si, k))
            batch = build_random_ansatz(3, 64, stream)
            theta = uniform_angles(64, stream.substream(0))[:, None]
            reference = supervised_kernels(batch, theta, features, obs)[0]
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(kernel - reference)) <= 1e-12 * scale
            assert abs(float(lines[k].split(",")[1]) - np.linalg.eigvalsh(reference)[0]) <= 1e-12 * scale


def test_train_supervised_runs_and_loss_drops(tmp_path):
    cfg = validate_config(
        {
            "kind": "train-supervised",
            "qubits": 2,
            "layers": 32,
            "eta": 1e-3,
            "steps": 60,
            "trials": 2,
            "train_size": 3,
            "seed": 5,
            "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]},
        }
    )
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["final_mean_loss"] < report["initial_mean_loss"]
    assert set(report["labels"]) <= {-1.0, 1.0}


def test_eigen_scan_summary(tmp_path):
    cfg = validate_config(
        {
            "kind": "eigen-scan",
            "qubits": 2,
            "layers": 16,
            "trials": 3,
            "train_sizes": [2, 3],
            "seed": 5,
            "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]},
        }
    )
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[1] == "train_size,lowest_of_mean_kernel,mean_of_lowest,lowest_theory,bulk_theory"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [int(r[0]) for r in rows] == [2, 3]
    assert all(float(r[1]) > 0 for r in rows)


def test_haar_check_report_and_determinism(tmp_path):
    cfg = validate_config(
        {
            "kind": "haar-check",
            "qubits": [1, 2],
            "samples": 4000,
            "seed": 5,
            "observable": {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]},
        }
    )
    assert run_experiment(cfg, tmp_path / "a") == EXIT_OK
    run_experiment(cfg, tmp_path / "b")
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert len(report["checks"]) == 4
    assert all(abs(c["z_score"]) <= 3 for c in report["checks"])


def test_haar_check_restriction_keeps_the_leading_letters():
    # qubit 0 is the leftmost letter: a narrower check keeps the first n qubits
    obs = Observable.from_letters(((1.0, "XZY"), (0.4, "IZZ")), 0.5)
    for n, letters in ((3, ["XZY", "IZZ"]), (2, ["XZ", "IZ"]), (1, ["X", "I"])):
        restricted = _restrict_observable(obs, n)
        assert restricted.num_qubits == n
        assert restricted.as_dict() == {"terms": [[1.0, letters[0]], [0.4, letters[1]]], "target": 0.5}


def test_haar_check_failure_exit_code(tmp_path, monkeypatch):
    import qntklab.experiments as exp

    def broken(dim, psi, op, samples, rng):
        return MomentEstimate(mean=1.0, std_error=0.01, count=samples, target=0.0, z_score=100.0)

    monkeypatch.setattr(exp, "mc_second_moment", broken)
    cfg = validate_config(
        {
            "kind": "haar-check",
            "qubits": 1,
            "samples": 100,
            "seed": 5,
            "observable": {"kind": "pauli-sum", "terms": [[1.0, "Z"]]},
        }
    )
    assert run_experiment(cfg, tmp_path) == EXIT_CHECK_FAILED


def write_decay_trials(trials: Path) -> Path:
    """Two trial CSVs under ``trials``: residuals exp(-rate t), t < 120, at rates 0.01 and 0.02."""
    trials.mkdir()
    t = np.arange(120)
    for k, rate in enumerate((0.01, 0.02)):
        lines = ["# synthetic", "step,residual,kernel"]
        for step in t:
            lines.append(f"{step},{float(np.exp(-rate * step))!r},0.0")
        (trials / f"trial_{k}.csv").write_text("\n".join(lines) + "\n")
    return trials


def test_decay_fit_on_synthetic_trajectories(tmp_path):
    trials = write_decay_trials(tmp_path / "trials")
    cfg = validate_config({"kind": "decay-fit", "input": str(trials), "seed": 0})
    out = tmp_path / "out"
    assert run_experiment(cfg, out) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    rates = sorted(f["gamma"] for f in report["fits"])
    assert rates[0] == pytest.approx(0.01, abs=1e-9)
    assert rates[1] == pytest.approx(0.02, abs=1e-9)


def test_decay_fit_missing_input_rejected(tmp_path):
    cfg = validate_config({"kind": "decay-fit", "input": str(tmp_path / "nope"), "seed": 0})
    with pytest.raises(ConfigError, match="input"):
        run_experiment(cfg, tmp_path / "out")


_MALFORMED_TRIALS = {
    "non-numeric": ("step,residual,kernel\n0,1.0,0.0\n1,oops,0.0\n", "line 3"),
    "comment-only": ("# no header\n", "no header line"),
    "short-row": ("step,residual,kernel\n0,1.0,0.0\n1\n", "line 3"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_TRIALS))
def test_decay_fit_malformed_trial_is_config_error(tmp_path, capsys, case):
    text, where = _MALFORMED_TRIALS[case]
    trial = tmp_path / "trial_0.csv"
    trial.write_text(text)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"kind": "decay-fit", "input": str(trial), "seed": 0}))
    assert cli_main(["decay-fit", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config key 'input'" in err and str(trial) in err and where in err
    assert "Traceback" not in err


def test_load_config_reports_json_syntax_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "train",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_cli_runs_and_reports_config_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(qntk_cfg(samples=10)))
    assert cli_main(["qntk-stats", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert (tmp_path / "run" / "summary.csv").exists()
    # seed override changes the hash comment
    cli_main(["qntk-stats", "--config", str(path), "--out", str(tmp_path / "run2"), "--seed", "8"])
    first = (tmp_path / "run" / "summary.csv").read_text().splitlines()[0]
    second = (tmp_path / "run2" / "summary.csv").read_text().splitlines()[0]
    assert first != second


def test_cli_exit_codes_for_bad_configs(tmp_path):
    missing = tmp_path / "missing.json"
    assert cli_main(["train", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(qntk_cfg(bogus=2)))
    assert cli_main(["qntk-stats", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    good = tmp_path / "good.json"
    good.write_text(json.dumps(qntk_cfg()))
    assert cli_main(["qntk-stats", "--config", str(good)]) == 1  # no output dir anywhere


def test_qntk_stats_report_contains_theory_slope(tmp_path):
    cfg = validate_config(qntk_cfg(layers=[4, 8, 16], samples=40))
    run_experiment(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ratio_slope_theory"] == pytest.approx(-0.5, abs=1e-9)
    assert "ratio_slope_empirical" in report


def test_chunked_outputs_byte_identical_across_threads(tmp_path):
    # both ensembles span several chunks and end in a partial one; the stats
    # ensemble is random-Haar in instance mode, cut on the lazy grid
    stats = validate_config(qntk_cfg(layers=[16, 64], samples=150))
    assert len(chunk_grid(150, 4, 64, lazy=True)) > 2 and 150 % samples_per_chunk(4, 64, lazy=True) != 0
    train = validate_config(train_cfg(qubits=3, layers=64, steps=15, trials=6))
    assert len(chunk_grid(6, 8, 64)) > 1 and 6 % samples_per_chunk(8, 64) != 0
    supervised = validate_config(supervised_cfg(trials=6))
    scan = validate_config(scan_cfg(trials=6))
    runs = (("stats", stats), ("train", train), ("supervised", supervised), ("scan", scan))
    for name, cfg in runs:
        trees = []
        for threads in (1, 2, 3):
            out = tmp_path / f"{name}_{threads}"
            assert run_experiment(dict(cfg, threads=threads), out) == EXIT_OK
            trees.append(read_tree(out))
        assert trees[0] == trees[1] == trees[2]


def test_process_pool_is_capped_at_the_usable_cpus(monkeypatch):
    # a fake pool records its size and runs each call inline, so no process
    # starts even at threads = 10**6; each worker still gets one run of chunks
    import concurrent.futures

    pools, submits = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submits.append(args[2])
            result = fn(*args)
            return SimpleNamespace(result=lambda: result)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool, raising=False)

    def worker(payload, lo, hi):
        return [payload * k for k in range(lo, hi)]

    grid = [(k, k + 1) for k in range(7)]
    for cpus, chunks, workers in ((3, 7, 3), (64, 2, 2), (1, 7, None)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
        pools.clear()
        submits.clear()
        assert _map_chunks(worker, 10, grid[:chunks], 10**6) == [10 * k for k in range(chunks)]
        assert pools == ([workers] if workers else [])
        assert len(submits) == (workers or 0)
        assert [c for run in submits for c in run] == (grid[:chunks] if workers else [])


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported only when a run asks for more than one worker
    src = str(Path(qntklab.__file__).resolve().parents[1])
    code = "import sys, qntklab.cli; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = ast.literal_eval(out)
    assert "multiprocessing" not in loaded and "concurrent.futures.process" not in loaded, loaded


def test_decay_fit_keys_validated(tmp_path):
    base = {"kind": "decay-fit", "input": str(tmp_path), "seed": 0}
    with pytest.raises(ConfigError, match="burn_in"):
        validate_config(dict(base, burn_in="ten"))
    with pytest.raises(ConfigError, match="floor"):
        validate_config(dict(base, floor="tiny"))
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(dict(base, burn_in="ten")))
    assert cli_main(["decay-fit", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_pauli_sum_width_must_match_qubits(tmp_path):
    wide = {"kind": "pauli-sum", "terms": [[1.0, "XYZ"]]}
    with pytest.raises(ConfigError, match="observable"):
        validate_config(qntk_cfg(observable=wide))
    narrow = {"kind": "pauli-sum", "terms": [[1.0, "XY"]]}
    haar = {"kind": "haar-check", "qubits": [2, 3], "samples": 10, "seed": 1, "observable": narrow}
    with pytest.raises(ConfigError, match="observable"):
        validate_config(haar)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(qntk_cfg(observable=wide)))
    assert cli_main(["qntk-stats", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    path.write_text(json.dumps(haar))
    assert cli_main(["haar-check", "--config", str(path), "--out", str(tmp_path / "h")]) == 1


_ZZ = {"kind": "pauli-sum", "terms": [[1.0, "ZZ"]]}
_RANDOM = {"kind": "random-pauli-sum"}
_QNTK = {"kind": "qntk-stats", "qubits": 2, "layers": [4], "samples": 3, "seed": 1, "observable": _ZZ}
_TRAIN = {
    "kind": "train", "qubits": 2, "layers": 4, "eta": 1e-3, "steps": 3, "trials": 1, "seed": 1,
    "observable": _ZZ,
}
_SCAN = {"kind": "eigen-scan", "qubits": 2, "layers": 4, "trials": 1, "train_sizes": [2], "seed": 1,
         "observable": _ZZ}
_HAAR = {"kind": "haar-check", "qubits": [1], "samples": 10, "seed": 1}
_NAN = float("nan")


_BAD_VALUES = [
    (_QNTK, {"threads": True}, "threads"),
    (_QNTK, {"layers": [True]}, "layers[0]"),
    (_QNTK, {"layers": []}, "layers"),
    (_QNTK, {"qubits": True}, "qubits"),
    (_QNTK, {"observable": dict(_RANDOM, num_terms=True)}, "observable.num_terms"),
    (_QNTK, {"observable": dict(_ZZ, terms=[[_NAN, "ZZ"]])}, "observable.terms[0]"),
    (_QNTK, {"observable": dict(_ZZ, terms=[[True, "ZZ"]])}, "observable.terms[0]"),
    (_QNTK, {"observable": dict(_RANDOM, coeff_low=_NAN)}, "observable.coeff_low"),
    (_QNTK, {"observable": dict(_RANDOM, coeff_high=float("inf"))}, "observable.coeff_high"),
    (_QNTK, {"observable": dict(_ZZ, target=_NAN)}, "observable.target"),
    (_TRAIN, {"eta": _NAN}, "eta"),
    (_TRAIN, {"eta": 10**400}, "eta"),
    (_TRAIN, {"burn_in": True}, "burn_in"),
    (_TRAIN, {"floor": _NAN}, "floor"),
    (_SCAN, {"train_sizes": [2, True]}, "train_sizes[1]"),
    (_HAAR, {"qubits": [1, True]}, "qubits[1]"),
]


@pytest.mark.parametrize("base, override, key", _BAD_VALUES, ids=[case[2] for case in _BAD_VALUES])
def test_non_finite_and_boolean_values_are_config_errors(tmp_path, capsys, base, override, key):
    raw = dict(base, **override)
    with pytest.raises(ConfigError, match=re.escape(f"config key '{key}'")):
        validate_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main([raw["kind"], "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"config key '{key}'" in err and "Traceback" not in err


def test_config_over_the_dense_memory_limit_is_refused_before_any_work(tmp_path, capsys):
    # random-Haar at 13 qubits in angle mode: 64 dense layers and the
    # sampler's 4 temporary matrices, 1 GiB each
    big = qntk_cfg(qubits=13, layers=[64], observable={"kind": "random-pauli-sum"})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(big, resample="angle")))
    start = time.perf_counter()
    assert cli_main(["qntk-stats", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "'qubits/layers'" in err and "68.0 GiB" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()
    # instance mode draws its Haar layers lazily, and the hardware-efficient
    # families hold no dense fixed layer: only the tables and the engine's rows count
    assert validate_config(big)["qubits"] == 13
    hea = qntk_cfg(qubits=13, layers=[64], ansatz="hardware-efficient-cnot", observable={"kind": "random-pauli-sum"})
    assert validate_config(hea)["qubits"] == 13
    with pytest.raises(ConfigError, match="'qubits/layers'"):
        validate_config(train_cfg(qubits=11, layers=64, observable={"kind": "random-pauli-sum"}))
    with pytest.raises(ConfigError, match="'qubits'"):
        validate_config({"kind": "haar-check", "qubits": [2, 15], "samples": 4, "seed": 0})
    # a width far beyond any float still gives the config error, not an overflow
    with pytest.raises(ConfigError, match="inf GiB"):
        validate_config(qntk_cfg(qubits=600, layers=[1], observable={"kind": "random-pauli-sum"}))


def test_engine_row_arrays_count_toward_the_memory_limit():
    # one complex (L, D) array at 13 qubits and L = 100000 is 12.2 GiB: the
    # lazy sampler and the hardware-efficient families hold no dense layer,
    # but their per-layer states are refused all the same
    for ansatz in ("random-haar", "hardware-efficient-cnot"):
        with pytest.raises(ConfigError, match="'qubits/layers'"):
            validate_config(qntk_cfg(qubits=13, layers=[100000], ansatz=ansatz, observable=_RANDOM))
    # the hardware-efficient layer count is depth * 3n: about 0.8 GiB here,
    # 1.5 GiB at depth 128 and 3.1 GiB at depth 256
    assert validate_config(qntk_cfg(qubits=13, layers=[64], ansatz="hardware-efficient-cnot", observable=_RANDOM))
    assert validate_config(qntk_cfg(qubits=13, layers=[128], ansatz="hardware-efficient-cnot", observable=_RANDOM))
    with pytest.raises(ConfigError, match="'qubits/layers'"):
        validate_config(qntk_cfg(qubits=13, layers=[256], ansatz="hardware-efficient-cnot", observable=_RANDOM))
    # the supervised kinds keep one row per training point
    wide = supervised_cfg(qubits=12, layers=4, ansatz="hardware-efficient-cnot", train_size=2)
    assert validate_config(wide)
    with pytest.raises(ConfigError, match="'qubits/layers'"):
        validate_config(dict(wide, train_size=4096))
    with pytest.raises(ConfigError, match="'qubits/layers'"):
        validate_config(scan_cfg(qubits=12, layers=4, train_sizes=[2, 4096]))


_RECORD_FAULTS = {
    "qntk-samples": (qntk_cfg(samples=10**12), "samples"),
    "haar-samples": (dict(_HAAR, samples=10**12), "samples"),
    "train-steps": (train_cfg(steps=10**12, trials=1), "steps/trials"),
    "train-both": (train_cfg(steps=10**12, trials=10**6), "steps/trials"),
    "train-trials": (train_cfg(steps=10, trials=10**9), "steps/trials"),
    "supervised-both": (supervised_cfg(steps=10**12, trials=10**6), "steps/trials"),
    # 10**4 trials of 1024 x 1024 kernels, held twice: 160 GiB
    "scan-kernels": (scan_cfg(qubits=10, layers=1, trials=10**4, train_sizes=[2, 1024]), "trials"),
}


@pytest.mark.parametrize("case", sorted(_RECORD_FAULTS))
def test_run_long_records_count_toward_the_memory_limit(tmp_path, capsys, case):
    # validation only: each config is refused before the CLI would run it
    raw, key = _RECORD_FAULTS[case]
    with pytest.raises(ConfigError, match=re.escape(f"config key '{key}'")):
        validate_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main([raw["kind"], "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"config key '{key}'" in err and "GiB" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_run_long_records_below_the_limit_are_accepted():
    assert validate_config(qntk_cfg(samples=10**6))
    assert validate_config(dict(_HAAR, samples=10**7))
    assert validate_config(train_cfg(steps=10**4, trials=10**3))
    assert validate_config(scan_cfg(qubits=10, layers=1, trials=10, train_sizes=[2, 1024]))


@pytest.mark.parametrize(
    "ansatz, layers",
    [("hardware-efficient-cnot", 16), ("random-haar", 480)],
    ids=["cnot-per-layer", "haar-lazy"],
)
def test_chunk_peak_memory_stays_within_the_guard_estimate(ansatz, layers):
    # one 10-qubit circuit of 480 rotation layers, built and evaluated on the
    # per-layer path or on lazy Haar layers; the observable's tables are built
    # first, and the engine's count covers them too
    cfg = validate_config(qntk_cfg(qubits=10, layers=[layers], samples=1, ansatz=ansatz, observable=_RANDOM))
    obs = realize_observable(cfg)
    obs.tables()
    payload = {"cfg": cfg, "observable": obs, "layer_index": 0, "layers": layers, "shared": None}
    tracemalloc.start()
    try:
        _qntk_chunk(payload, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _engine_entry_bytes(cfg) << 10


_DENSE_CHUNKS = {
    "train": (lambda: train_cfg(qubits=8, layers=16, steps=2, trials=1), _descent_chunk),
    "train-supervised": (lambda: supervised_cfg(qubits=8, layers=16, steps=2, trials=1, train_size=4), _descent_chunk),
    "eigen-scan": (lambda: scan_cfg(qubits=8, layers=16, trials=1, train_sizes=[4]), _eigen_chunk),
    "angle": (lambda: qntk_cfg(qubits=8, layers=[16], samples=1, resample="angle", observable=_RANDOM), _qntk_chunk),
}


@pytest.mark.parametrize("kind", sorted(_DENSE_CHUNKS))
def test_dense_sampler_peak_memory_stays_within_the_guard_estimate(kind):
    # one 8-qubit circuit of 16 Haar layers on the dense sampler (one matrix
    # at a time at D >= 128) and its engine call; the observable's tables are
    # built first, and the engine's count covers them too.  In angle mode the
    # run draws the shared circuit once, outside the chunk: it is traced here too
    raw, chunk = _DENSE_CHUNKS[kind]
    cfg = validate_config(raw())
    obs = realize_observable(cfg)
    obs.tables()
    size = cfg.get("train_size", 4 if kind == "eigen-scan" else 1)
    payload = {
        "cfg": cfg,
        "observable": obs,
        "layers": cfg["layers"][0] if kind == "angle" else cfg["layers"],
        "layer_index": 0,
        "size_index": 0,
        "train_size": size,
        "features": np.eye(1 << cfg["qubits"], dtype=complex)[:size],
        "target": np.zeros(size),
    }
    tracemalloc.start()
    try:
        payload["shared"] = _shared_circuit(cfg, payload["layers"], 0) if "resample" in cfg else None
        chunk(payload, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = 16 << (2 * cfg["qubits"])
    assert peak <= _dense_matrices(cfg) * matrix + (_engine_entry_bytes(cfg) << cfg["qubits"])


def test_fourteen_qubit_hardware_efficient_config_is_accepted():
    # validation only: the observable is counted as its tables, not as the
    # 4 GiB matrix that used to refuse this config
    cfg = qntk_cfg(qubits=14, layers=[1, 2], samples=4, ansatz="hardware-efficient-cnot", observable=_RANDOM)
    assert validate_config(cfg)["qubits"] == 14


def test_twelve_qubit_hardware_efficient_chunk_peaks_under_its_estimate():
    # one depth-2 circuit of a fresh 10-term observable: the tables are built
    # inside the traced region, and the per-layer path applies O from them
    cfg = validate_config(qntk_cfg(qubits=12, layers=[2], samples=1, ansatz="hardware-efficient-cnot", observable=_RANDOM))
    payload = {"cfg": cfg, "observable": realize_observable(cfg), "layer_index": 0, "layers": 2, "shared": None}
    tracemalloc.start()
    try:
        _qntk_chunk(payload, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _engine_entry_bytes(cfg) << 12


_HEA_BASES = {
    "qntk-stats": dict(_QNTK, observable=_RANDOM),
    "train": dict(_TRAIN, observable=_RANDOM),
    "train-supervised": supervised_cfg(qubits=2, layers=4, steps=3, trials=1, train_size=2),
}
_HEA_FAULTS = {"one-qubit": ({"qubits": 1}, "qubits"), "zero-depth": ({"layers": 0}, "layers")}


@pytest.mark.parametrize("ansatz", ["hardware-efficient-cnot", "hardware-efficient-cphase"])
@pytest.mark.parametrize("fault", sorted(_HEA_FAULTS))
@pytest.mark.parametrize("kind", sorted(_HEA_BASES))
def test_hardware_efficient_config_the_builder_cannot_make_is_a_config_error(
    tmp_path, capsys, kind, fault, ansatz
):
    # the builders need two qubits and one block; validation refuses both before any work
    override, key = _HEA_FAULTS[fault]
    raw = dict(_HEA_BASES[kind], ansatz=ansatz, **override)
    if kind == "qntk-stats" and key == "layers":
        raw["layers"], key = [2, 0], "layers[1]"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main([kind, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"config key '{key}'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# one valid config per kind, for the fuzz test below
_VALID = {
    "qntk-stats": _QNTK,
    "train": _TRAIN,
    "train-supervised": supervised_cfg(qubits=2, layers=4, steps=3, trials=1, train_size=2),
    "eigen-scan": _SCAN,
    "haar-check": _HAAR,
    "decay-fit": {"kind": "decay-fit", "input": "trials", "seed": 1},
}
_OBSERVABLE_KEYS = ["kind", "terms", "num_terms", "coeff_low", "coeff_high", "target", "bogus"]
_NEW_KEYS = sorted(set().union(*_ALLOWED_KEYS.values()) | set(_OBSERVABLE_KEYS))
_WORDS = [
    "instance", "angle", "random-haar", "hardware-efficient-cnot", "hardware-efficient-cphase",
    "pauli-sum", "random-pauli-sum", "ZZ", "XYZ", "Z", "", *_VALID,
]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-3, 20),
    st.floats(),
    st.sampled_from(_WORDS),
    st.text(max_size=3),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(_OBSERVABLE_KEYS), inner, max_size=3)
    ),
    max_leaves=6,
)


def _containers(node, path=()):
    """Paths of every dict and list inside a JSON value, the value itself first."""
    if isinstance(node, (dict, list)):
        yield path
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _containers(child, path + (key,))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(kind=st.sampled_from(sorted(_VALID)), data=st.data())
def test_validate_config_returns_or_names_the_key(kind, data):
    # edits anywhere in a valid config (a key or list entry replaced, deleted
    # or added, at any depth) are either accepted or refused with a message
    # naming a key; validation only, nothing is run
    raw = json.loads(json.dumps(_VALID[kind]))
    for _ in range(data.draw(st.integers(1, 4))):
        path = data.draw(st.sampled_from(list(_containers(raw))))
        node = raw
        for step in path:
            node = node[step]
        if isinstance(node, dict):
            key = data.draw(st.sampled_from(sorted(node, key=str) + _NEW_KEYS))
        elif node:
            key = data.draw(st.integers(0, len(node) - 1))
        else:
            continue
        if data.draw(st.booleans()) and (isinstance(node, dict) or len(node) > 1):
            node.pop(key, None) if isinstance(node, dict) else node.pop(key)
        else:
            node[key] = data.draw(_JSON)
    try:
        validate_config(raw)
    except ConfigError as exc:
        assert re.match(r"config key '[^']+'", str(exc)), str(exc)


def _summary(out_dir: Path) -> dict:
    lines = (out_dir / "summary.csv").read_text().splitlines()[1:]
    header = lines[0].split(",")
    return {name: [float(row.split(",")[i]) for row in lines[1:]] for i, name in enumerate(header)}


_HEA_OBSERVABLE = {"kind": "pauli-sum", "terms": [[1.0, "ZZI"], [0.5, "XIX"]]}  # Tr O = 0, Tr O^2 = 10


@pytest.mark.parametrize(
    "ansatz, rotations",
    [("hardware-efficient-cnot", 18), ("hardware-efficient-cphase", 10)],
    ids=["cnot", "cphase"],
)
def test_hardware_efficient_theory_columns_count_rotation_layers(tmp_path, ansatz, rotations):
    # depth 2 at n = 3 holds 2 * 3n = 18 rotations for cnot and 2 * (2n - 1) = 10
    # for cphase; the 2-design values at D = 8 are then 2 L 8 * 80 / (72 * 63)
    # and L * 10 / 64
    cfg = validate_config(qntk_cfg(qubits=3, layers=[2], samples=2, ansatz=ansatz, observable=_HEA_OBSERVABLE))
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    summary = _summary(tmp_path)
    assert summary["layers"] == [2.0]
    assert summary["kbar_exact"][0] == pytest.approx({18: 320 / 63, 10: 1600 / 567}[rotations], rel=1e-12)
    assert summary["kbar_leading"][0] == pytest.approx(rotations * 10 / 64, rel=1e-12)
    assert summary["delta_k_pred"][0] == pytest.approx(delta_k(8, rotations, 10.0, realize_observable(cfg).trace_power(4)), rel=1e-12)


def test_hardware_efficient_gamma_counts_rotation_layers(tmp_path):
    # depth 3 at n = 2 holds 3 * (2n - 1) = 9 rotations; with O = ZZ at D = 4,
    # kbar_exact = 2 * 9 * 4 * 16 / (20 * 15) = 3.84 and kbar_leading = 9 * 4 / 16
    cfg = validate_config(
        train_cfg(layers=3, steps=3, trials=1, ansatz="hardware-efficient-cphase", observable=_ZZ)
    )
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["gamma_theory_exact"] == pytest.approx(1e-3 * 3.84, rel=1e-12)
    assert report["gamma_theory_leading"] == pytest.approx(1e-3 * 9 * 4 / 16, rel=1e-12)


def test_identity_generators_scale_every_exact_prediction(tmp_path):
    # with exclude_identity false a generator is the identity, whose gradient
    # is 0, with probability 4^-n: kbar_exact, gamma and the eigen-scan
    # spectrum all take the factor 1 - 4^-n = 15/16 at n = 2
    base = {"observable": _ZZ, "exclude_identity": False}
    outs = {}
    for name, cfg in (
        ("qntk", qntk_cfg(layers=[4], samples=2, **base)),
        ("train", train_cfg(steps=3, trials=1, **base)),
        ("scan", scan_cfg(qubits=2, layers=4, trials=1, train_sizes=[2], **base)),
    ):
        outs[name] = tmp_path / name
        assert run_experiment(validate_config(cfg), outs[name]) == EXIT_OK
    assert _summary(outs["qntk"])["kbar_exact"] == [15 / 16 * kbar_exact(4, 4, 4.0, 0.0)]
    report = json.loads((outs["train"] / "report.json").read_text())
    assert report["gamma_theory_exact"] == 1e-3 * 15 / 16 * kbar_exact(4, 8, 4.0, 0.0)
    spectrum = kernel_eigenvalues(4, 4, 2, 4.0, 0.0)
    scan = _summary(outs["scan"])
    assert scan["bulk_theory"] == [pytest.approx(15 / 16 * spectrum.bulk, rel=1e-15)]
    assert scan["lowest_theory"] == [pytest.approx(15 / 16 * spectrum.lowest, rel=1e-15)]


_DIVERGING = {"kind": "pauli-sum", "terms": [[1e160, "ZZ"], [1e160, "XI"]]}
# per run: the config, its exit code, and the files it writes besides
# config.echo.json and report.json, which every kind writes
_OUTPUTS = {
    "qntk-stats": (qntk_cfg(samples=5), EXIT_OK, {"observable.json", "summary.csv", "trials/trial_0.csv", "trials/trial_1.csv"}),
    "train": (train_cfg(steps=3), EXIT_OK, {"observable.json", "summary.csv", "trials/trial_0.csv", "trials/trial_1.csv"}),
    # trials 0, 1, 2, 3, 4, 6 and 7 diverge; a trial keeps its index in its file name
    "train-partly-diverged": (
        train_cfg(layers=4, eta=3e307, steps=20, trials=8, seed=7),
        EXIT_OK,
        {"observable.json", "summary.csv", "trials/trial_5.csv"},
    ),
    "train-all-diverged": (train_cfg(eta=1.0, steps=60, observable=_DIVERGING), EXIT_ALL_DIVERGED, {"observable.json", "summary.csv"}),
    "train-supervised": (
        supervised_cfg(qubits=2, layers=4, steps=3, trials=2, train_size=2),
        EXIT_OK,
        {"observable.json", "summary.csv", "trials/trial_0.csv", "trials/trial_1.csv"},
    ),
    "eigen-scan": (
        scan_cfg(qubits=2, layers=4, trials=2, train_sizes=[2, 3]),
        EXIT_OK,
        {"observable.json", "summary.csv", "trials/trial_0.csv", "trials/trial_1.csv"},
    ),
    "haar-check": (dict(_HAAR, qubits=[1, 2], samples=400), EXIT_OK, {"observable.json", "summary.csv"}),
    "decay-fit": ({"kind": "decay-fit", "input": "trials", "seed": 0}, EXIT_OK, {"summary.csv"}),
}


@pytest.mark.parametrize("case", sorted(_OUTPUTS))
def test_each_kind_writes_its_files_under_one_report_header(tmp_path, case):
    raw, code, files = _OUTPUTS[case]
    if raw["kind"] == "decay-fit":
        raw = dict(raw, input=str(write_decay_trials(tmp_path / "trials")))
    cfg = validate_config(raw)
    out = tmp_path / "out"
    assert run_experiment(cfg, out) == code
    assert set(read_tree(out)) == files | {"config.echo.json", "report.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == cfg["kind"]
    assert report["config_sha256"] == config_hash(cfg)
