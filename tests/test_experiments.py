import json
import re
from pathlib import Path

import numpy as np
import pytest

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
from qntklab.experiments import _LANE_TRIALS, _eigen_chunk
from qntklab.kernels import SupervisedProblem, supervised_kernel
from qntklab.linalg import RngStream
from qntklab.training import TrainingConfig, gd_supervised
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


def test_train_supervised_trials_match_the_library(tmp_path):
    # 5 trials at n=3, L=64 run in chunks of 4 and 1
    cfg = validate_config(supervised_cfg())
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    obs = realize_observable(cfg)
    labels = json.loads((tmp_path / "report.json").read_text())["labels"]
    prob = SupervisedProblem.with_basis_features(3, np.array(labels), (obs,))
    for k in range(cfg["trials"]):
        stream = RngStream(cfg["seed"], (_LANE_TRIALS, k))
        ansatz = build_random_ansatz(3, 64, stream)
        tcfg = TrainingConfig(cfg["eta"], cfg["steps"], init_angles=uniform_angles(64, stream.substream(0)))
        reference = gd_supervised(ansatz, prob, tcfg)
        lines = (tmp_path / "trials" / f"trial_{k}.csv").read_text().splitlines()[2:]
        table = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
        assert np.max(np.abs(table[:, 0] / reference.errors - 1.0)) <= 1e-12
        assert np.max(np.abs(table[:, 1] / reference.kernels - 1.0)) <= 1e-12


def test_eigen_scan_trials_match_the_library(tmp_path):
    cfg = validate_config(scan_cfg())
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    obs = realize_observable(cfg)
    for si, size in enumerate(cfg["train_sizes"]):
        payload = {"cfg": cfg, "observable": obs, "train_size": size, "size_index": si}
        chunked = _eigen_chunk(payload, 0, cfg["trials"])
        prob = SupervisedProblem.with_basis_features(3, np.zeros(size), (obs,))
        lines = (tmp_path / "trials" / f"trial_{si}.csv").read_text().splitlines()[2:]
        for k, (lowest, kernel) in enumerate(chunked):
            stream = RngStream(cfg["seed"], (_LANE_TRIALS, si, k))
            ansatz = build_random_ansatz(3, 64, stream)
            reference = supervised_kernel(ansatz, uniform_angles(64, stream.substream(0)), prob)
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


def test_decay_fit_on_synthetic_trajectories(tmp_path):
    trials = tmp_path / "trials"
    trials.mkdir()
    t = np.arange(120)
    for k, rate in enumerate((0.01, 0.02)):
        lines = ["# synthetic", "step,residual,kernel"]
        for step in t:
            lines.append(f"{step},{float(np.exp(-rate * step))!r},0.0")
        (trials / f"trial_{k}.csv").write_text("\n".join(lines) + "\n")
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
    # both ensembles span several chunks and end in a partial one
    stats = validate_config(qntk_cfg(layers=[16, 64], samples=40))
    assert len(chunk_grid(40, 4, 64)) > 1 and 40 % samples_per_chunk(4, 64) != 0
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
