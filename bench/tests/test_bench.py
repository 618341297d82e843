"""Tests of the benchmark itself: tracer arithmetic, gates and metric names.

    python3 -m pytest bench/tests
"""

import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_times_of_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds d [6, 8]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    own = tracing.self_times(parent, start, end)
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])
    assert sum(own) == pytest.approx(end[0] - start[0])


def test_tracer_records_the_nest_and_aggregates_by_name(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("kernels.gradient", lambda: None)
    outer = tracer.wrap("training.gd_optimize", lambda: [inner() for _ in range(3)])
    outer()
    inner()
    tracer.dump(tmp_path / "spans.bin")
    spans = tracing.load(tmp_path / "spans.bin")
    assert list(spans["parent"]) == [-1, 0, 0, 0, -1]
    agg = tracing.aggregate(spans)
    assert agg["calls"]["kernels.gradient"] == 4
    assert agg["calls"]["training.gd_optimize"] == 1
    roots = [e - s for p, s, e in zip(spans["parent"], spans["start"], spans["end"]) if p < 0]
    assert sum(agg["self_s"].values()) == pytest.approx(sum(roots))


def _write_run(out: Path, cfg: dict, values: list[float], mean: float):
    """A qntk-stats output directory with one depth, as the CLI lays it out."""
    identity = {k: v for k, v in cfg.items() if k != "threads"}
    canon = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    head = f"# config_sha256={digest} tool_version=0.1.0\n"
    (out / "trials").mkdir(parents=True)
    (out / "config.echo.json").write_text(json.dumps(identity))
    (out / "observable.json").write_text(json.dumps({"terms": [[1.0, "ZI"], [0.5, "XX"]], "target": 0.0}))
    (out / "report.json").write_text(json.dumps({"config_sha256": digest}))
    std = statistics.stdev(values)
    (out / "summary.csv").write_text(head + f"layers,kernel_mean,kernel_std\n{cfg['layers'][0]},{mean!r},{std!r}\n")
    rows = "".join(f"{k},{v!r}\n" for k, v in enumerate(values))
    (out / "trials" / "trial_0.csv").write_text(head + "sample,kernel\n" + rows)


@pytest.mark.parametrize("shift", [0.0, 10.0])
def test_gate_flags_a_mean_shifted_by_ten_standard_errors(tmp_path, shift):
    cfg = {**workloads.WORKLOADS["ensemble-n2"], "layers": [8], "samples": 100, "seed": 3, "threads": 1}
    tr1, tr2 = workloads.pauli_trace_powers([[1.0, "ZI"], [0.5, "XX"]], 4)
    kbar = workloads.kbar_two_design(4, 8, tr1, tr2)
    spread = 0.5 * kbar
    base = [kbar + (spread if k % 2 else -spread) for k in range(100)]
    standard_error = statistics.stdev(base) / 10.0
    values = [v + shift * standard_error for v in base]
    _write_run(tmp_path, cfg, values, statistics.fmean(values))
    verdict = workloads.check(cfg, tmp_path, exit_code=0)
    failing = [name for name, ok, _ in verdict.gates if not ok]
    if shift:
        assert failing == ["z_kbar[8]"]
        assert verdict.failed == verdict.attempted == 100
        assert not verdict.correct
    else:
        assert failing == []
        assert verdict.correct and verdict.failed == 0


def test_gate_passes_a_real_cli_run(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from qntklab import experiments
    finally:
        sys.path.remove(str(ROOT / "src"))
    cfg = {**workloads.WORKLOADS["ensemble-n2"], "layers": [4, 8], "samples": 60, "seed": 5, "threads": 1}
    assert experiments.run_experiment(experiments.validate_config(cfg), tmp_path) == 0
    verdict = workloads.check(cfg, tmp_path, exit_code=0)
    assert verdict.correct, verdict.gates
    assert verdict.attempted == 120


def test_every_metric_name_and_unit_is_valid():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_times_are_scaled_by_the_median_calibration():
    import run

    reps = [
        {"wall_s": 3.0, "setup_s": 0.2, "cpu_s": 2.9, "peak_rss_mb": 40.0},
        {"wall_s": 4.0, "setup_s": 0.4, "cpu_s": 3.9, "peak_rss_mb": 41.0},
        {"wall_s": 5.0, "setup_s": 0.3, "cpu_s": 4.9, "peak_rss_mb": 42.0},
    ]
    # a host twice as slow as the reference, with one outlying loop
    calibrations = [2 * run.CAL_REF_S] * 4 + [9 * run.CAL_REF_S]
    values = run.end_to_end_values(reps, calibrations, items=100)
    assert values["wall_s"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(0.15)
    assert values["cpu_s"] == pytest.approx(1.95)
    assert values["peak_rss_mb"] == 41.0
    assert values["items_per_s"] == pytest.approx(100 / 1.85)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "hea-n9", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
