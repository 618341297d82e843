"""Benchmark of qntklab's CLI ensembles: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qntklab checkout; it runs the package from ``src``.
For about S seconds it repeats a pair of child processes, alternating their
order: a CLI run of the workload (``python -m qntklab.cli``) and a set-up
probe that stops after the set-up (``bench/child.py setup``).  A fixed numpy
calibration loop runs before, between and after the children.  The outputs of
every CLI run pass through the gates in ``workloads.check``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``.  With ``--trace 0`` the metrics are the
end-to-end ones, medians over the repetitions.  With ``--trace 1`` they are
the per-layer ones, from one extra run in process with every traced function
wrapped (``bench/child.py trace``).  The line before it starts with ``info``
and records the environment, every repetition with its raw times and
calibration, and every gate.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# BLAS reads these when numpy loads, here and in every child
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
# a run ends within this many seconds, whatever its children do
RUN_LIMIT_S = 170.0
MIN_REPS = 3
# Every time is reported as measured x CAL_REF_S / (median calibration loop
# time of the run), that is in seconds at a fixed host speed.  The constant is
# about the loop's time on the host of the seed baseline (2-vCPU Xeon VM at
# 2.1 GHz, numpy 2.4, OpenBLAS 0.3.31) and only sets the scale; the raw times
# and every calibration are in the info line.
CAL_REF_S = 0.100

_rng = np.random.default_rng(0)
_CAL_MATRIX = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: list[str], root: Path, log: Path, deadline: float) -> Child:
    """Run a child to completion; wall time from spawn to exit, its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        print(f"child {argv[1:3]} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def calibrate() -> float:
    """Time a fixed numpy loop of small QRs, in seconds.

    The host's speed drifts by tens of percent over tens of seconds, so the
    loop runs before, between and after the children.  Like the CLI, it is
    bound by the interpreter and numpy's per-call overhead; a loop of large
    QRs tracked the drift worse, on the LAPACK-bound workloads too.
    """
    start = time.perf_counter()
    for _ in range(4000):
        np.linalg.qr(_CAL_MATRIX)
    return time.perf_counter() - start


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": None if affinity is None else len(affinity),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "loadavg": os.getloadavg(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path, spec: dict):
    """Repeat the workload for ``seconds``; return the info record and the result."""
    cfg = workloads.config(name, seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / "out"
    log = work / "child.log"
    py = sys.executable
    cli = [py, "-m", "qntklab.cli", cfg["kind"], "--config", str(cfg_path)]
    cli += ["--out", str(out), "--threads", "1"]
    probe = [py, str(BENCH_DIR / "child.py"), "setup", str(cfg_path)]
    deadline = time.monotonic() + RUN_LIMIT_S

    reps, verdicts, digests = [], [], set()
    start = time.perf_counter()
    calibrations = [calibrate()]
    while True:
        shutil.rmtree(out, ignore_errors=True)
        if len(reps) % 2 == 0:
            setup = spawn(probe, root, log, deadline)
            calibrations.append(calibrate())
            run = spawn(cli, root, log, deadline)
        else:
            run = spawn(cli, root, log, deadline)
            calibrations.append(calibrate())
            setup = spawn(probe, root, log, deadline)
        calibrations.append(calibrate())
        verdict = workloads.check(cfg, out, run.code)
        verdict.gate("setup_exit_code", setup.code == 0, setup.code)
        verdicts.append(verdict.seal())
        if run.code == 0:
            digests.add(workloads.tree_digest(out))
        reps.append({"wall_s": run.wall_s, "setup_s": setup.wall_s, "cpu_s": run.cpu_s, "peak_rss_mb": run.peak_rss_mb})
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break
        if time.monotonic() + 3 * per_rep > deadline:
            break

    run_gates = [("outputs_deterministic", len(digests) == 1)]
    info = {
        "workload": name,
        "seed": seed,
        "environment": environment(),
        "reps": reps,
        "calibrations_s": calibrations,
        "gates": _gate_summary(verdicts),
        "notes": verdicts[0].notes,
    }

    metrics = {}
    if trace:
        shutil.rmtree(out, ignore_errors=True)
        spans_file = work / "spans.bin"
        argv = [py, str(BENCH_DIR / "child.py"), "trace", str(cfg_path), str(out), str(spans_file)]
        traced = spawn(argv, root, log, deadline)
        verdicts.append(workloads.check(cfg, out, traced.code))
        run_gates.append(("traced_outputs_identical", traced.code == 0 and workloads.tree_digest(out) in digests))
        info["traced_wall_s"] = traced.wall_s
        if spans_file.is_file():
            raw_wall = statistics.median(r["wall_s"] for r in reps)
            values = per_layer_values(tracing.aggregate(tracing.load(spans_file)), traced.wall_s, raw_wall)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = end_to_end_values(reps, calibrations, workloads.items(cfg))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    gates_ok = all(ok for _, ok in run_gates)
    if not gates_ok:
        failed = attempted
    info["run_gates"] = dict(run_gates)
    correct = failed == 0 and gates_ok and all(v.correct for v in verdicts)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def end_to_end_values(reps: list[dict], calibrations: list[float], items: int) -> dict:
    """Medians over the repetitions, times scaled to a fixed host speed.

    The scale is the run's median calibration time, not each child's
    neighbours: one loop is too short to time the host's speed without
    jitter of its own, while the median over the run takes out the drift
    between runs.
    """
    scale = CAL_REF_S / statistics.median(calibrations)
    values = {key: statistics.median(r[key] for r in reps) for key in reps[0]}
    for key in ("wall_s", "setup_s", "cpu_s"):
        values[key] *= scale
    values["items_per_s"] = items / (values["wall_s"] - values["setup_s"])
    return values


def per_layer_values(agg: dict, traced_wall: float, wall_median: float) -> dict:
    values = {}
    for span in tracing.SPAN_NAMES:
        values[f"{span}.calls"] = agg["calls"][span]
        values[f"{span}.self_s"] = agg["self_s"][span]
    for span in tracing.BYTE_COUNTED:
        values[f"{span}.bytes"] = agg["bytes"][span]
    values["trace.unattributed_s"] = traced_wall - sum(agg["self_s"].values())
    values["trace.overhead"] = traced_wall / wall_median - 1.0
    return values


def _gate_summary(verdicts) -> dict:
    """Per gate: whether it held on every repetition, and the last detail seen."""
    summary = {}
    for verdict in verdicts:
        for gate, ok, detail in verdict.gates:
            held = summary.get(gate, {"ok": True})["ok"] and ok
            summary[gate] = {"ok": held, "detail": detail}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qntklab" / "cli.py").is_file():
        print("error: no src/qntklab here; run from the root of a qntklab checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    runs_dir = root / ".bench_out"
    runs_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs_dir))
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
