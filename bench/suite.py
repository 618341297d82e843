"""Run every workload over several seeds, interleaved, and print one table.

    python3 bench/suite.py [--seeds 1-10] [--sets 1] [--trace] [--out FILE]

Run it from the root of a qntklab checkout.  Rounds go seed by seed; in each
round every workload of ``BENCHMARK.json`` runs once through ``bench/run.py``
for its ``run_seconds``, and the order of the workloads reverses from one round to the next, so drift in host speed hits
every workload alike.  With ``--sets 2`` the whole sequence runs twice.

For each workload and end-to-end metric the table gives the median over the
seeds, the distance between the quartiles as a share of the median, and the
metric's bound from ``BENCHMARK.json``; a later set's median is also compared
with the first set's.  The same figures for the raw ``wall_s`` (not scaled by
the calibration loop) and for the calibration loop itself show how much host
drift the scaling takes out.  ``error_rate`` is failed over attempted items, summed
over the workload's runs, and ``correct`` counts the runs whose gates held.
``--trace`` adds one traced run per workload and prints its per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "exit_code": proc.returncode}
    if proc.returncode != 0 or not lines:
        record["stderr"] = proc.stderr[-2000:]
        return record
    record["info"] = json.loads(next(ln[5:] for ln in lines if ln.startswith("info ")))
    record["result"] = json.loads(lines[-1])
    record["drift"] = drift_values(record["info"])
    return record


def spread(values: list[float]) -> tuple[float, float]:
    """Median and quartile distance over median, as the acceptance check takes them."""
    if len(values) < 2:
        return float("nan"), float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


# unscaled figures per run, to show what the calibration scaling takes out
DRIFT = (
    {"name": "raw_wall_s", "unit": "s", "better": "lower", "bound": None},
    {"name": "calibration_s", "unit": "s", "better": "lower", "bound": None},
)


def drift_values(info: dict) -> dict:
    """The run's median raw wall_s and median calibration loop time."""
    reps = info["reps"]
    return {
        "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
        "calibration_s": statistics.median(info["calibrations_s"]),
    }


def summarize(runs: list[dict], spec: dict, sets: int) -> dict:
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        ok = [r for r in mine if "result" in r]
        attempted = sum(r["result"]["attempted"] for r in ok)
        failed = sum(r["result"]["failed"] for r in ok)
        entry = {
            "runs": len(mine),
            "correct": sum(1 for r in ok if r["result"]["correct"]),
            "error_rate": failed / attempted if attempted else 1.0,
            "metrics": {},
        }
        for metric in spec["end_to_end"] + list(DRIFT):
            name = metric["name"]
            per_set = []
            for s in range(sets):
                values = [
                    r["drift"][name] if name in r["drift"] else r["result"]["metrics"][name]["value"]
                    for r in ok
                    if r["set"] == s
                ]
                per_set.append(spread(values))
            entry["metrics"][name] = {"unit": metric["unit"], "bound": metric["bound"], "better": metric["better"], "sets": per_set}
        summary[workload] = entry
    return summary


def print_table(summary: dict):
    for workload, entry in summary.items():
        print(f"\n{workload}: correct {entry['correct']}/{entry['runs']} runs, error_rate {entry['error_rate']:.3g}")
        print(f"  {'metric':<14}{'unit':<7}{'median':>12}{'spread':>9}{'bound':>8}{'vs set 1':>10}")
        for name, m in entry["metrics"].items():
            first = m["sets"][0][0]
            bound = "-" if m["bound"] is None else f"{m['bound']:.0%}"
            for s, (med, spr) in enumerate(m["sets"]):
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = "" if s == 0 else f"{sign * (med - first) / first:+.1%}"
                label = name if s == 0 else f"  set {s + 1}"
                print(f"  {label:<14}{m['unit']:<7}{med:>12.5g}{spr:>9.1%}{bound:>8}{worse:>10}")


def print_trace(record: dict):
    metrics = record["result"]["metrics"]
    traced = record["info"]["traced_wall_s"]
    print(f"\n{record['workload']} traced run: wall {traced:.3f} s, correct {record['result']['correct']}")
    attributed = 0.0
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            attributed += m["value"]
            calls = metrics[f"{span}.calls"]["value"]
            if calls:
                print(f"  {span:<36}{calls:>9} calls {m['value']:>9.4f} s {m['value'] / traced:>7.1%}")
    for name in ("experiments.write_csv.bytes", "experiments.write_json.bytes", "trace.unattributed_s", "trace.overhead"):
        print(f"  {name:<36}{metrics[name]['value']:>.6g} {metrics[name]['unit']}")
    total = attributed + metrics["trace.unattributed_s"]["value"]
    print(f"  self times + unattributed = {total:.6f} s (traced wall {traced:.6f} s)")


def compact(record: dict) -> dict:
    """Keep the environment once, and per run only its results and gate verdicts."""
    environment = None
    for run in record["runs"]:
        info = run.get("info", {})
        env = info.pop("environment", None)
        environment = environment or env
        if "reps" in info:
            info["reps"] = len(info["reps"])
        info["gates"] = {name: gate["ok"] for name, gate in info.get("gates", {}).items()}
    return {"environment": environment, **record}


def dump(record: dict) -> str:
    """JSON text with one line per run, so a diff of two baselines reads run by run."""
    head = {k: v for k, v in record.items() if k != "runs"}
    runs = ",\n".join(json.dumps(run) for run in record["runs"])
    return json.dumps(head, indent=1)[:-2] + ',\n "runs": [\n' + runs + "\n ]\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,7")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None, help="write every run and the summary to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    runs = []
    for s in range(args.sets):
        for i, seed in enumerate(seeds):
            order = names if (s * len(seeds) + i) % 2 == 0 else names[::-1]
            for workload in order:
                record = run_once(workload, seed, seconds, trace=False)
                record.update(set=s, trace=False)
                runs.append(record)
                res = record.get("result")
                wall = res["metrics"]["wall_s"]["value"] if res else float("nan")
                print(f"set {s + 1} seed {seed} {workload}: wall_s {wall:.4f} correct {res and res['correct']}", flush=True)
    summary = summarize(runs, spec, args.sets)
    print_table(summary)
    if args.trace:
        for workload in names:
            record = run_once(workload, seeds[0], seconds, trace=True)
            record.update(set=0, trace=True)
            runs.append(record)
            if "result" in record:
                print_trace(record)
            else:
                print(f"\n{workload} traced run failed:\n{record['stderr']}")
    if args.out:
        record = {"seconds": seconds, "seeds": seeds, "summary": summary, "runs": runs}
        Path(args.out).write_text(dump(compact(record)))
    all_correct = all(r.get("result", {}).get("correct") for r in runs)
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
