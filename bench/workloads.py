"""The benchmark's workloads: qntklab CLI configs, item counts and correctness gates.

Each gate checks one CLI run's output directory against oracles that do not
call the code under test and do not read the run's own theory columns: the
closed-form kernel average is recomputed here from the Pauli terms in
``observable.json``, and the config hash is recomputed from
``config.echo.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

_OBSERVABLE = {"kind": "random-pauli-sum", "num_terms": 10}

# Why each workload exists is recorded in bench/README.md and BENCHMARK.json.
WORKLOADS = {
    "ensemble-n2": {
        "kind": "qntk-stats",
        "qubits": 2,
        "layers": [16, 64],
        "samples": 320,
        "resample": "instance",
        "observable": _OBSERVABLE,
    },
    "train-n2": {
        "kind": "train",
        "qubits": 2,
        "layers": 64,
        "eta": 1e-4,
        "steps": 1000,
        "trials": 2,
        "resample": "instance",
        "observable": _OBSERVABLE,
    },
    "haar-n8": {
        "kind": "qntk-stats",
        "qubits": 8,
        "layers": [16],
        "samples": 12,
        "resample": "instance",
        "observable": _OBSERVABLE,
    },
    "hea-n9": {
        "kind": "qntk-stats",
        "qubits": 9,
        "layers": [1],
        "samples": 4,
        "ansatz": "hardware-efficient-cnot",
        "observable": _OBSERVABLE,
    },
}

# Band on |kernel_mean - kbar| in the run's own standard errors.  With a
# dozen samples (haar-n8) the statistic is skewed and heavy-tailed: at 10
# samples, seeds 0-29 gave |z| up to 3.2.  A 10-standard-error shift still fails.
Z_BAND = 6.0
# Summary statistics must match a recomputation from the trial CSVs.
MEAN_RTOL = 1e-9


def config(name: str, seed: int) -> dict:
    """The CLI config of a workload under master seed ``seed``."""
    return {**WORKLOADS[name], "seed": int(seed), "threads": 1}


def items(cfg: dict) -> int:
    """Ensemble items per run: kernel samples, or residual-plus-gradient evaluations."""
    if cfg["kind"] == "train":
        return cfg["trials"] * (cfg["steps"] + 1)
    return cfg["samples"] * len(cfg["layers"])


@dataclass
class Verdict:
    """Outcome of the gates on one run: items attempted and failed, gate results."""

    attempted: int
    failed: int = 0
    gates: list = field(default_factory=list)  # (name, ok, detail)
    notes: dict = field(default_factory=dict)  # reported, not gated

    def gate(self, name: str, ok: bool, detail="") -> bool:
        self.gates.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.gates)

    def seal(self) -> "Verdict":
        """A failed gate counts every item of the run as failed."""
        if not all(ok for _, ok, _ in self.gates):
            self.failed = self.attempted
        return self


# ---------------------------------------------------------------------------
# oracles


def pauli_trace_powers(terms, dim: int) -> tuple[float, float]:
    """Tr O and Tr O^2 of a Pauli sum, from Tr(P Q) = D [P == Q]."""
    grouped: dict[str, float] = {}
    for coef, letters in terms:
        grouped[letters] = grouped.get(letters, 0.0) + float(coef)
    tr1 = dim * grouped.get("I" * (dim.bit_length() - 1), 0.0)
    tr2 = dim * math.fsum(c * c for c in grouped.values())
    return tr1, tr2


def kbar_two_design(dim: int, layers: int, tr1: float, tr2: float) -> float:
    """Average QNTK over circuits whose fixed layers form a unitary 2-design.

    Involutory Pauli generators (Tr X^2 = D) and Tr O, Tr O^2 of the observable.
    """
    return 2.0 * layers * dim * (dim * tr2 - tr1**2) / ((dim**2 + dim) * (dim**2 - 1))


def read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    """Config hash from the comment line, the header, and the data rows."""
    lines = path.read_text().splitlines()
    comment = lines[0]
    digest = comment.split("config_sha256=")[1].split()[0] if "config_sha256=" in comment else ""
    return digest, lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def tree_digest(out_dir: Path) -> str:
    """Hash of every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _subset(want, have) -> bool:
    if isinstance(want, dict):
        return isinstance(have, dict) and all(k in have and _subset(v, have[k]) for k, v in want.items())
    return want == have


# ---------------------------------------------------------------------------
# gates


def check(cfg: dict, out_dir: Path, exit_code: int) -> Verdict:
    """Gate one CLI run of ``cfg`` whose outputs are under ``out_dir``."""
    verdict = Verdict(items(cfg))
    if verdict.gate("exit_code", exit_code == 0, exit_code):
        try:
            _check_outputs(cfg, out_dir, verdict)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            verdict.gate("outputs_readable", False, repr(exc))
    return verdict.seal()


def _check_outputs(cfg: dict, out_dir: Path, verdict: Verdict):
    trials = len(cfg["layers"]) if cfg["kind"] == "qntk-stats" else cfg["trials"]
    expected = ["config.echo.json", "observable.json", "report.json", "summary.csv"]
    expected += [f"trials/trial_{k}.csv" for k in range(trials)]
    missing = [name for name in expected if not (out_dir / name).is_file()]
    if not verdict.gate("files", not missing, missing):
        return

    echo = json.loads((out_dir / "config.echo.json").read_text())
    canon = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    identity = {k: v for k, v in cfg.items() if k != "threads"}
    report = json.loads((out_dir / "report.json").read_text())
    csv_hashes = {read_csv(out_dir / name)[0] for name in expected if name.endswith(".csv")}
    verdict.gate("config_echo", _subset(identity, echo))
    verdict.gate(
        "config_hash", csv_hashes == {digest} and report.get("config_sha256") == digest, digest
    )

    obs = json.loads((out_dir / "observable.json").read_text())
    dim = 1 << cfg["qubits"]
    tr1, tr2 = pauli_trace_powers(obs["terms"], dim)
    if cfg["kind"] == "train":
        _check_train(cfg, out_dir, report, verdict, kbar_two_design(dim, cfg["layers"], tr1, tr2))
    else:
        _check_qntk_stats(cfg, out_dir, verdict, dim, tr1, tr2)


def _check_qntk_stats(cfg, out_dir: Path, verdict: Verdict, dim: int, tr1: float, tr2: float):
    _, header, rows = read_csv(out_dir / "summary.csv")
    col = {name: i for i, name in enumerate(header)}
    verdict.gate("summary_rows", [int(r[col["layers"]]) for r in rows] == cfg["layers"])
    z_scores = []
    for li, layers in enumerate(cfg["layers"]):
        _, _, trial_rows = read_csv(out_dir / "trials" / f"trial_{li}.csv")
        values = [float(r[1]) for r in trial_rows]
        verdict.failed += sum(1 for v in values if not (math.isfinite(v) and v >= 0.0))
        verdict.gate(f"samples[{layers}]", len(values) == cfg["samples"], len(values))
        mean = float(rows[li][col["kernel_mean"]])
        std = float(rows[li][col["kernel_std"]])
        recomputed = math.fsum(values) / len(values)
        verdict.gate(
            f"mean_matches_trials[{layers}]",
            abs(mean - recomputed) <= MEAN_RTOL * max(1.0, abs(mean)),
            (mean, recomputed),
        )
        if cfg.get("ansatz", "random-haar") == "random-haar":
            z = (mean - kbar_two_design(dim, layers, tr1, tr2)) / (std / math.sqrt(len(values)))
            z_scores.append(z)
            verdict.gate(f"z_kbar[{layers}]", abs(z) <= Z_BAND, z)
        else:
            # a hardware-efficient circuit is no 2-design: no closed form applies
            verdict.gate(
                f"finite_nonnegative[{layers}]",
                all(math.isfinite(v) and v >= 0.0 for v in values),
            )
    if z_scores:
        verdict.notes["z_kbar"] = z_scores


def _check_train(cfg, out_dir: Path, report: dict, verdict: Verdict, kbar: float):
    per_trial = cfg["steps"] + 1
    verdict.gate("no_divergence", report.get("diverged_trials") == [], report.get("diverged_trials"))
    gammas = report.get("per_trial_gamma") or []
    fits_ok = [isinstance(g, (int, float)) and math.isfinite(g) for g in gammas]
    verdict.gate("fits_finite", len(gammas) == cfg["trials"] and all(fits_ok), gammas)
    shrunk = []
    for k in range(cfg["trials"]):
        _, _, rows = read_csv(out_dir / "trials" / f"trial_{k}.csv")
        values = [(float(r[1]), float(r[2])) for r in rows]
        finite = len(values) == per_trial and all(math.isfinite(e) and math.isfinite(kv) for e, kv in values)
        fit_ok = k < len(fits_ok) and fits_ok[k]
        if not (finite and fit_ok):
            verdict.failed += per_trial
        shrunk.append(finite and abs(values[-1][0]) < abs(values[0][0]))
    verdict.gate("residual_shrank", all(shrunk), shrunk)
    if all(fits_ok) and gammas:
        verdict.notes["gamma_over_eta_kbar"] = math.fsum(gammas) / len(gammas) / (cfg["eta"] * kbar)
