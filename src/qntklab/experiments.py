"""Declarative experiment runner: seeded ensembles with CSV/JSON outputs.

Every experiment is described by a JSON config with a mandatory master seed;
all randomness is derived from (seed, trial index) streams, so outputs are
byte-identical across runs and worker counts.  Ensembles are cut into chunks
on a grid fixed by the problem size (``circuits.chunk_grid``), each chunk is
computed by one batched engine call, workers receive contiguous runs of whole
chunks, and results are merged in index order before any reduction.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    CircuitBatch,
    build_hardware_efficient,
    build_random_ansatz,
    chunk_grid,
    ensemble_angles,
    sample_random_circuits,
)
from .haar import mc_commutator_trace, mc_second_moment
from .kernels import Observable, ensemble_kernels, forward_adjoint, random_pauli_sum
from .linalg import PauliString, RngStream, kahan_sum, pauli_matrix, zero_state
from .theory import delta_k, gamma, kbar_exact, kbar_leading, kernel_eigenvalues
from .training import fit_decay_rate, gd_batch, squared_loss

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_ALL_DIVERGED = 3

KINDS = ("qntk-stats", "train", "train-supervised", "eigen-scan", "haar-check", "decay-fit")

# stream lanes under the master seed
_LANE_OBSERVABLE = 0
_LANE_SHARED_ANSATZ = 1
_LANE_TRIALS = 2
_LANE_LABELS = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


_COMMON_KEYS = {"kind", "seed", "threads", "out"}
_ALLOWED_KEYS = {
    "qntk-stats": _COMMON_KEYS
    | {"qubits", "layers", "samples", "observable", "resample", "exclude_identity", "ansatz"},
    "train": _COMMON_KEYS
    | {
        "qubits",
        "layers",
        "eta",
        "steps",
        "trials",
        "observable",
        "resample",
        "exclude_identity",
        "ansatz",
        "burn_in",
        "floor",
    },
    "train-supervised": _COMMON_KEYS
    | {
        "qubits",
        "layers",
        "eta",
        "steps",
        "trials",
        "observable",
        "train_size",
        "resample",
        "exclude_identity",
        "ansatz",
        "burn_in",
        "floor",
    },
    "eigen-scan": _COMMON_KEYS
    | {"qubits", "layers", "trials", "observable", "train_sizes", "exclude_identity"},
    "haar-check": _COMMON_KEYS | {"qubits", "samples", "observable"},
    "decay-fit": _COMMON_KEYS | {"input", "burn_in", "floor"},
}

_DEFAULTS = {
    "threads": 1,
    "resample": "instance",
    "exclude_identity": True,
    "ansatz": "random-haar",
    "burn_in": 0,
    "floor": 1e-12,
}


def _fail(key: str, message: str):
    raise ConfigError(f"config key '{key}': {message}")


def _require(cfg: dict, key: str):
    """The value of ``key``, or its default; a key with neither is an error."""
    if key in cfg:
        return cfg[key]
    if key in _DEFAULTS:
        return _DEFAULTS[key]
    _fail(key, "is required")


def _as_int(key: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(key, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(key, f"must be <= {maximum}, got {value}")
    return value


def _as_ints(key: str, value, minimum: int, maximum: int | None = None) -> list[int]:
    """An integer or a non-empty list of them, as a list."""
    values = value if isinstance(value, list) else [value]
    if not values:
        _fail(key, "must be an integer or a non-empty list of them")
    return [_as_int(f"{key}[{i}]", v, minimum, maximum) for i, v in enumerate(values)]


def _as_number(key: str, value, positive: bool = False, minimum: float | None = None):
    """A finite number, returned as given (an int stays an int)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, f"must be a number, got {value!r}")
    # NaN, infinities and ints beyond the float range all fail this comparison
    if not abs(value) <= sys.float_info.max:
        _fail(key, f"must be a finite number, got {value!r}")
    if positive and value <= 0:
        _fail(key, f"must be positive, got {value}")
    if minimum is not None and value < minimum:
        _fail(key, f"must be >= {minimum}, got {value}")
    return value


def _validate_fit_keys(cfg: dict, out: dict):
    """The decay-fit keys ``burn_in`` and ``floor``, with their defaults."""
    out["burn_in"] = _as_int("burn_in", _require(cfg, "burn_in"), minimum=0)
    out["floor"] = _as_number("floor", _require(cfg, "floor"), minimum=0)


def _check_observable_width(spec: dict, qubits: int):
    """Pauli strings of a fixed observable must act on exactly ``qubits`` qubits."""
    if spec["kind"] == "pauli-sum":
        width = len(spec["terms"][0][1])
        if width != qubits:
            _fail("observable", f"Pauli strings act on {width} qubits, but the circuits have {qubits}")


def _validate_observable(spec, key="observable") -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        _fail(key, "must be an object with a 'kind' field")
    kind = spec["kind"]
    normalized = dict(spec)
    if kind == "pauli-sum":
        allowed = {"kind", "terms", "target"}
        terms = spec.get("terms")
        if not isinstance(terms, list) or not terms:
            _fail(f"{key}.terms", "must be a non-empty list of [coefficient, letters] pairs")
        for i, term in enumerate(terms):
            if not isinstance(term, list) or len(term) != 2 or not isinstance(term[1], str):
                _fail(f"{key}.terms[{i}]", "must be a [coefficient, letters] pair")
            _as_number(f"{key}.terms[{i}]", term[0])
            try:
                PauliString(term[1])
            except ValueError as exc:
                _fail(f"{key}.terms[{i}]", str(exc))
        lengths = {len(t[1]) for t in terms}
        if len(lengths) != 1:
            _fail(f"{key}.terms", "all Pauli strings must act on the same qubit count")
    elif kind == "random-pauli-sum":
        allowed = {"kind", "num_terms", "coeff_low", "coeff_high", "target"}
        normalized["num_terms"] = _as_int(f"{key}.num_terms", spec.get("num_terms", 10), minimum=1)
        low = float(_as_number(f"{key}.coeff_low", spec.get("coeff_low", 0.0)))
        high = float(_as_number(f"{key}.coeff_high", spec.get("coeff_high", 1.0)))
        if high <= low:
            _fail(f"{key}.coeff_low/coeff_high", "must be numbers with coeff_high > coeff_low")
        normalized["coeff_low"], normalized["coeff_high"] = low, high
    else:
        _fail(f"{key}.kind", f"must be 'pauli-sum' or 'random-pauli-sum', got {kind!r}")
    unknown = set(spec) - allowed
    if unknown:
        _fail(f"{key}.{sorted(unknown)[0]}", "unknown key")
    normalized["target"] = float(_as_number(f"{key}.target", spec.get("target", 0.0)))
    return normalized


def validate_config(raw: dict, kind: str | None = None) -> dict:
    """Normalize and validate a raw config dict; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(raw)
    if kind is not None:
        if "kind" in cfg and cfg["kind"] != kind:
            _fail("kind", f"is {cfg['kind']!r} but the subcommand requested {kind!r}")
        cfg["kind"] = kind
    if cfg.get("kind") not in KINDS:
        _fail("kind", f"must be one of {KINDS}")
    kind = cfg["kind"]
    unknown = set(cfg) - _ALLOWED_KEYS[kind]
    if unknown:
        _fail(sorted(unknown)[0], f"unknown key for kind '{kind}'")
    out = {"kind": kind, "seed": _as_int("seed", _require(cfg, "seed"), minimum=0)}
    out["threads"] = _as_int("threads", _require(cfg, "threads"), minimum=1)
    if "out" in cfg:
        if not isinstance(cfg["out"], str):
            _fail("out", "must be a path string")
        out["out"] = cfg["out"]

    if kind == "decay-fit":
        path = _require(cfg, "input")
        if not isinstance(path, str):
            _fail("input", "must be a path string")
        out["input"] = path
        _validate_fit_keys(cfg, out)
        return out

    if kind == "haar-check":
        out["qubits"] = _as_ints("qubits", _require(cfg, "qubits"), minimum=1)
        out["samples"] = _as_int("samples", _require(cfg, "samples"), minimum=1)
        out["observable"] = _validate_observable(
            cfg.get("observable", {"kind": "random-pauli-sum", "num_terms": 10})
        )
        # one observable serves every qubit count: it is realized on the
        # largest and truncated to its leading letters for the smaller ones
        _check_observable_width(out["observable"], max(out["qubits"]))
        return out

    out["qubits"] = _as_int("qubits", _require(cfg, "qubits"), minimum=1)
    out["observable"] = _validate_observable(_require(cfg, "observable"))
    _check_observable_width(out["observable"], out["qubits"])

    if kind == "qntk-stats":
        out["layers"] = _as_ints("layers", _require(cfg, "layers"), minimum=0)
        out["samples"] = _as_int("samples", _require(cfg, "samples"), minimum=1)
    else:
        out["layers"] = _as_int("layers", _require(cfg, "layers"), minimum=0)

    if kind in ("train", "train-supervised"):
        out["eta"] = float(_as_number("eta", _require(cfg, "eta"), positive=True))
        out["steps"] = _as_int("steps", _require(cfg, "steps"), minimum=1)
        out["trials"] = _as_int("trials", _require(cfg, "trials"), minimum=1)
        _validate_fit_keys(cfg, out)
    if kind == "train-supervised":
        out["train_size"] = _as_int("train_size", _require(cfg, "train_size"), minimum=1)
        if out["train_size"] > (1 << out["qubits"]):
            _fail("train_size", "exceeds the Hilbert dimension (basis features are orthogonal)")
    if kind == "eigen-scan":
        out["trials"] = _as_int("trials", _require(cfg, "trials"), minimum=1)
        out["train_sizes"] = _as_ints("train_sizes", _require(cfg, "train_sizes"), 2, 1 << out["qubits"])

    if kind in ("qntk-stats", "train", "train-supervised"):
        resample = _require(cfg, "resample")
        if resample not in ("instance", "angle"):
            _fail("resample", "must be 'instance' or 'angle'")
        out["resample"] = resample
        ansatz = _require(cfg, "ansatz")
        if ansatz not in ("random-haar", "hardware-efficient-cphase", "hardware-efficient-cnot"):
            _fail("ansatz", f"unknown ansatz family {ansatz!r}")
        out["ansatz"] = ansatz
    if kind != "haar-check":
        out["exclude_identity"] = _require(cfg, "exclude_identity")
        if not isinstance(out["exclude_identity"], bool):
            _fail("exclude_identity", "must be a boolean")
    return out


def load_config(path: str | Path, kind: str | None = None) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return validate_config(raw, kind=kind)


def experiment_identity(cfg: dict) -> dict:
    """The experiment-defining subset of a config.

    Output path and worker count are execution parameters: they must not
    change a single output byte, so they are excluded from the identity and
    from the hash embedded in every output file.
    """
    return {k: v for k, v in cfg.items() if k not in ("out", "threads")}


def config_hash(cfg: dict) -> str:
    canon = json.dumps(experiment_identity(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def realize_observable(cfg: dict) -> Observable:
    spec = cfg["observable"]
    if spec["kind"] == "pauli-sum":
        terms = tuple((float(c), PauliString(s)) for c, s in spec["terms"])
        return Observable(terms, target=spec["target"])
    n = cfg["qubits"] if isinstance(cfg["qubits"], int) else max(cfg["qubits"])
    return random_pauli_sum(
        n,
        spec["num_terms"],
        RngStream(cfg["seed"], (_LANE_OBSERVABLE,)),
        coeff_low=spec["coeff_low"],
        coeff_high=spec["coeff_high"],
        target=spec["target"],
    )


def _build_ansatz(cfg: dict, n: int, layers: int, rng: RngStream):
    family = cfg.get("ansatz", "random-haar")
    if family == "random-haar":
        return build_random_ansatz(n, layers, rng, exclude_identity=cfg["exclude_identity"])
    variant = "cphase-ladder" if family.endswith("cphase") else "cnot-su2"
    return build_hardware_efficient(n, layers, variant, rng)


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows, cfg_digest: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config_sha256={cfg_digest} tool_version={__version__}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def _map_chunks(worker, payload: dict, grid: list[tuple[int, int]], threads: int) -> list:
    """Concatenate worker(payload, lo, hi) over the chunks of ``grid``, in index order.

    The grid depends on the problem size only.  With threads > 1 each process
    takes a contiguous run of whole chunks and receives the payload once, so
    every chunk is computed with the same companions, and the output bytes do
    not depend on the worker count.
    """
    if threads <= 1 or len(grid) <= 1:
        return _run_chunks(worker, payload, grid)
    per = -(-len(grid) // threads)
    runs = [grid[i : i + per] for i in range(0, len(grid), per)]
    results = []
    with ProcessPoolExecutor(max_workers=len(runs)) as pool:
        futures = [pool.submit(_run_chunks, worker, payload, run) for run in runs]
        for fut in futures:
            results.extend(fut.result())
    return results


def _run_chunks(worker, payload, grid):
    return [value for lo, hi in grid for value in worker(payload, lo, hi)]


def _circuit_batch(cfg: dict, layers: int, streams, shared: RngStream) -> CircuitBatch:
    """The circuits of one ensemble chunk: one per stream, or the shared one in angle mode."""
    n = cfg["qubits"]
    if cfg["resample"] == "angle":
        return _build_ansatz(cfg, n, layers, shared).batch(len(streams))
    if cfg["ansatz"] == "random-haar":
        return sample_random_circuits(n, layers, streams, exclude_identity=cfg["exclude_identity"])
    return CircuitBatch.from_specs([_build_ansatz(cfg, n, layers, s) for s in streams])


# ---------------------------------------------------------------------------
# qntk-stats


def _qntk_chunk(payload: dict, lo: int, hi: int) -> list[float]:
    cfg = payload["cfg"]
    li = payload["layer_index"]
    streams = [RngStream(cfg["seed"], (_LANE_TRIALS, li, k)) for k in range(lo, hi)]
    shared = RngStream(cfg["seed"], (_LANE_SHARED_ANSATZ, li))
    batch = _circuit_batch(cfg, payload["layers"], streams, shared)
    obs = payload["observable"]
    return list(ensemble_kernels(batch, streams, obs.matrix, zero_state(cfg["qubits"])))


def run_qntk_stats(cfg: dict, out_dir: Path) -> int:
    digest = config_hash(cfg)
    obs = realize_observable(cfg)
    n = cfg["qubits"]
    dim = 1 << n
    tr_o = obs.trace_power(1)
    tr_o2 = obs.trace_power(2)
    tr_o4 = obs.trace_power(4)
    summary_rows = []
    for li, layers in enumerate(cfg["layers"]):
        payload = {"cfg": cfg, "layers": layers, "layer_index": li, "observable": obs}
        grid = chunk_grid(cfg["samples"], dim, layers)
        values = _map_chunks(_qntk_chunk, payload, grid, cfg["threads"])
        values = np.asarray(values)
        mean = kahan_sum(values) / len(values)
        std = float(np.sqrt(kahan_sum((values - mean) ** 2) / (len(values) - 1))) if len(values) > 1 else 0.0
        k_exact = kbar_exact(dim, layers, tr_o2, tr_o)
        k_lead = kbar_leading(dim, layers, tr_o2)
        dk = delta_k(dim, layers, tr_o2, tr_o4)
        summary_rows.append(
            [
                layers,
                mean,
                std,
                k_exact,
                k_lead,
                dk,
                std / mean if mean != 0 else 0.0,
                dk / k_exact if k_exact != 0 else 0.0,
            ]
        )
        write_csv(
            out_dir / "trials" / f"trial_{li}.csv",
            ["sample", "kernel"],
            [[s, v] for s, v in enumerate(values)],
            digest,
        )
    write_csv(
        out_dir / "summary.csv",
        [
            "layers",
            "kernel_mean",
            "kernel_std",
            "kbar_exact",
            "kbar_leading",
            "delta_k_pred",
            "ratio_empirical",
            "ratio_theory",
        ],
        summary_rows,
        digest,
    )
    write_json(out_dir / "observable.json", obs.as_dict())
    report = {"kind": cfg["kind"], "config_sha256": digest, "rows": len(summary_rows)}
    if len(cfg["layers"]) >= 2 and all(v > 0 for v in cfg["layers"]):
        logl = np.log(cfg["layers"])
        emp = np.array([r[6] for r in summary_rows])
        if np.all(emp > 0):
            report["ratio_slope_empirical"] = float(np.polyfit(logl, np.log(emp), 1)[0])
        theo = np.array([r[7] for r in summary_rows])
        if np.all(theo > 0):
            report["ratio_slope_theory"] = float(np.polyfit(logl, np.log(theo), 1)[0])
    write_json(out_dir / "report.json", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _descent_chunk(payload: dict, lo: int, hi: int) -> list[dict]:
    """Gradient descent of the trials [lo, hi) of ``train`` or ``train-supervised`` in one batch.

    Every trial's circuit serves one row per training point (the payload's
    ``features``), all trained toward the payload's ``target``.
    """
    cfg = payload["cfg"]
    streams = [RngStream(cfg["seed"], (_LANE_TRIALS, k)) for k in range(lo, hi)]
    shared = RngStream(cfg["seed"], (_LANE_SHARED_ANSATZ,))
    batch = _circuit_batch(cfg, cfg["layers"], streams, shared)
    theta0 = ensemble_angles(batch.num_layers, streams).T
    psi0 = np.tile(payload["features"], (len(streams), 1))
    residuals, kernels, _, diverged = gd_batch(
        batch, payload["observable"].matrix, payload["target"], psi0, theta0, cfg["eta"], cfg["steps"]
    )
    return [
        {"diverged": True, "message": diverged[s]}
        if s in diverged
        else {"diverged": False, "residuals": residuals[s], "kernels": kernels[s]}
        for s in range(len(streams))
    ]


def run_train(cfg: dict, out_dir: Path) -> int:
    digest = config_hash(cfg)
    obs = realize_observable(cfg)
    dim = 1 << cfg["qubits"]
    features = zero_state(cfg["qubits"])[None]
    payload = {"cfg": cfg, "observable": obs, "features": features, "target": obs.target}
    grid = chunk_grid(cfg["trials"], dim, cfg["layers"])
    results = _map_chunks(_descent_chunk, payload, grid, cfg["threads"])
    diverged = [k for k, r in enumerate(results) if r["diverged"]]
    live = [r for r in results if not r["diverged"]]
    for k, res in enumerate(results):
        if res["diverged"]:
            continue
        res["errors"] = res["residuals"][:, 0]
        try:
            fit = fit_decay_rate(res["errors"], burn_in=cfg["burn_in"], floor=cfg["floor"])
        except ValueError:
            fit = float("nan"), float("nan")
        res["gamma"], res["r_squared"] = fit
        write_csv(
            out_dir / "trials" / f"trial_{k}.csv",
            ["step", "residual", "kernel"],
            [[t, e, kv] for t, (e, kv) in enumerate(zip(res["errors"], res["kernels"]))],
            digest,
        )
    rate_pred = gamma(dim, cfg["layers"], obs.trace_power(2), obs.trace_power(1), cfg["eta"])
    summary_rows = []
    if live:
        log_abs = np.stack([np.log(np.maximum(np.abs(r["errors"]), 1e-300)) for r in live])
        abs_err = np.stack([np.abs(r["errors"]) for r in live])
        mean_log = log_abs.mean(axis=0)
        log_mean = np.log(abs_err.mean(axis=0))
        for t in range(log_abs.shape[1]):
            summary_rows.append([t, mean_log[t], log_mean[t]])
    write_csv(
        out_dir / "summary.csv",
        ["step", "mean_log_abs_residual", "log_mean_abs_residual"],
        summary_rows,
        digest,
    )
    write_json(out_dir / "observable.json", obs.as_dict())
    gammas = [r["gamma"] for r in live]
    finite = [g for g in gammas if np.isfinite(g)]
    report = {
        "kind": cfg["kind"],
        "config_sha256": digest,
        "trials": cfg["trials"],
        "diverged_trials": diverged,
        "per_trial_gamma": gammas,
        "per_trial_r_squared": [r["r_squared"] for r in live],
        "gamma_mean": float(np.mean(finite)) if finite else None,
        "gamma_theory_leading": rate_pred.leading,
        "gamma_theory_exact": rate_pred.exact,
    }
    write_json(out_dir / "report.json", report)
    return EXIT_ALL_DIVERGED if len(diverged) == cfg["trials"] else EXIT_OK


# ---------------------------------------------------------------------------
# train-supervised


def run_train_supervised(cfg: dict, out_dir: Path) -> int:
    digest = config_hash(cfg)
    obs = realize_observable(cfg)
    label_rng = RngStream(cfg["seed"], (_LANE_LABELS,))
    labels = 2.0 * label_rng.generator.integers(0, 2, size=cfg["train_size"]) - 1.0
    dim = 1 << cfg["qubits"]
    # basis features |d>, d < train_size, are orthogonal (train_size <= D is validated)
    features = np.eye(dim, dtype=complex)[: cfg["train_size"]]
    payload = {"cfg": cfg, "observable": obs, "features": features, "target": labels[:, None]}
    grid = chunk_grid(cfg["trials"], dim, cfg["layers"])
    results = _map_chunks(_descent_chunk, payload, grid, cfg["threads"])
    diverged = [k for k, r in enumerate(results) if r["diverged"]]
    live = [r for r in results if not r["diverged"]]
    for k, res in enumerate(results):
        if res["diverged"]:
            continue
        res["losses"] = squared_loss(res["residuals"])
        write_csv(
            out_dir / "trials" / f"trial_{k}.csv",
            ["step", "loss", "kernel_trace"],
            [[t, lv, kv] for t, (lv, kv) in enumerate(zip(res["losses"], res["kernels"]))],
            digest,
        )
    summary_rows = []
    if live:
        losses = np.stack([r["losses"] for r in live])
        mean_loss = losses.mean(axis=0)
        for t in range(losses.shape[1]):
            summary_rows.append([t, mean_loss[t], float(np.log(max(mean_loss[t], 1e-300)))])
    write_csv(
        out_dir / "summary.csv", ["step", "mean_loss", "log_mean_loss"], summary_rows, digest
    )
    write_json(out_dir / "observable.json", obs.as_dict())
    report = {
        "kind": cfg["kind"],
        "config_sha256": digest,
        "trials": cfg["trials"],
        "diverged_trials": diverged,
        "labels": labels.tolist(),
        "final_mean_loss": summary_rows[-1][1] if summary_rows else None,
        "initial_mean_loss": summary_rows[0][1] if summary_rows else None,
    }
    write_json(out_dir / "report.json", report)
    return EXIT_ALL_DIVERGED if len(diverged) == cfg["trials"] else EXIT_OK


# ---------------------------------------------------------------------------
# eigen-scan


def _eigen_chunk(payload: dict, lo: int, hi: int) -> list[tuple[float, np.ndarray]]:
    """Lowest eigenvalue and supervised kernel of the trials [lo, hi): one engine call.

    Each trial's circuit serves one row per basis feature |d>, d < train_size.
    """
    cfg = payload["cfg"]
    n, layers, size = cfg["qubits"], cfg["layers"], payload["train_size"]
    streams = [RngStream(cfg["seed"], (_LANE_TRIALS, payload["size_index"], k)) for k in range(lo, hi)]
    batch = sample_random_circuits(n, layers, streams, exclude_identity=cfg["exclude_identity"])
    psi0 = np.tile(np.eye(1 << n, dtype=complex)[:size], (len(streams), 1))
    _, grads = forward_adjoint(batch, ensemble_angles(layers, streams), psi0, payload["observable"].matrix)
    grads = grads.reshape(len(streams), size, layers)
    kernels = grads @ grads.swapaxes(1, 2)
    return list(zip(np.linalg.eigvalsh(kernels)[:, 0], kernels))


def run_eigen_scan(cfg: dict, out_dir: Path) -> int:
    digest = config_hash(cfg)
    obs = realize_observable(cfg)
    dim = 1 << cfg["qubits"]
    tr_o = obs.trace_power(1)
    tr_o2 = obs.trace_power(2)
    summary_rows = []
    for si, size in enumerate(cfg["train_sizes"]):
        payload = {"cfg": cfg, "observable": obs, "train_size": size, "size_index": si}
        grid = chunk_grid(cfg["trials"], dim, cfg["layers"])
        results = _map_chunks(_eigen_chunk, payload, grid, cfg["threads"])
        lowest_each = np.array([r[0] for r in results])
        mean_kernel = np.mean([r[1] for r in results], axis=0)
        spectrum = kernel_eigenvalues(dim, cfg["layers"], size, tr_o2, tr_o)
        lowest_of_mean = float(np.linalg.eigvalsh(mean_kernel)[0])
        summary_rows.append(
            [
                size,
                lowest_of_mean,
                float(lowest_each.mean()),
                spectrum.lowest,
                spectrum.bulk,
            ]
        )
        write_csv(
            out_dir / "trials" / f"trial_{si}.csv",
            ["trial", "lowest_eigenvalue"],
            [[k, v] for k, v in enumerate(lowest_each)],
            digest,
        )
    write_csv(
        out_dir / "summary.csv",
        [
            "train_size",
            "lowest_of_mean_kernel",
            "mean_of_lowest",
            "lowest_theory",
            "bulk_theory",
        ],
        summary_rows,
        digest,
    )
    write_json(out_dir / "observable.json", obs.as_dict())
    write_json(
        out_dir / "report.json",
        {"kind": cfg["kind"], "config_sha256": digest, "rows": len(summary_rows)},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# haar-check


def run_haar_check(cfg: dict, out_dir: Path) -> int:
    digest = config_hash(cfg)
    obs = realize_observable(cfg)
    checks = []
    for qi, n in enumerate(cfg["qubits"]):
        dim = 1 << n
        rng = RngStream(cfg["seed"], (_LANE_TRIALS, qi))
        obs_n = obs if obs.num_qubits == n else _restrict_observable(obs, n)
        obs_mat = np.asarray(obs_n.matrix)
        traceless = obs_mat - (np.trace(obs_mat) / dim) * np.eye(dim)
        psi = zero_state(n)
        second = mc_second_moment(dim, psi, traceless, cfg["samples"], rng.substream(0))
        checks.append({"name": f"second-moment-D{dim}", **second.as_dict()})
        x_mat = pauli_matrix(_first_nonidentity_pauli(n))
        comm = mc_commutator_trace(dim, x_mat, obs_mat, cfg["samples"], rng.substream(1))
        checks.append({"name": f"commutator-trace-D{dim}", **comm.as_dict()})
    all_pass = all(c["pass"] for c in checks)
    write_json(
        out_dir / "report.json",
        {
            "kind": cfg["kind"],
            "config_sha256": digest,
            "samples": cfg["samples"],
            "checks": checks,
            "all_pass": all_pass,
        },
    )
    write_csv(
        out_dir / "summary.csv",
        ["name", "mean", "std_error", "target", "z_score", "pass"],
        [[c["name"], c["mean"], c["std_error"], c["target"], c["z_score"], c["pass"]] for c in checks],
        digest,
    )
    write_json(out_dir / "observable.json", obs.as_dict())
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _first_nonidentity_pauli(n: int) -> PauliString:
    return PauliString("Z" + "I" * (n - 1))


def _restrict_observable(obs: Observable, n: int) -> Observable:
    """Observable on the first n of its qubits (haar-check across dims)."""
    terms = tuple((coef, PauliString(pauli.letters[:n])) for coef, pauli in obs.terms)
    return Observable(terms, target=obs.target)


# ---------------------------------------------------------------------------
# decay-fit


def run_decay_fit(cfg: dict, out_dir: Path) -> int:
    digest = config_hash(cfg)
    source = Path(cfg["input"])
    if source.is_dir():
        files = sorted(source.glob("trial_*.csv"))
    elif source.is_file():
        files = [source]
    else:
        raise ConfigError(f"config key 'input': path does not exist: {source}")
    if not files:
        raise ConfigError(f"config key 'input': no trial_*.csv files under {source}")
    rows = []
    fits = []
    for path in files:
        series = _read_residual_column(path)
        try:
            rate, r2 = fit_decay_rate(series, burn_in=cfg["burn_in"], floor=cfg["floor"])
        except ValueError as exc:
            rows.append([path.name, float("nan"), float("nan")])
            fits.append({"file": path.name, "error": str(exc)})
            continue
        rows.append([path.name, rate, r2])
        fits.append({"file": path.name, "gamma": rate, "r_squared": r2})
    write_csv(out_dir / "summary.csv", ["file", "gamma", "r_squared"], rows, digest)
    finite = [f["gamma"] for f in fits if "gamma" in f]
    write_json(
        out_dir / "report.json",
        {
            "kind": cfg["kind"],
            "config_sha256": digest,
            "fits": fits,
            "gamma_mean": float(np.mean(finite)) if finite else None,
        },
    )
    return EXIT_OK


def _read_residual_column(path: Path) -> np.ndarray:
    """The ``residual`` (else ``loss``, else second) column of a trial CSV.

    A file without a header line, or a row without a number in that column,
    is a config error naming the file and the line.
    """
    lines = [
        (number, line)
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if line and not line.startswith("#")
    ]
    if not lines:
        raise ConfigError(f"config key 'input': {path}: no header line")
    header = lines[0][1].split(",")
    col = next((header.index(name) for name in ("residual", "loss") if name in header), 1)
    values = []
    for number, line in lines[1:]:
        try:
            values.append(float(line.split(",")[col]))
        except (IndexError, ValueError):
            raise ConfigError(
                f"config key 'input': {path} line {number}: no number in column {col + 1}"
            ) from None
    return np.array(values)


# ---------------------------------------------------------------------------
# dispatch


def run_experiment(cfg: dict, out_dir: str | Path) -> int:
    """Run a validated config, writing outputs under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.echo.json", experiment_identity(cfg))
    runner = {
        "qntk-stats": run_qntk_stats,
        "train": run_train,
        "train-supervised": run_train_supervised,
        "eigen-scan": run_eigen_scan,
        "haar-check": run_haar_check,
        "decay-fit": run_decay_fit,
    }[cfg["kind"]]
    return runner(cfg, out_dir)


__all__ = [
    "ConfigError",
    "EXIT_ALL_DIVERGED",
    "EXIT_CHECK_FAILED",
    "EXIT_CONFIG",
    "EXIT_OK",
    "KINDS",
    "config_hash",
    "experiment_identity",
    "load_config",
    "realize_observable",
    "run_experiment",
    "validate_config",
    "write_csv",
    "write_json",
]
