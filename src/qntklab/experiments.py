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
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    CircuitBatch,
    chunk_grid,
    ensemble_angles,
    sample_hardware_efficient,
    sample_random_circuits,
)
from .haar import mc_commutator_trace, mc_second_moment
from .kernels import LAZY_ENTRY_BYTES, Observable, ensemble_kernels, haar_instance_kernels, random_pauli_sum
from .kernels import supervised_kernels
from .linalg import STACK_BYTES, RngStream, kahan_sum, letters_code, stream_block, zero_state
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

# Largest arrays a config may call for, counted before anything is
# allocated: the dense matrices of one circuit (:func:`_dense_matrices`), the
# observable's tables and the arrays the engine keeps for one circuit
# (:func:`_engine_entry_bytes`), and what the run keeps until it writes it
# (:func:`_check_record_bytes`).
DENSE_BYTES_LIMIT = 2 << 30

# Matrices the dense Haar sampler holds besides the layers it has drawn: one
# matrix's Ginibre parts, the QR's working copy, Q and R (at D >= 128 it draws
# one matrix at a time; the unitarity check of the stack holds fewer).
_SAMPLER_MATRICES = 4

# Dense matrices haar-check holds: the observable, its traceless copy and Z x I x ... x I
_HAAR_CHECK_MATRICES = 3

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


# Peak bytes a run holds per CSV row until its file is written: the row's
# values, and its text as a line, in the joined file and encoded.  tracemalloc
# of whole runs gave 145 per qntk-stats sample and 207 per train step.
_ROW_BYTES = 256


def _gib(estimate: int) -> float:
    # Python ints of any size; only the message needs a float, and past 2^200 bytes it reads inf
    return estimate / 2**30 if estimate.bit_length() <= 200 else float("inf")


def _check_dense_bytes(key: str, qubits: int, dense_matrices: int = 0, entry_bytes: int = 0) -> int:
    """Refuse a config whose arrays would exceed DENSE_BYTES_LIMIT; else return their bytes.

    Counts ``dense_matrices`` dense (D, D) matrices, plus ``entry_bytes`` per
    basis state: the observable's tables and the engine's arrays, which grow
    with D, not D^2.  Past a few hundred qubits the estimate is infinite in
    the message anyway, so the width is capped there to keep the integer
    shifts small.
    """
    width = min(qubits, 512)
    estimate = dense_matrices * (16 << (2 * width)) + (entry_bytes << width)
    if estimate > DENSE_BYTES_LIMIT:
        _fail(
            key,
            f"needs about {_gib(estimate):.1f} GiB ({dense_matrices} dense matrices of fixed layers, sampling "
            "or haar-check's operators, and the observable's tables and "
            f"the engine's arrays of one circuit at {qubits} qubits); "
            f"the limit is {DENSE_BYTES_LIMIT / 2**30:g} GiB",
        )
    return estimate


def _check_record_bytes(cfg: dict, dense: int):
    """Refuse a config whose run would keep, with its ``dense`` bytes of arrays, more than DENSE_BYTES_LIMIT.

    What a run keeps until it writes it: ``qntk-stats`` holds a CSV row per
    sample of one depth, and ``haar-check`` 3 floats per sample of one width.
    ``train`` and ``train-supervised`` keep every live trial's residuals and
    kernel trace (8 bytes per step and training point, 8 per step) and stack
    them for the summary (24 per step), and hold one trial's rows at a time.
    ``eigen-scan`` holds every trial's P x P kernel twice (the results and
    the stack their mean is taken over) and a row per trial.
    """
    kind = cfg["kind"]
    if kind == "qntk-stats":
        key, records = "samples", cfg["samples"] * _ROW_BYTES
    elif kind == "haar-check":
        key, records = "samples", cfg["samples"] * 24
    elif kind == "eigen-scan":
        key, records = "trials", cfg["trials"] * (16 * max(cfg["train_sizes"]) ** 2 + _ROW_BYTES)
    else:
        per_trial = 32 + 8 * cfg.get("train_size", 1)
        key, records = "steps/trials", (cfg["steps"] + 1) * (cfg["trials"] * per_trial + _ROW_BYTES)
    if dense + records > DENSE_BYTES_LIMIT:
        _fail(
            key,
            f"needs about {_gib(dense + records):.1f} GiB, {_gib(records):.1f} GiB of it for the values, "
            f"rows and CSV text the run keeps; the limit is {DENSE_BYTES_LIMIT / 2**30:g} GiB",
        )


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
                letters_code(term[1])
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
        n = max(out["qubits"])
        _check_observable_width(out["observable"], n)
        dense = _check_dense_bytes("qubits", n, _HAAR_CHECK_MATRICES, _observable_entry_bytes(out["observable"], n, 0))
        _check_record_bytes(out, dense)
        return out

    out["qubits"] = _as_int("qubits", _require(cfg, "qubits"), minimum=1)
    out["observable"] = _validate_observable(_require(cfg, "observable"))
    # the observable's tables alone, before any later check shifts by the width
    _check_dense_bytes("qubits", out["qubits"], entry_bytes=_observable_entry_bytes(out["observable"], out["qubits"], 0))
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
        if ansatz != "random-haar":
            # the hardware-efficient builders need an entangler and at least one block
            _as_int("qubits", out["qubits"], minimum=2)
            (_as_ints if isinstance(out["layers"], list) else _as_int)("layers", out["layers"], minimum=1)
    if kind != "haar-check":
        out["exclude_identity"] = _require(cfg, "exclude_identity")
        if not isinstance(out["exclude_identity"], bool):
            _fail("exclude_identity", "must be a boolean")
    dense = _check_dense_bytes("qubits/layers", out["qubits"], _dense_matrices(out), _engine_entry_bytes(out))
    _check_record_bytes(out, dense)
    return out


def _dense_matrices(cfg: dict) -> int:
    """Dense (D, D) matrices one circuit of a validated config needs.

    A random-Haar circuit on the dense sampler holds its L Haar layers and
    the sampler's temporaries; lazily drawn Haar layers need none, and the
    hardware-efficient families' fixed layers are identities and one
    permutation.
    """
    if cfg.get("ansatz", "random-haar") != "random-haar" or _lazy_haar(cfg):
        return 0
    return _rotation_layers(cfg) + _SAMPLER_MATRICES


def _rotation_layers(cfg: dict, depth: int | None = None) -> int:
    """L at ``depth``, by default the deepest: a hardware-efficient block has 3n rotations (cnot), 2n - 1 (cphase)."""
    n, depth = cfg["qubits"], cfg["layers"] if depth is None else depth
    depth = max(depth) if isinstance(depth, list) else depth
    return depth * {"hardware-efficient-cnot": 3 * n, "hardware-efficient-cphase": 2 * n - 1}.get(cfg.get("ansatz"), 1)


def _theory_layers(cfg: dict, depth: int) -> tuple[int, float]:
    """L and ``theory.kbar_exact``'s expected ``sum_tr_x2``: each rotation adds D, an identity generator 0."""
    layers, n = _rotation_layers(cfg, depth), cfg["qubits"]
    identity = not cfg["exclude_identity"] and cfg.get("ansatz", "random-haar") == "random-haar"
    return layers, layers * (1 << n) * (1.0 - 4.0**-n if identity else 1.0)


def _engine_entry_bytes(cfg: dict) -> int:
    """Bytes per basis state that the engine holds for one circuit of a validated config.

    The per-layer loop keeps per layer the state of each row (16 bytes per
    entry; a supervised circuit has a row per training point) and the
    generator tables (24), and 64 vectors per row of temporaries.  Lazy Haar
    layers keep their normals (32 per layer), one block of layers that fits
    ``STACK_BYTES`` and one layer more, and 64 bytes per layer of codes and
    angles.  The fused path runs only on chunks whose gates fit ``STACK_BYTES``.
    Both apply the observable from its tables (:func:`_observable_entry_bytes`).
    """
    layers, n = _rotation_layers(cfg), cfg["qubits"]
    if _lazy_haar(cfg):
        block = max(1, STACK_BYTES // (LAZY_ENTRY_BYTES << n))
        lazy = 32 * layers + LAZY_ENTRY_BYTES * (min(layers, block) + 1) + (64 * layers >> n)
        return lazy + _observable_entry_bytes(cfg["observable"], n, 1)
    rows = cfg.get("train_size", max(cfg.get("train_sizes", [1])))
    return layers * (16 * rows + 24) + 64 * 16 * rows + _observable_entry_bytes(cfg["observable"], n, rows)


def _observable_entry_bytes(spec: dict, qubits: int, rows: int) -> int:
    """Bytes per basis state of an observable's tables (an index and a weight per group) and one apply over ``rows`` rows.

    There are G <= min(T, D) groups, T the number of terms; the apply gathers 16 bytes per group and row.
    """
    terms = len(spec["terms"]) if spec["kind"] == "pauli-sum" else spec["num_terms"]
    groups = min(terms, 1 << min(qubits, 64))
    return groups * (24 + 16 * rows)


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
        return Observable.from_letters(spec["terms"], spec["target"])
    n = cfg["qubits"] if isinstance(cfg["qubits"], int) else max(cfg["qubits"])
    return random_pauli_sum(
        n,
        spec["num_terms"],
        RngStream(cfg["seed"], (_LANE_OBSERVABLE,)),
        coeff_low=spec["coeff_low"],
        coeff_high=spec["coeff_high"],
        target=spec["target"],
    )


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

    The grid depends on the problem size only.  With more than one worker
    each process takes a contiguous run of whole chunks and receives the
    payload once, so every chunk is computed with the same companions, and
    the output bytes do not depend on the worker count.  The runs are at
    most ``threads``, the usable CPUs and the chunks.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, cpus, len(grid))
    if workers <= 1:
        return _run_chunks(worker, payload, grid)
    # imported here, so a single-process run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    per = -(-len(grid) // workers)
    runs = [grid[i : i + per] for i in range(0, len(grid), per)]
    results = []
    with ProcessPoolExecutor(max_workers=len(runs)) as pool:
        futures = [pool.submit(_run_chunks, worker, payload, run) for run in runs]
        for fut in futures:
            results.extend(fut.result())
    return results


def _run_chunks(worker, payload, grid):
    return [value for lo, hi in grid for value in worker(payload, lo, hi)]


def _write_trial(out_dir: Path, index: int, header: list[str], columns, digest: str):
    """``trials/trial_<index>.csv``: row i holds i, then entry i of each column."""
    write_csv(out_dir / "trials" / f"trial_{index}.csv", header, zip(range(len(columns[0])), *columns), digest)


def _shared_circuit(cfg: dict, layers: int, *address: int) -> CircuitBatch | None:
    """In ``angle`` mode the one circuit every trial shares, drawn once per run or depth; else None."""
    if cfg["resample"] != "angle":
        return None
    return _sample_circuits(cfg, layers, [RngStream(cfg["seed"], (_LANE_SHARED_ANSATZ, *address))])


def _circuit_batch(cfg: dict, layers: int, streams, shared: CircuitBatch | None) -> CircuitBatch:
    """The circuits of one ensemble chunk: one per stream, or the shared one, repeated."""
    if shared is not None:
        return shared.repeat(len(streams))
    return _sample_circuits(cfg, layers, streams)


def _sample_circuits(cfg: dict, layers: int, streams) -> CircuitBatch:
    """One circuit of the config's family per stream."""
    n, family = cfg["qubits"], cfg["ansatz"]
    if family == "random-haar":
        return sample_random_circuits(n, layers, streams, exclude_identity=cfg["exclude_identity"])
    variant = "cphase-ladder" if family.endswith("cphase") else "cnot-su2"
    return sample_hardware_efficient(n, layers, variant, streams)


def _fit(series: np.ndarray, cfg: dict) -> tuple[float, float, str | None]:
    """(gamma, r_squared, None) of ``series`` under the config's ``burn_in`` and ``floor``, or NaNs and why the fit failed."""
    try:
        return (*fit_decay_rate(series, burn_in=cfg["burn_in"], floor=cfg["floor"]), None)
    except ValueError as exc:
        return float("nan"), float("nan"), str(exc)


# ---------------------------------------------------------------------------
# qntk-stats


def _lazy_haar(cfg: dict) -> bool:
    """Whether the config is a random-Haar ``qntk-stats`` ensemble in ``instance`` mode.

    Each of its circuits is evaluated once, so its Haar layers are drawn
    lazily (``kernels.haar_instance_kernels``) and never held as matrices.
    """
    return cfg["kind"] == "qntk-stats" and cfg["resample"] == "instance" and cfg["ansatz"] == "random-haar"


def _qntk_chunk(payload: dict, lo: int, hi: int) -> list[float]:
    cfg = payload["cfg"]
    n, li, layers = cfg["qubits"], payload["layer_index"], payload["layers"]
    streams = stream_block(cfg["seed"], [(_LANE_TRIALS, li, k) for k in range(lo, hi)])
    obs = payload["observable"]
    if _lazy_haar(cfg):
        return list(haar_instance_kernels(n, layers, streams, obs, zero_state(n), cfg["exclude_identity"]))
    batch = _circuit_batch(cfg, layers, streams, payload["shared"])
    return list(ensemble_kernels(batch, streams, obs, zero_state(n)))


def run_qntk_stats(cfg: dict, obs: Observable, out_dir: Path, digest: str) -> tuple[int, dict]:
    dim = 1 << cfg["qubits"]
    tr_o, tr_o2, tr_o4 = obs.trace_power(1), obs.trace_power(2), obs.trace_power(4)
    summary_rows = []
    for li, layers in enumerate(cfg["layers"]):
        shared = _shared_circuit(cfg, layers, li)
        payload = {"cfg": cfg, "layers": layers, "layer_index": li, "observable": obs, "shared": shared}
        grid = chunk_grid(cfg["samples"], dim, layers, lazy=_lazy_haar(cfg))
        values = np.asarray(_map_chunks(_qntk_chunk, payload, grid, cfg["threads"]))
        mean = kahan_sum(values) / len(values)
        std = float(np.sqrt(kahan_sum((values - mean) ** 2) / (len(values) - 1))) if len(values) > 1 else 0.0
        rotations, sum_tr_x2 = _theory_layers(cfg, layers)
        k_exact = kbar_exact(dim, rotations, tr_o2, tr_o, sum_tr_x2)
        k_lead = kbar_leading(dim, rotations, tr_o2)
        dk = delta_k(dim, rotations, tr_o2, tr_o4)
        ratio_empirical = std / mean if mean != 0 else 0.0
        ratio_theory = dk / k_exact if k_exact != 0 else 0.0
        summary_rows.append([layers, mean, std, k_exact, k_lead, dk, ratio_empirical, ratio_theory])
        _write_trial(out_dir, li, ["sample", "kernel"], [values], digest)
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
    report = {"rows": len(summary_rows)}
    if len(cfg["layers"]) >= 2 and all(v > 0 for v in cfg["layers"]):
        logl = np.log(cfg["layers"])
        emp = np.array([r[6] for r in summary_rows])
        if np.all(emp > 0):
            report["ratio_slope_empirical"] = float(np.polyfit(logl, np.log(emp), 1)[0])
        theo = np.array([r[7] for r in summary_rows])
        if np.all(theo > 0):
            report["ratio_slope_theory"] = float(np.polyfit(logl, np.log(theo), 1)[0])
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# train and train-supervised


def _descent_chunk(payload: dict, lo: int, hi: int) -> list:
    """Gradient descent of the trials [lo, hi) of ``train`` or ``train-supervised`` in one batch.

    Every trial's circuit serves one row per training point (the payload's
    ``features``), all trained toward the payload's ``target``.  Each trial
    gives its divergence message, or its residuals and kernel traces.
    """
    cfg = payload["cfg"]
    streams = stream_block(cfg["seed"], [(_LANE_TRIALS, k) for k in range(lo, hi)])
    batch = _circuit_batch(cfg, cfg["layers"], streams, payload["shared"])
    theta0 = ensemble_angles(batch.num_layers, streams).T
    psi0 = np.tile(payload["features"], (len(streams), 1))
    residuals, kernels, _, diverged = gd_batch(
        batch, payload["observable"], payload["target"], psi0, theta0, cfg["eta"], cfg["steps"]
    )
    return [diverged[s] if s in diverged else (residuals[s], kernels[s]) for s in range(len(streams))]


def _descend(cfg: dict, obs: Observable, features: np.ndarray, target) -> tuple[list, dict, int]:
    """Gradient descent of every trial, on the chunk grid.

    Returns the live trials as (index, residuals, kernel traces), the
    report's divergence fields, and EXIT_ALL_DIVERGED if no trial is live.
    """
    shared = _shared_circuit(cfg, cfg["layers"])
    payload = {"cfg": cfg, "observable": obs, "features": features, "target": target, "shared": shared}
    grid = chunk_grid(cfg["trials"], 1 << cfg["qubits"], cfg["layers"])
    results = _map_chunks(_descent_chunk, payload, grid, cfg["threads"])
    diverged = {k: r for k, r in enumerate(results) if isinstance(r, str)}
    live = [(k, *r) for k, r in enumerate(results) if k not in diverged]
    fields = {
        "trials": cfg["trials"],
        "diverged_trials": list(diverged),
        "diverged_messages": {str(k): message for k, message in diverged.items()},
    }
    return live, fields, EXIT_OK if live else EXIT_ALL_DIVERGED


def run_train(cfg: dict, obs: Observable, out_dir: Path, digest: str) -> tuple[int, dict]:
    live, report, code = _descend(cfg, obs, zero_state(cfg["qubits"])[None], obs.target)
    errors = [residuals[:, 0] for _, residuals, _ in live]
    fits = [_fit(e, cfg) for e in errors]
    for (k, _, kernels), e in zip(live, errors):
        _write_trial(out_dir, k, ["step", "residual", "kernel"], [e, kernels], digest)
    summary_rows = []
    if live:
        abs_err = np.abs(np.stack(errors))
        mean_log = np.log(np.maximum(abs_err, 1e-300)).mean(axis=0)
        summary_rows = zip(range(len(mean_log)), mean_log, np.log(abs_err.mean(axis=0)))
    write_csv(
        out_dir / "summary.csv",
        ["step", "mean_log_abs_residual", "log_mean_abs_residual"],
        summary_rows,
        digest,
    )
    rotations, sum_tr_x2 = _theory_layers(cfg, cfg["layers"])
    dim = 1 << cfg["qubits"]
    rate_pred = gamma(dim, rotations, obs.trace_power(2), obs.trace_power(1), cfg["eta"], sum_tr_x2)
    finite = [g for g, _, _ in fits if np.isfinite(g)]
    report.update(
        per_trial_gamma=[g for g, _, _ in fits],
        per_trial_r_squared=[r2 for _, r2, _ in fits],
        per_trial_fit_error=[reason for _, _, reason in fits],
        gamma_mean=float(np.mean(finite)) if finite else None,
        gamma_theory_leading=rate_pred.leading,
        gamma_theory_exact=rate_pred.exact,
    )
    return code, report


def run_train_supervised(cfg: dict, obs: Observable, out_dir: Path, digest: str) -> tuple[int, dict]:
    label_rng = RngStream(cfg["seed"], (_LANE_LABELS,))
    labels = 2.0 * label_rng.generator.integers(0, 2, size=cfg["train_size"]) - 1.0
    # basis features |d>, d < train_size, are orthogonal (train_size <= D is validated)
    features = np.eye(1 << cfg["qubits"], dtype=complex)[: cfg["train_size"]]
    live, report, code = _descend(cfg, obs, features, labels)
    losses = [squared_loss(residuals) for _, residuals, _ in live]
    for (k, _, kernels), loss in zip(live, losses):
        _write_trial(out_dir, k, ["step", "loss", "kernel_trace"], [loss, kernels], digest)
    mean_loss = np.stack(losses).mean(axis=0) if live else np.empty(0)
    log_mean_loss = np.log(np.maximum(mean_loss, 1e-300))
    write_csv(
        out_dir / "summary.csv",
        ["step", "mean_loss", "log_mean_loss"],
        zip(range(len(mean_loss)), mean_loss, log_mean_loss),
        digest,
    )
    report.update(
        labels=labels.tolist(),
        final_mean_loss=mean_loss[-1] if live else None,
        initial_mean_loss=mean_loss[0] if live else None,
    )
    return code, report


# ---------------------------------------------------------------------------
# eigen-scan


def _eigen_chunk(payload: dict, lo: int, hi: int) -> list[tuple[float, np.ndarray]]:
    """Lowest eigenvalue and supervised kernel of the trials [lo, hi): one engine call.

    Each trial's circuit serves one row per basis feature |d>, d < train_size.
    """
    cfg = payload["cfg"]
    n, layers, size = cfg["qubits"], cfg["layers"], payload["train_size"]
    streams = stream_block(cfg["seed"], [(_LANE_TRIALS, payload["size_index"], k) for k in range(lo, hi)])
    batch = sample_random_circuits(n, layers, streams, exclude_identity=cfg["exclude_identity"])
    features = np.eye(1 << n, dtype=complex)[:size]
    kernels = supervised_kernels(batch, ensemble_angles(layers, streams), features, payload["observable"])
    return list(zip(np.linalg.eigvalsh(kernels)[:, 0], kernels))


def run_eigen_scan(cfg: dict, obs: Observable, out_dir: Path, digest: str) -> tuple[int, dict]:
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
        spectrum = kernel_eigenvalues(dim, cfg["layers"], size, tr_o2, tr_o, _theory_layers(cfg, cfg["layers"])[1])
        lowest_of_mean = float(np.linalg.eigvalsh(mean_kernel)[0])
        summary_rows.append([size, lowest_of_mean, float(lowest_each.mean()), spectrum.lowest, spectrum.bulk])
        _write_trial(out_dir, si, ["trial", "lowest_eigenvalue"], [lowest_each], digest)
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
    return EXIT_OK, {"rows": len(summary_rows)}


# ---------------------------------------------------------------------------
# haar-check


def run_haar_check(cfg: dict, obs: Observable, out_dir: Path, digest: str) -> tuple[int, dict]:
    checks = []
    for qi, n in enumerate(cfg["qubits"]):
        dim = 1 << n
        rng = RngStream(cfg["seed"], (_LANE_TRIALS, qi))
        obs_n = obs if obs.num_qubits == n else _restrict_observable(obs, n)
        obs_mat = obs_n.matrix
        traceless = obs_mat - (np.trace(obs_mat) / dim) * np.eye(dim)
        psi = zero_state(n)
        second = mc_second_moment(dim, psi, traceless, cfg["samples"], rng.substream(0))
        checks.append({"name": f"second-moment-D{dim}", **second.as_dict()})
        x_mat = Observable.from_letters(((1.0, "Z" + "I" * (n - 1)),), 0.0).matrix
        comm = mc_commutator_trace(dim, x_mat, obs_mat, cfg["samples"], rng.substream(1))
        checks.append({"name": f"commutator-trace-D{dim}", **comm.as_dict()})
    write_csv(
        out_dir / "summary.csv",
        ["name", "mean", "std_error", "target", "z_score", "pass"],
        [[c["name"], c["mean"], c["std_error"], c["target"], c["z_score"], c["pass"]] for c in checks],
        digest,
    )
    all_pass = all(c["pass"] for c in checks)
    report = {"samples": cfg["samples"], "checks": checks, "all_pass": all_pass}
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED, report


def _restrict_observable(obs: Observable, n: int) -> Observable:
    """Observable on the first n of its qubits (haar-check across dims): the leading n digits of each code."""
    shift = 2 * (obs.num_qubits - n)
    return Observable(n, tuple((coef, code >> shift) for coef, code in obs.terms), obs.target)


# ---------------------------------------------------------------------------
# decay-fit


def run_decay_fit(cfg: dict, obs: None, out_dir: Path, digest: str) -> tuple[int, dict]:
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
        rate, r2, reason = _fit(_read_residual_column(path), cfg)
        rows.append([path.name, rate, r2])
        fits.append({"file": path.name, "gamma": rate, "r_squared": r2} if reason is None else {"file": path.name, "error": reason})
    write_csv(out_dir / "summary.csv", ["file", "gamma", "r_squared"], rows, digest)
    finite = [f["gamma"] for f in fits if "gamma" in f]
    return EXIT_OK, {"fits": fits, "gamma_mean": float(np.mean(finite)) if finite else None}


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

_RUNNERS = {
    "qntk-stats": run_qntk_stats,
    "train": run_train,
    "train-supervised": run_train_supervised,
    "eigen-scan": run_eigen_scan,
    "haar-check": run_haar_check,
    "decay-fit": run_decay_fit,
}


def run_experiment(cfg: dict, out_dir: str | Path) -> int:
    """Run a validated config, writing outputs under ``out_dir``.

    Writes the files every kind shares: ``config.echo.json``, then, after the
    kind's runner, ``observable.json`` (every kind with an observable) and
    ``report.json``, the kind and config hash joined by the runner's fields.
    ``run_<kind>(cfg, obs, out_dir, digest)`` writes ``summary.csv`` and any
    trial CSVs and returns ``(exit_code, report_fields)``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.echo.json", experiment_identity(cfg))
    digest = config_hash(cfg)
    obs = realize_observable(cfg) if "observable" in cfg else None
    code, fields = _RUNNERS[cfg["kind"]](cfg, obs, out_dir, digest)
    if obs is not None:
        write_json(out_dir / "observable.json", obs.as_dict())
    write_json(out_dir / "report.json", {"kind": cfg["kind"], "config_sha256": digest, **fields})
    return code


__all__ = [
    "ConfigError",
    "DENSE_BYTES_LIMIT",
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
