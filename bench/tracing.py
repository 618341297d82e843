"""In-memory span tracer for the benchmark's per-module numbers.

The wrappers are installed from outside the package.  Modules bind each other's
functions with ``from .linalg import haar_unitary``, so a wrapper replaces the
function in every qntklab module that holds it, and each call is timed
wherever the name is looked up.  Spans are kept in flat arrays and dumped to a
file when the run ends; self times are computed afterwards, outside the traced
process.

``PauliString.apply`` is deliberately not traced: it runs hundreds of
thousands of times per run and the wrapper cost would swamp its own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute); "Class.attr" wraps a method or property getter
TRACED = (
    ("linalg.haar_unitary", "qntklab.linalg", "haar_unitary"),
    ("linalg.sample_pauli", "qntklab.linalg", "sample_pauli"),
    ("circuits.AnsatzSpec", "qntklab.circuits", "AnsatzSpec.__init__"),
    ("circuits.build_random_ansatz", "qntklab.circuits", "build_random_ansatz"),
    ("circuits.build_hardware_efficient", "qntklab.circuits", "build_hardware_efficient"),
    ("circuits.uniform_angles", "qntklab.circuits", "uniform_angles"),
    ("kernels.Observable.matrix", "qntklab.kernels", "Observable.matrix"),
    ("kernels.Observable.trace_power", "qntklab.kernels", "Observable.trace_power"),
    ("kernels.gradient", "qntklab.kernels", "gradient"),
    ("kernels.residual_error", "qntklab.kernels", "residual_error"),
    ("kernels.qntk", "qntklab.kernels", "qntk"),
    ("training.gd_optimize", "qntklab.training", "gd_optimize"),
    ("training.fit_decay_rate", "qntklab.training", "fit_decay_rate"),
    ("experiments.load_config", "qntklab.experiments", "load_config"),
    ("experiments.realize_observable", "qntklab.experiments", "realize_observable"),
    ("experiments.run_experiment", "qntklab.experiments", "run_experiment"),
    ("experiments.write_csv", "qntklab.experiments", "write_csv"),
    ("experiments.write_json", "qntklab.experiments", "write_json"),
)
# every public predictor of qntklab.theory is aggregated under one span name
THEORY = "theory"
SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (THEORY,)
# functions whose first argument is the path they write
BYTE_COUNTED = ("experiments.write_csv", "experiments.write_json")


class Tracer:
    """Records one span per wrapped call: name, parent span, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes = {name: 0 for name in BYTE_COUNTED}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        counted = name in self.bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counted:
                self.bytes[name] += Path(args[0]).stat().st_size
            return result

        return wrapper

    def dump(self, path: Path):
        """Write the spans: a JSON header line, then the four arrays' raw bytes."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start), "bytes": self.bytes}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: Path) -> dict:
    """Read a span file written by :meth:`Tracer.dump`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    header["name_id"], header["parent"], header["start"], header["end"] = arrays
    return header


def install(tracer: Tracer):
    """Wrap every traced function of qntklab wherever a module binds it."""
    import qntklab.experiments  # noqa: F401  (loads every module that binds traced names)

    modules = [m for k, m in sys.modules.items() if k == "qntklab" or k.startswith("qntklab.")]

    def replace_everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for name, module_name, attr in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[member]
            if isinstance(original, property):
                setattr(cls, member, property(tracer.wrap(name, original.fget)))
            else:
                setattr(cls, member, tracer.wrap(name, original))
        else:
            original = getattr(owner, attr)
            replace_everywhere(original, tracer.wrap(name, original))
    theory = sys.modules["qntklab.theory"]
    for attr in theory.__all__:
        original = getattr(theory, attr)
        if callable(original) and not isinstance(original, type):
            replace_everywhere(original, tracer.wrap(THEORY, original))


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time covered by its child spans.

    Spans come from one thread with strict stack discipline, so the children
    of a span are disjoint and lie inside it; their durations simply add up.
    """
    own = [e - s for s, e in zip(start, end)]
    for idx, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[idx] - start[idx]
    return own


def aggregate(spans: dict) -> dict:
    """Calls and summed self time per span name, plus bytes written."""
    own = self_times(spans["parent"], spans["start"], spans["end"])
    calls = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    for nid, t in zip(spans["name_id"], own):
        name = spans["names"][nid]
        calls[name] += 1
        self_s[name] += t
    return {"calls": calls, "self_s": self_s, "bytes": spans["bytes"]}
