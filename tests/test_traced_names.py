"""The library names that the benchmark tracer (``bench/tracing.py``) wraps must exist.

The tracer is read by path and never installed: only its ``TRACED`` table is
checked, so deleting or renaming a traced name fails here rather than in a
``bench/run.py --trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("span, module_name, attr", TRACED, ids=[span for span, _, _ in TRACED])
def test_traced_name_resolves(span, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        # the tracer reads the member from the class dict, not through inheritance
        cls_name, member = attr.split(".")
        assert member in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_observable_matrix_is_a_property():
    # the tracer wraps a property's getter and a method differently
    from qntklab.kernels import Observable

    assert isinstance(vars(Observable)["matrix"], property)


def test_theory_exports_resolve():
    # every public predictor of qntklab.theory is wrapped by name
    theory = importlib.import_module("qntklab.theory")
    for name in theory.__all__:
        assert hasattr(theory, name), name
