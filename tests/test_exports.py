"""Every exported name resolves: a name dropped from a module but left in an ``__all__`` fails here."""

import importlib
import pkgutil

import pytest

import qntklab

MODULES = ["qntklab"] + [f"qntklab.{m.name}" for m in pkgutil.iter_modules(qntklab.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_package_exports_no_test_only_names():
    # the Pauli letter wrapper is gone, and basis states, the meta-kernel and
    # dense Pauli matrices are test oracles
    for name in ("PauliString", "pauli_code", "basis_state", "meta_kernel", "pauli_matrix"):
        assert name not in qntklab.__all__
        assert not hasattr(qntklab, name)
