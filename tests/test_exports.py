"""The package's public names: every exported name resolves, and the
lattice-state type the operators no longer take, and the C_E record, are
gone for good."""

import importlib
import types

import pytest

import cml_lab as cl

MODULES = ["lattice", "observables", "transfer", "spectral", "harness", "cli"]

# FiniteState and its helpers: window values are node-major arrays; and
# the C_E record: estimate_coupling_constant returns a float
GONE = [
    "FiniteState", "state", "embed", "project", "_eval_Pk_columns",
    "CouplingConstantEstimate",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"cml_lab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_every_package_name_resolves():
    # the names the package imports and the cli names it loads on first
    # access, each a public name of the module that defines it
    exported = [n for n in vars(cl) if not n.startswith("_")] + sorted(cl._CLI_NAMES)
    for name in exported:
        obj = getattr(cl, name)
        if not isinstance(obj, types.ModuleType):
            assert name in importlib.import_module(obj.__module__).__all__, name


@pytest.mark.parametrize("where", ["cml_lab", "cml_lab.lattice", "cml_lab.transfer"])
@pytest.mark.parametrize("name", GONE)
def test_removed_state_names_cannot_be_imported(where, name):
    module = importlib.import_module(where)
    assert not hasattr(module, name)
    with pytest.raises(ImportError):
        exec(f"from {where} import {name}", {})
