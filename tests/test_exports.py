"""Every exported name resolves, and the test reference package imports.

The export lists are hand-kept; this pins them against an entry whose
function was moved or deleted.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from tests import reference

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} exports nothing"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


REFERENCE_MODULES = sorted(
    f"tests.reference.{info.name}" for info in pkgutil.iter_modules(reference.__path__)
)


def test_reference_package_has_modules():
    assert REFERENCE_MODULES


@pytest.mark.parametrize("name", REFERENCE_MODULES)
def test_reference_module_imports(name):
    importlib.import_module(name)
