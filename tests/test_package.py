"""The public surface: every name a module of the package exports resolves."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import imputeaudit

MODULES = ["imputeaudit"] + sorted(m.name for m in pkgutil.iter_modules(imputeaudit.__path__, "imputeaudit."))


def test_every_module_of_the_package_is_checked():
    assert {"imputeaudit.attack", "imputeaudit.core", "imputeaudit.harness", "imputeaudit.models"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    # Nothing in the package star-imports, so a name left in __all__ after its definition went would pass unseen.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [item for item in exported if not hasattr(module, item)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
