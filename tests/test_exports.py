"""Every name a kzring module exports in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import kzring

MODULES = ["kzring"] + sorted(
    f"kzring.{info.name}" for info in pkgutil.iter_modules(kzring.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_the_closed_forms_export_one_entry_point():
    for name in ("kzring.para", "kzring.dia"):
        exported = importlib.import_module(name).__all__
        assert "concurrences" in exported
        assert not {"concurrence", "branch_overlap"} & set(exported)
