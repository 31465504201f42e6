"""Public names: every module's __all__ exists, and the package re-exports
only names some module declares, so a deleted name cannot linger."""

import importlib
import pkgutil
import types

import pytest

import forensic_bias

MODULES = sorted(m.name for m in pkgutil.iter_modules(forensic_bias.__path__))


def _module(name):
    return importlib.import_module(f"forensic_bias.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = _module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_resolve():
    modules = [_module(name) for name in MODULES]
    declared = {n: getattr(module, n) for module in modules for n in module.__all__}
    exported = {
        n: value
        for n, value in vars(forensic_bias).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported
    assert sorted(set(exported) - set(declared)) == []
    assert [n for n, value in exported.items() if declared[n] is not value] == []
