import importlib
import types

import afdm_sense

MODULES = ("daft_core", "channel", "sensing_model", "hihtp", "subnyquist", "harness")


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"afdm_sense.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"afdm_sense.{name}.__all__ names {missing}"
        assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_exactly_the_module_exports():
    union = set()
    for name in MODULES:
        module = importlib.import_module(f"afdm_sense.{name}")
        union |= set(module.__all__)
        for attr in module.__all__:
            assert getattr(afdm_sense, attr, None) is getattr(module, attr)
    public = {
        attr
        for attr, value in vars(afdm_sense).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == union
