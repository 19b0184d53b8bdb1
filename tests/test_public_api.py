"""Every exported name resolves, and the package re-exports its modules' objects."""

import importlib
import pkgutil

import gtmseq

MODULES = [
    importlib.import_module(f"gtmseq.{info.name}")
    for info in pkgutil.iter_modules(gtmseq.__path__)
]


def test_every_exported_name_resolves():
    assert MODULES
    for module in [gtmseq] + MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"


def test_package_names_are_module_objects():
    for name in gtmseq.__all__:
        if name == "__version__":
            continue
        obj = getattr(gtmseq, name)
        home = importlib.import_module(obj.__module__)
        assert home is not gtmseq, f"gtmseq.{name} is defined in no module"
        assert getattr(home, name, None) is obj, f"gtmseq.{name} is not {home.__name__}.{name}"
        assert name in getattr(home, "__all__", [name]), f"{home.__name__} does not export {name}"


def test_star_import():
    namespace = {}
    exec("from gtmseq import *", namespace)
    assert set(gtmseq.__all__) <= set(namespace)
