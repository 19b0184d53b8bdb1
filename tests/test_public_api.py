"""Every exported name resolves, and the package re-exports its modules' objects."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def test_benchmark_names_are_defined():
    """Every gtmseq function or class the benchmark calls or traces still exists.

    Reads perfbench's ``LAYERS`` table and its workloads' ``g.<module>.<name>``
    references as text, without importing perfbench.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    run = ast.parse((perfbench / "run.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in run.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    workloads = (perfbench / "workloads.py").read_text(encoding="utf-8")
    names = {tuple(name.split(".")) for name in layers}
    names |= set(re.findall(r"\bg\.(\w+)\.(\w+)", workloads))
    assert ("cli", "main") in names and ("kappa", "KappaSpec") in names
    for module, name in sorted(names):
        obj = getattr(importlib.import_module(f"gtmseq.{module}"), name, None)
        assert inspect.isfunction(obj) or inspect.isclass(obj), f"gtmseq.{module}.{name}"
        assert obj.__module__ == f"gtmseq.{module}", f"gtmseq.{module}.{name} is imported"
