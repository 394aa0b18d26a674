"""The package's exported names and the names the benchmark's tracer wraps.

A refactor that renames or deletes one of them breaks ``import *`` users or
the traced benchmark run; these checks catch it in the fast suite.
"""

import ast
import importlib
from pathlib import Path

import noma_pop

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    """The ``TRACED`` table of the benchmark's span tracer, read from its
    source (a literal) without importing or running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS.name}")


def test_every_exported_name_resolves():
    assert len(noma_pop.__all__) == len(set(noma_pop.__all__))
    missing = [n for n in noma_pop.__all__ if not hasattr(noma_pop, n)]
    assert missing == []
    # each name is declared once, in the __all__ of the module defining it
    layers = [importlib.import_module(f"noma_pop.{layer}") for layer in
              ("model", "analytic", "optimizer", "montecarlo")]
    assert noma_pop.__all__ == [
        "__version__", *(n for m in layers for n in m.__all__)]
    foreign = [f"{m.__name__}.{n}" for m in layers for n in m.__all__
               if getattr(m, n).__module__ != m.__name__]
    assert foreign == []


def test_every_traced_name_exists():
    traced = traced_names()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"noma_pop.{layer}")
        for name in names:
            if "." in name:
                # the tracer rewraps Class.method as a classmethod
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name, None)
                assert cls is not None, f"{layer}.{cls_name}"
                assert isinstance(vars(cls).get(meth), classmethod), \
                    f"{layer}.{name}"
            else:
                assert callable(getattr(module, name, None)), \
                    f"{layer}.{name}"
