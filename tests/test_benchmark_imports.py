"""The benchmark scripts under perfbench/ reach into threshtest by name. A
name the package no longer has would break the benchmark only when it runs,
so these tests parse the scripts, without importing or running them, and
check that every such name still resolves."""

import ast
import importlib
import pathlib
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _tree(script):
    return ast.parse((PERFBENCH / script).read_text(), filename=script)


def _resolve(module, name):
    """``from module import name`` without running the script: an attribute
    of the module, or else its submodule; None when neither exists."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _threshtest_imports(tree):
    """{local name: (what it names, the object or None)} for every import
    of threshtest or of one of its modules."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "threshtest":
            for alias in node.names:
                bound[alias.asname or alias.name] = (f"{node.module}.{alias.name}",
                                                     _resolve(node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "threshtest":
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    bound[local] = (target, importlib.import_module(target))
    return bound


@pytest.mark.parametrize("script", ["workloads.py", "spans.py"])
def test_every_threshtest_name_a_benchmark_script_uses_resolves(script):
    """Each imported name, and each attribute read off an imported module
    (``cli.main``), exists in the package."""
    tree = _tree(script)
    bound = _threshtest_imports(tree)
    assert bound, f"{script} imports nothing from threshtest"
    missing = [target for target, obj in bound.values() if obj is None]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(bound.get(node.value.id, (None, None))[1], types.ModuleType)):
            target, module = bound[node.value.id]
            if not hasattr(module, node.attr):
                missing.append(f"{target}.{node.attr}")
    assert not missing, f"{script} uses names threshtest does not have: {missing}"


def test_every_kernel_that_kernel_spans_wraps_exists():
    (names,) = [ast.literal_eval(node.value) for node in _tree("spans.py").body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_KERNEL_NAMES"]]
    kernels = importlib.import_module("threshtest._kernels")
    assert names
    assert [name for name in names if not callable(getattr(kernels, name, None))] == []
