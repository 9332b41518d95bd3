"""The benchmark reads the package by name, so a rename or a removed keyword
breaks it while the package's own tests pass.  These tests pin what it reads:
each "module.function" key of TARGETS in benchmarks/layers.py, every
ch_apparatus attribute that benchmarks/workloads.py and layers.py read, and
every keyword they pass to a package call."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
LAYERS = BENCHMARKS / "layers.py"
READERS = ["workloads.py", "layers.py"]


def target_names():
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("no TARGETS in benchmarks/layers.py")


def test_every_target_resolves():
    names = target_names()
    assert "simplex.solve_lp" in names
    for name in names:
        module, function = name.split(".")
        assert hasattr(importlib.import_module(f"ch_apparatus.{module}"), function), name


def package_reads(reader):
    """Each outermost attribute chain of the benchmark module reader that
    starts at a name it imports from ch_apparatus: (dotted path, the object
    the chain names or None where a link is missing, the call node when the
    chain is called)."""
    tree = ast.parse((BENCHMARKS / reader).read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ch_apparatus.") and alias.asname:
                    bound[alias.asname] = (alias.name, importlib.import_module(alias.name))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ch_apparatus"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = (f"{node.module}.{alias.name}", getattr(module, alias.name, None))
    nodes = list(ast.walk(tree))
    calls = {id(node.func): node for node in nodes if isinstance(node, ast.Call)}
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    reads = []
    for node in nodes:
        if not isinstance(node, (ast.Attribute, ast.Name)) or id(node) in inner:
            continue
        links, root = [], node
        while isinstance(root, ast.Attribute):
            links.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            path, obj = bound[root.id]
            for attr in reversed(links):
                path, obj = f"{path}.{attr}", getattr(obj, attr, None)
            reads.append((path, obj, calls.get(id(node))))
    return reads


@pytest.mark.parametrize("reader", READERS)
def test_every_package_attribute_the_benchmark_reads_resolves(reader):
    reads = package_reads(reader)
    assert reads, reader
    missing = sorted({path for path, obj, _call in reads if obj is None})
    assert not missing, f"{reader} reads {missing}, which the package does not define"


@pytest.mark.parametrize("reader", READERS)
def test_every_keyword_the_benchmark_passes_is_a_parameter(reader):
    checked = []
    for path, obj, call in package_reads(reader):
        if call is None or obj is None:
            continue
        parameters = inspect.signature(obj).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            continue
        for keyword in call.keywords:
            if keyword.arg is not None:
                assert keyword.arg in parameters, f"{reader} passes {keyword.arg}= to {path}"
                checked.append(f"{path}({keyword.arg}=)")
    if reader == "workloads.py":
        # the Campaign workload runs cmd_demo with workers=1 and then 2
        assert "ch_apparatus.cli.cmd_demo(workers=)" in checked
