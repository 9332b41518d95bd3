"""The per-layer benchmark wraps package functions by name: each
"module.function" key of TARGETS in benchmarks/layers.py must name an
attribute of ch_apparatus, or a traced run fails on the rename."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


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
