"""The benchmark's dotted names still resolve against ``src/``.

``perfbench/spans.py`` wraps the functions its ``LAYERS`` table names by
``(module, attribute path)``, and perfbench's workloads import a few
names from ``repro``; a rename or a move in ``src/`` would silently drop
a layer or break a workload.  The benchmark is loaded by file path, as
it runs, without installing anything.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def repro_imports():
    """Every ``from repro... import name`` in perfbench's modules."""
    for source in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                for alias in node.names:
                    yield source.name, node.module, alias.name


@pytest.mark.parametrize(
    "module_name, path", [(m, p) for m, p, _ in load_spans().LAYERS]
)
def test_every_layer_resolves(module_name, path):
    assert callable(resolve(module_name, path))


def test_every_repro_import_resolves():
    imports = list(repro_imports())
    assert imports
    for source, module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), (
            f"{source}: from {module_name} import {name}"
        )


def test_the_entry_resolver_stays_in_the_executor():
    from repro.campaign.executor import resolve_entry

    assert resolve_entry("repro.campaign.testing:echo_task")({})["echo"] == {}
