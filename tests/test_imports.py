from __future__ import annotations

import ast
import importlib
from pathlib import Path

import htnact

PACKAGE = Path(htnact.__file__).parent


def test_no_module_imports_private_names_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("htnact")):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    assert offenders == []


def test_every_traced_function_exists():
    """perfbench/tracing.py wraps its TARGETS by name; a renamed function
    must fail here rather than in the benchmark's traced run."""
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    source = tracing.read_text(encoding="utf-8")
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    missing = []
    for module_name, functions in targets.items():
        module = importlib.import_module(f"htnact.{module_name}")
        for function in functions:
            holder = module
            for attr in function.split("."):
                holder = getattr(holder, attr, None)
            if not callable(holder):
                missing.append(f"{module_name}.{function}")
    assert targets and missing == []
