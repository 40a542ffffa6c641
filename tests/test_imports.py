from __future__ import annotations

import ast
import importlib
from pathlib import Path

import htnact

PACKAGE = Path(htnact.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """``name:line alias`` for each ``_``-prefixed name imported from htnact."""
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").startswith("htnact")):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    return offenders


def test_no_module_imports_private_names_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        offenders += _private_imports(path)
    assert offenders == []


def test_oracle_reference_imports_no_private_names():
    """The differential reference keeps its own constraint semantics, so a
    fault in the oracle's cannot cancel out."""
    assert _private_imports(Path(__file__).parent / "oracle_reference.py") == []


def test_search_reference_imports_no_private_names():
    """The unreduced fold keeps its own replacement filter and folds over the
    public walk, so a narrowing hidden in a private helper cannot reach it."""
    assert _private_imports(Path(__file__).parent / "search_reference.py") == []


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
