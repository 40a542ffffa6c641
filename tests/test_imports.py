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


def test_no_test_module_imports_private_names():
    """Tests reach the package through its public names, so a private
    helper can change without a test pinning how it is called."""
    offenders = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
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


def test_couple_reference_imports_no_private_names():
    """The flat couples keep their own blocked test and couple operations, so
    a fault in the tree's helpers cannot cancel out."""
    assert _private_imports(Path(__file__).parent / "couple_reference.py") == []


def test_grounding_reference_imports_no_private_names():
    """The brute force ranges over the universe itself and matches nothing
    against the state, so a fault in acting's matching cannot cancel out."""
    assert _private_imports(Path(__file__).parent / "grounding_reference.py") == []


def test_export_reference_imports_no_private_names():
    """The reference renderer sorts every configuration itself, so a fault in
    the export's incremental lists cannot cancel out."""
    assert _private_imports(Path(__file__).parent / "export_reference.py") == []


def test_rename_reference_imports_no_private_names():
    """The eager renaming keeps its own draw and rewrite, so a fault in the
    renaming plan cannot cancel out."""
    assert _private_imports(Path(__file__).parent / "rename_reference.py") == []


def test_rewrite_reference_imports_no_private_names():
    """The unfiltered rewrites visit every constraint themselves, so a filter
    hidden in a private helper cannot reach them."""
    assert _private_imports(Path(__file__).parent / "rewrite_reference.py") == []


REF_CLASSES = {"LabelRef", "FirstRef", "LastRef"}


def _ref_class_tests(path: Path) -> list[str]:
    """``file:line function`` for each ``isinstance`` against a task-reference
    class, ``function`` being the dotted chain of enclosing definitions."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
        ):
            names = {
                getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])
            }
            if names & REF_CLASSES:
                found.append(f"{path.name}:{node.lineno} {'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_reference_classes_are_tested_only_in_constraints():
    """Other modules ask a reference or a constraint slot instead of testing
    its class; only the oracle's own reach rule reads the class, so the
    ground truth shares no predicate with acting."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "constraints.py":
            offenders += _ref_class_tests(path)
    assert [o for o in offenders if not o.startswith("oracle.py:") or
            not o.endswith(" _Plan.__init__.ref")] == []


COUPLE_FIELDS = {"members", "children", "pursued"}


def _couple_builds(path: Path) -> list[str]:
    """``file:line`` for each construction of a ``ReductionCouple`` and each
    ``dataclasses.replace`` of one: of a value named like a couple, or setting
    a couple's own fields."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        first = ast.unparse(node.args[0]) if node.args else ""
        keywords = {k.arg for k in node.keywords}
        if name == "ReductionCouple" or name in ("replace", "dc_replace") and (
            "couple" in first.lower() or keywords & COUPLE_FIELDS
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_acting_builds_reduction_couples():
    """The couple tree keeps its shape in ``acting``: elsewhere a couple is
    read, or rebuilt through an ``acting`` helper such as
    ``with_alternatives``."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "acting.py":
            offenders += _couple_builds(path)
    assert offenders == []
    assert _couple_builds(PACKAGE / "acting.py")  # the guard sees a build


def _package_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports, by bare name, wherever in the
    file the import stands."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"htnact.{module}" if module else "htnact"
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n.removeprefix("htnact.") for n in names if n.startswith("htnact."))
    return found & {p.stem for p in PACKAGE.glob("*.py")}


GROUND_TRUTH = ("oracle", "reduction", "domain")
ACTING_SIDE = {"acting", "trace", "verify"}


def test_the_ground_truth_imports_nothing_of_acting():
    """The oracle is what acting is verified against, so neither it nor the
    modules it builds on may reach acting's lineage tables, searches or
    checks, directly or through another module."""
    reached, stack = set(), list(GROUND_TRUTH)
    while stack:
        module = stack.pop()
        if module not in reached:
            reached.add(module)
            stack += _package_imports(PACKAGE / f"{module}.py")
    assert reached & ACTING_SIDE == set()
    assert "acting" in _package_imports(PACKAGE / "trace.py")  # the guard sees one


def _cached_property_uses(path: Path) -> list[str]:
    """``file:line`` for each import of ``functools.cached_property`` and
    each ``functools.cached_property`` attribute read."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "functools" and any(
            alias.name == "cached_property" for alias in node.names
        ) or isinstance(node, ast.Attribute) and node.attr == "cached_property" and (
            getattr(node.value, "id", None) == "functools"
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_cached_views_use_one_descriptor():
    """Every cached view in the package is ``model.cached_view``, which takes
    no lock; ``functools.cached_property`` takes one on every first access
    before Python 3.12."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        offenders += _cached_property_uses(path)
    assert offenders == []
    assert _cached_property_uses(Path(__file__).parent / "couple_reference.py")  # it sees one


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
