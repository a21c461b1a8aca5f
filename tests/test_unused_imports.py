"""Every import in the package sits at module level and is used or
re-exported, and every module-level import in the tests is used.

A use is any name read in the module's code; names inside quoted
annotations are not read, so import what an annotation needs unquoted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rgp"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_module_imports():
    unused = {}
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def _function_imports(tree: ast.Module) -> list:
    return sorted({f"{fn.name} (line {node.lineno})"
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_imports_inside_functions():
    inside = {}
    for path in sorted(SRC.glob("*.py")):
        names = _function_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            inside[path.name] = names
    assert inside == {}
