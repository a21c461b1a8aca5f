"""Every import in the package sits at module level and is used or
re-exported, and every module-level import in the tests is used.  Every
private module-level function or class of the package, and every one in
the tests that pytest does not call itself, is read somewhere.

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


def _called_by_pytest(node: ast.AST) -> bool:
    return (node.name.startswith(("test_", "pytest_"))
            or any("fixture" in ast.unparse(d) for d in node.decorator_list))


def test_no_uncalled_helpers():
    # a helper counts as read when its own module reads it outside its
    # definition, another module imports it by name, or any module reads
    # an attribute of that name
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))}
    imported, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported |= {(node.module.rsplit(".", 1)[-1], a.name) for a in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    uncalled = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            exempt = (not node.name.startswith("_") if path.parent == SRC
                      else _called_by_pytest(node))
            if exempt or (path.stem, node.name) in imported or node.name in attributes:
                continue
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       for other in tree.body if other is not node for n in ast.walk(other)):
                uncalled.append(f"{path.name}: {node.name}")
    assert uncalled == []
