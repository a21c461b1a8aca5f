"""Every failure the package raises is a typed RgpError, and every frozen
dataclass can be hashed.

`assert` statements vanish under `python -O`, and a bare builtin exception
cannot be told apart from a bug by the CLI, so neither may appear in
`src/rgp`.  `argparse.ArgumentTypeError` (an attribute, not a bare name) is
how argparse reports a bad option value and stays allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rgp"
BANNED = {"ValueError", "TypeError", "KeyError", "AssertionError"}


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_asserts_or_bare_builtin_raises():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and _raised_name(node) in BANNED:
                found.append(f"{path.name}:{node.lineno} raise {_raised_name(node)}")
    assert found == []


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
                and dec.func.id == "dataclass"
                and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True for kw in dec.keywords)):
            return True
    return False


def test_frozen_dataclasses_with_dict_fields_define_hash():
    # the generated __hash__ hashes every field, and a dict field makes it raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef) or not _frozen_dataclass(node):
                continue
            dict_field = any(
                isinstance(stmt, ast.AnnAssign) and any(
                    isinstance(n, ast.Name) and n.id == "dict"
                    for n in ast.walk(stmt.annotation))
                for stmt in node.body)
            has_hash = any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__hash__"
                           for stmt in node.body)
            if dict_field and not has_hash:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
