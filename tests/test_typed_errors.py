"""Every failure the package raises is a typed RgpError.

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
