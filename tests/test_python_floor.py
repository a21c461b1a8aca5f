"""Every module parses under the oldest Python that pyproject.toml allows,
so syntax from a later version cannot slip in unnoticed."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_parses_at_the_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    paths = [p for d in ("src/rgp", "tests", "scripts", "perfbench")
             for p in sorted((ROOT / d).glob("*.py"))]
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(int(major), int(minor)))
        except SyntaxError as ex:
            refused.append(f"{path.relative_to(ROOT)}:{ex.lineno}: {ex.msg}")
    assert len(paths) > 30
    assert refused == []
