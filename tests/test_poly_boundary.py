"""Only `rgp.poly` knows how a monomial is stored.

Every other module of the package, and every script, reads polynomials
through `MultiPoly.monomials()`, builds them with `MultiPoly.from_monomials()`
or the ring operations, and relabels them with `MultiPoly.rename()`.  So none
of them may touch the `terms` table, call `VarId.sort_key` (the monomial sort
rule), or hand `MultiPoly(...)` a term table of its own.  Then a change of the
monomial layout is a change to one module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checked_files():
    src = [p for p in sorted((ROOT / "src" / "rgp").glob("*.py")) if p.name != "poly.py"]
    return src + sorted((ROOT / "scripts").glob("*.py"))


def test_no_monomial_layout_outside_poly():
    files = _checked_files()
    assert len(files) > 5
    found = []
    for path in files:
        where = path.relative_to(ROOT)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                found.append(f"{where}:{node.lineno} .terms")
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "sort_key":
                    found.append(f"{where}:{node.lineno} .sort_key()")
                elif name == "MultiPoly" and (node.args or node.keywords):
                    found.append(f"{where}:{node.lineno} MultiPoly(...)")
    assert found == []
