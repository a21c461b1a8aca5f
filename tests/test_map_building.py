"""The polynomial modules build no maps by hand.

`hyperbolic` and `qpoly` compute on graphs that `ops` surgeries or
`from_rotation_system` built: `hv` writes its fused and marked graphs as
edits of `to_rotation_spec` output.  So neither module calls
`CombinatorialMap(...)` or `make_graph(...)`, and a change of how a map is
stored does not reach them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rgp"
BUILDERS = ("CombinatorialMap", "make_graph")


def test_polynomial_modules_build_no_maps():
    found = []
    for name in ("hyperbolic.py", "qpoly.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if called in BUILDERS:
                    found.append(f"{name}:{node.lineno} {called}(...)")
    assert found == []
