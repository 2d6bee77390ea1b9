"""The README's Library example runs and its commented values hold."""

import ast
import re
from pathlib import Path

from sgring import HilbertData

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    shown = []  # (value, comment) of each bare expression, in order
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            shown.append((eval(code, namespace), comment))
        else:
            exec(code, namespace)
    (n_corners, c1), (hd, c2), (cm, c3), (monomials, c4), (curve_cm, c5) = shown
    assert n_corners == 5 and c1.startswith("5 ")
    assert hd == HilbertData(4, 1, 0)
    assert c2 == "multiplicity 4, constant 1, stabilization 0"
    assert cm is False and c3 == "False"
    assert len(monomials) == 21 and c4.startswith("21 ")
    assert curve_cm is False and c5 == "False"
