"""The `eliminations` fixture sees every elimination.

The fixture counts calls through the module attribute `ratmat._rref`.  A
module that imported `_rref` by name, or reached it as an attribute of an
imported `ratmat`, would keep a reference the patch does not replace, and
its eliminations would escape every budget without a failing test.  So no
module but `ratmat` may name `_rref` at all.
"""

import ast
from pathlib import Path

import minexcite

PACKAGE = Path(minexcite.__file__).resolve().parent
NAME = "_rref"


def references(path: Path) -> list:
    """Line numbers where `path` names `_rref`: a name, an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and node.id == NAME:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == NAME:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            lines += [node.lineno] * names.count(NAME)
    return lines


def test_only_ratmat_names_the_elimination_kernel():
    outside = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "ratmat.py" and (lines := references(path))
    }
    assert not outside, f"modules naming {NAME} outside ratmat.py escape the elimination count: {outside}"


def test_the_walk_sees_the_kernel_in_ratmat():
    # guards the walk itself: ratmat defines _rref and calls it by name
    assert len(references(PACKAGE / "ratmat.py")) >= 5
