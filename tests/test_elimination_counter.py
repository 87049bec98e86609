"""The `eliminations` fixture sees every elimination.

The fixture counts calls through the module attributes `ratmat._rref` and
`ratmat._staircase`.  A module that imported either by name, or reached it
as an attribute of an imported `ratmat`, would keep a reference the patch
does not replace, and its eliminations would escape every budget without a
failing test.  So no module but `ratmat` may name either kernel at all.
"""

import ast
from pathlib import Path

import minexcite

PACKAGE = Path(minexcite.__file__).resolve().parent
KERNELS = ("_rref", "_staircase")


def references(path: Path, name: str) -> list:
    """Line numbers where `path` names `name`: a name, an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and node.id == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            lines += [node.lineno] * names.count(name)
    return lines


def test_only_ratmat_names_the_elimination_kernel():
    outside = {
        (path.name, name): lines
        for path in sorted(PACKAGE.glob("*.py"))
        for name in KERNELS
        if path.name != "ratmat.py" and (lines := references(path, name))
    }
    assert not outside, f"kernels named outside ratmat.py escape the elimination count: {outside}"


def test_the_walk_sees_the_kernel_in_ratmat():
    # guards the walk itself: ratmat calls each kernel by name, and each from one
    # place, `_rref` from `eliminate`, the entry point of every elimination, and
    # `_staircase` from `staircase`, the one reader of a pair
    path = PACKAGE / "ratmat.py"
    functions = {f.name: f for f in ast.walk(ast.parse(path.read_text())) if isinstance(f, ast.FunctionDef)}
    for kernel, entry in (("_rref", "eliminate"), ("_staircase", "staircase")):
        (line,) = references(path, kernel)
        assert functions[entry].lineno <= line <= functions[entry].end_lineno
