"""Every third-party package the library imports is a declared dependency."""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import minexcite

PACKAGE = Path(minexcite.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _canonical(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def declared_dependencies() -> set:
    """Distribution names in pyproject.toml's [project] dependencies list."""
    # tomllib arrives only in Python 3.11; the list is one flat array of strings
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", PYPROJECT.read_text(), re.S | re.M)
    assert block, "pyproject.toml has no dependencies list"
    specs = re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    return {_canonical(re.match(r"[A-Za-z0-9_.-]+", spec).group()) for spec in specs}


def imported_top_level_names() -> dict:
    """Top-level name of every absolute import in the package, with the modules that import it."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found = [node.module]
            else:
                continue
            for name in found:
                names.setdefault(name.split(".")[0], set()).add(path.name)
    return names


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    distributions = packages_distributions()
    missing = {}
    for name, modules in imported_top_level_names().items():
        if name in sys.stdlib_module_names or name == PACKAGE.name:
            continue
        provided_by = {_canonical(d) for d in distributions.get(name, [name])}
        if not provided_by & declared:
            missing[name] = sorted(modules)
    assert not missing, f"imported but not in pyproject.toml dependencies: {missing}"


def test_the_import_walk_sees_the_known_dependencies():
    # guards the walk itself: these two are imported today, one of them
    # (mpmath) only inside a function; numpy, which only tests use, is neither
    imported = set(imported_top_level_names())
    assert {"mpmath", "yaml"} <= imported and "numpy" not in imported
    declared = declared_dependencies()
    assert {"mpmath", "pyyaml"} <= declared and "numpy" not in declared
