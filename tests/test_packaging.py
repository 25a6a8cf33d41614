"""The runtime needs NumPy alone: no module of the package imports SciPy, and
pyproject.toml installs it only with the test extra. No module or test
imports a name it never uses."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_module_imports_scipy():
    found = []
    for path in sorted((ROOT / "src" / "handgeo").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


def _unused_imports(path: Path) -> list[str]:
    """'file:line: name' of each name that path imports and never loads;
    __future__ imports are directives, not names."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in loaded]


def test_no_module_or_test_has_an_unused_import():
    """__init__.py is skipped: its imports are the package's re-exports."""
    paths = sorted((ROOT / "src" / "handgeo").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = [u for path in paths if path.name != "__init__.py" for u in _unused_imports(path)]
    assert found == []


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each _name a module defines at module level or in a
    class body: functions and methods, classes, and assigned names such as
    constants, class attributes and dataclass fields."""
    found = []
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for node in (statement for body in bodies for statement in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                t.id
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for t in ast.walk(target)
                if isinstance(t, ast.Name)
            ]
        else:
            continue
        found += [(name, node.lineno) for name in targets if re.fullmatch(r"_[^_]\w*", name)]
    return found


def _named(tree: ast.Module) -> set[str]:
    """Every name a module loads, imports, reads as an attribute or spells
    out as a word of a string constant other than a docstring."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
            id(node) not in docstrings
        ):
            named.update(re.findall(r"\w+", node.value))
    return named


def test_every_private_module_name_is_used():
    """A module-level or class-level _name that no module of the package
    loads, imports or names is dead code. String constants count: the
    training worker's -c source names _worker_main."""
    paths = sorted((ROOT / "src" / "handgeo").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    named = set().union(*map(_named, trees.values()))
    found = [
        f"{file}:{line}: {name}"
        for file, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in named
    ]
    assert found == []
