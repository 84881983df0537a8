"""The source distribution ships the library modules and nothing test-only."""

import ast
import shutil
import tarfile
from pathlib import Path

from setuptools import build_meta

ROOT = Path(__file__).resolve().parent.parent

MODULES = {
    "__init__",
    "cli",
    "fans",
    "jsonio",
    "kernels",
    "linalg",
    "permutahedra",
    "polyhedra",
    "subdivisions",
    "valuated",
}


def test_sdist_ships_exactly_the_library_modules(tmp_path, monkeypatch):
    # Build from a copy so the checkout's src/ gets no egg-info.
    project = tmp_path / "project"
    project.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, project / name)
    shutil.copytree(ROOT / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    monkeypatch.chdir(project)
    sdist = build_meta.build_sdist(str(tmp_path / "dist"))
    with tarfile.open(tmp_path / "dist" / sdist) as tar:
        names = tar.getnames()
    # No test oracle, kernel twin or extension source anywhere: every .py file
    # is a library module, and the package directory holds nothing else.
    py_files = {n for n in names if n.endswith(".py")}
    package_files = {n for n in names if Path(n).parent.name == "valperm"}
    assert py_files == package_files
    assert {Path(n).name for n in package_files} == {m + ".py" for m in MODULES}


def test_no_library_check_is_an_assert_statement():
    # python -O strips assert statements, so a check made with one would
    # vanish; every library check raises explicitly instead
    found = []
    for path in sorted((ROOT / "src" / "valperm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_every_module_level_import_is_used():
    # a deletion that leaves an import behind leaves a dead name; every name
    # a library module imports at module level must be read in that module
    unused = []
    for path in sorted((ROOT / "src" / "valperm").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused
