"""The source distribution ships the library modules and nothing test-only."""

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
